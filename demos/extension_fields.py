"""Point counts over F_{p^2} and the second-power Hasse congruence.

The divisibility story extends to q = p^a: counts over the quadratic
extensions follow the same closed form q(2q - 1), ord_q stays at mu,
and the twisted Hasse polynomial H^[2] reproduces the unit part mod p.
"""

from axdiv import (
    build_field,
    count_points,
    hasse_value,
    minimal_data,
    ord_q,
    support_system,
    unit_variety,
)


def main() -> None:
    system = support_system(3, [[(3, 3, 0), (0, 2, 2)]])
    data = minimal_data(system)
    spec = unit_variety(system)
    for p in (3, 5):
        q = p * p
        count = count_points(spec, build_field(p, 2))
        unit = count // q ** data.mu % p
        value = hasse_value(system, p, spec.coefficients, 2)
        print(f"F_{q}: count = {count} = q(2q-1) -> {count == q * (2 * q - 1)},"
              f" ord_q = {ord_q(count, p, 2)},"
              f" H^[2](1,1) = {value} = unit mod p ({unit})")
        assert value == unit


if __name__ == "__main__":
    main()
