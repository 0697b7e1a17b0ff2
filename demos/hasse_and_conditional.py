"""The Hasse polynomial and conditional number for f = a x^3 y^3 + b y^2 z^2.

Walks the full mod-p pipeline on one system: minimal lattice data (the
pairs K and their minimizer sets Z^min), the denominator set D and the
sparsity check, the conditional number c, and finally the Hasse
polynomials H_p whose value at the coefficients decides sharpness.
"""

from axdiv import (
    build_field,
    conditional_number,
    count_points,
    hasse_polynomial,
    hasse_value,
    minimal_data,
    ord_q,
    support_system,
    unit_variety,
)


def main() -> None:
    system = support_system(3, [[(3, 3, 0), (0, 2, 2)]])
    data = minimal_data(system)
    print(f"w = {data.mu + system.r}, mu = {data.mu}")
    print("pairs K with weights and minimizers:")
    for pair, w in data.K:
        points = ", ".join(f"t={lp.t} v={lp.v}" for lp in data.zmin[pair])
        print(f"  B={set(pair.B)} C={set(pair.C)}: w_Z={w}, Z^min = {points}")

    rep = conditional_number(system)
    print(f"\nD = {set(rep.D_set)}, sparsity = {rep.sparsity}, c = {rep.c_value}")
    print("c = -1 predicts ord_p = mu exactly, with |V|/p^mu = -1 mod p,")
    print("for every large prime and every choice of unit coefficients.\n")

    spec = unit_variety(system)
    for p in (5, 7, 11):
        H = hasse_polynomial(system, p, 1)
        value = hasse_value(system, p, spec.coefficients, 1)
        count = count_points(spec, build_field(p, 1))
        unit = count // p ** data.mu % p
        print(f"p = {p:2}: count = {count:5}, ord = {ord_q(count, p)},"
              f" H_p(1,1) = {value} = count/p^mu mod p ({unit})")
        if p == 5:
            print(f"        H_5 = {H}")
        assert value == unit == p - 1


if __name__ == "__main__":
    main()
