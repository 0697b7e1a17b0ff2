from __future__ import annotations

import weakref

import pytest

import axdiv.lattice
import helpers
from axdiv import generate_corpus, support_system, variety_spec


def pytest_terminal_summary(terminalreporter):
    if not helpers.ACCEPTANCE_LOG:
        return
    terminalreporter.section("acceptance criteria")
    for num, ok, detail in sorted(helpers.ACCEPTANCE_LOG):
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}: {verdict} - {detail}")


@pytest.fixture()
def fresh_cache(monkeypatch):
    """An empty per-system cache, so that systems analysed or scanned by
    earlier tests do not answer for the ones built here."""
    cache = weakref.WeakKeyDictionary()
    monkeypatch.setattr(axdiv.lattice, "_RECORDS", cache)
    return cache


@pytest.fixture(scope="session")
def ex2_system():
    # x1^3 x2^3 + x2^2 x3^2 shape: n = 3, one polynomial, two monomials.
    return support_system(3, [[(3, 3, 0), (0, 2, 2)]])


@pytest.fixture(scope="session")
def ex2_variety(ex2_system):
    return variety_spec(ex2_system, {(1, (0, 2, 2)): 1, (1, (3, 3, 0)): 1})


@pytest.fixture(scope="session")
def skew_system():
    # x^3 y + x y^3: the minimal example whose denominator set is {1, 2}.
    return support_system(2, [[(3, 1), (1, 3)]])


@pytest.fixture(scope="session")
def corpus25():
    return generate_corpus(1, 25)
