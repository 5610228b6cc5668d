"""Cohomology tables against an untruncated alternating-sum oracle.

The oracle evaluates the Koszul Euler characteristic with the polynomial
extension of the binomial coefficient, which is valid at every integer
twist.  Table entries must reproduce it as an alternating sum, entry by
entry, including the ideal-sheaf rows via the restriction sequence.
"""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import ci_h0_by_subsets

from pushsplit import varieties
from pushsplit.errors import InputError, MissingDataError, TableRangeError
from pushsplit.polyring import graded_dim
from pushsplit.varieties import (
    ExplicitTable,
    KoszulTable,
    ModelVariety,
    complete_intersection,
    load_custom_table,
    parse_table,
    plane_in_p4,
    projective_space,
)


def polynomial_binomial(m, n):
    """C(m+n, n) extended to all integers m as a polynomial in m."""
    num = math.prod(m + j for j in range(1, n + 1))
    value = Fraction(num, math.factorial(n))
    assert value.denominator == 1
    return int(value)


def chi_oracle(n, degrees, t):
    total = 0
    for r in range(len(degrees) + 1):
        for subset in itertools.combinations(degrees, r):
            total += (-1) ** r * polynomial_binomial(t - sum(subset), n)
    return total


def chi_from_table(table, t):
    return sum((-1) ** i * table.h(i, t) for i in range(table.dim + 1))


def chi_ideal_from_table(table, n, t):
    return sum((-1) ** i * table.hI(i, t) for i in range(n + 1))


CI_CASES = (
    (1, (1,)),
    (1, (3,)),
    (2, (2,)),
    (2, (2, 2)),
    (3, (4,)),
    (3, (2, 3)),
    (4, (2, 2)),
    (4, (2, 3)),
    (4, (4, 4)),
    (4, (1, 1)),
)


class SubsetTable(KoszulTable):
    """A Koszul table whose truncated sum is the subset-by-subset oracle."""

    def _truncated(self, t):
        return ci_h0_by_subsets(self.n, self.degrees, t)


@pytest.mark.parametrize("n", range(1, 7))
def test_grouped_koszul_terms_match_the_subset_sum(n):
    # P^n, repeated, mixed, and zero-dimensional (c = n) degrees
    zero_dimensional = tuple(1 + j % 3 for j in range(n))
    cases = {(), (2, 2, 2, 2), (1, 2, 3), zero_dimensional}
    twists = range(-30, 31)
    for degrees in sorted(d for d in cases if len(d) <= n):
        table, reference = KoszulTable(n, degrees), SubsetTable(n, degrees)
        for _ in range(2):  # the second pass reads the values the first stored
            for i in range(-1, n + 2):
                for t in twists:
                    assert table.h(i, t) == reference.h(i, t)
                    assert table.hI(i, t) == reference.hI(i, t)
                    assert table.h_omega(i, t) == reference.h_omega(i, t)


def test_koszul_invariants():
    t = KoszulTable(4, (2, 3))
    assert t.dim == 2
    assert t.degree == 6
    assert t.omega_twist == 2 + 3 - 5
    assert t.h(0, 0) == 1
    assert t.h(0, -1) == 0
    assert t.h(1, 5) == 0
    assert KoszulTable(4, (2, 2)).h(0, 1) == 5
    assert KoszulTable(4, (2, 2)).h(0, 2) == 13
    assert KoszulTable(4, (4, 4)).h(0, 3) == 35
    assert KoszulTable(4).h(0, 2) == graded_dim(5, 2)
    assert KoszulTable(2, (1,)).h(0, 3) == graded_dim(2, 3)
    with pytest.raises(InputError):
        KoszulTable(2, (2, 2, 2))
    with pytest.raises(InputError):
        KoszulTable(2, (0,))


def test_table_chi_matches_polynomial_oracle():
    for n, degrees in CI_CASES:
        table = KoszulTable(n, degrees)
        for t in range(-10, 11):
            assert chi_from_table(table, t) == chi_oracle(n, degrees, t), \
                (n, degrees, t)


def test_serre_duality_on_tables():
    for n, degrees in CI_CASES:
        table = KoszulTable(n, degrees)
        if table.dim == 0:
            continue
        e = table.omega_twist
        for t in range(-8, 9):
            for i in range(table.dim + 1):
                assert table.h(i, t) == table.h(table.dim - i, e - t)


def test_h_omega_is_serre_dual():
    table = KoszulTable(4, (4, 4))
    for t in range(-6, 7):
        assert table.h_omega(0, t) == table.h(table.dim, -t)
    assert table.h_omega(0, 0) == 35
    assert table.h(2, 0) == 35


def test_dimension_zero_tables():
    table = KoszulTable(2, (2, 2))
    assert table.dim == 0
    assert table.degree == 4
    for t in range(-5, 6):
        assert table.h(0, t) == 4
        assert table.h(1, t) == 0
        assert chi_oracle(2, (2, 2), t) == 4


def test_ideal_rows_satisfy_restriction_sequence():
    for n, degrees in CI_CASES:
        table = KoszulTable(n, degrees)
        for t in range(-8, 9):
            lhs = chi_ideal_from_table(table, n, t)
            rhs = polynomial_binomial(t, n) - chi_oracle(n, degrees, t)
            assert lhs == rhs, (n, degrees, t)


def test_ideal_rows_vanish_for_acm_middle():
    table = KoszulTable(4, (2, 3))
    for t in range(-8, 9):
        assert table.hI(1, t) == 0
        assert table.hI(2, t) == 0


def test_projective_space_ideal_is_zero():
    table = KoszulTable(3)
    for i in range(4):
        for t in (-4, 0, 3):
            assert table.hI(i, t) == 0


def test_model_factories():
    p4 = projective_space(4)
    assert p4.name == "p4"
    assert p4.is_linear_pm and p4.smooth_general_position
    assert p4.dim == 4 and p4.codim == 0 and p4.degree == 1
    assert p4.subcanonical_twist == -5

    ci = complete_intersection(4, (2, 2))
    assert ci.name == "ci:2,2@4"
    assert not ci.is_linear_pm
    assert ci.dim == 2 and ci.codim == 2 and ci.degree == 4
    assert ci.subcanonical_twist == -1
    assert complete_intersection(4, (1, 1)).is_linear_pm
    with pytest.raises(InputError):
        complete_intersection(4, ())


def test_plane_model_matches_linear_ci():
    plane = plane_in_p4()
    reference = KoszulTable(4, (1, 1))
    assert plane.dim == 2 and plane.degree == 1
    assert plane.subcanonical_twist == -3
    assert plane.is_linear_pm
    for t in range(-12, 13):
        for i in range(3):
            assert plane.table.h(i, t) == reference.h(i, t)
        for i in range(5):
            assert plane.table.hI(i, t) == reference.hI(i, t)
    assert plane.table.h_omega(0, 3) == reference.h(0, 0)


def test_plane_table_is_built_once_and_shared(monkeypatch):
    sums = []
    koszul_sum = varieties._koszul_sum
    monkeypatch.setattr(varieties, "_koszul_sum",
                        lambda *args: sums.append(args) or koszul_sum(*args))
    first = plane_in_p4()
    built = len(sums)
    second = plane_in_p4(False)
    assert len(sums) == built > 0
    assert first.table is second.table
    assert (first.smooth_general_position,
            second.smooth_general_position) == (True, False)
    varieties._plane_table.cache_clear()
    rebuilt = plane_in_p4()
    assert rebuilt.table is not first.table
    assert rebuilt.table._rows == first.table._rows
    assert rebuilt.table._ideal_rows == first.table._ideal_rows


def test_explicit_table_validation():
    rows = {(0, t): 1 for t in range(-2, 3)}
    table = ExplicitTable(2, 0, 1, (-2, 2), rows)
    assert table.h(0, 0) == 1
    with pytest.raises(TableRangeError):
        table.h(0, 3)
    assert table.h(5, 0) == 0
    with pytest.raises(MissingDataError):
        table.hI(0, 0)
    with pytest.raises(InputError):
        ExplicitTable(2, 0, 1, (-2, 2), {(0, t): 1 for t in range(-2, 2)})
    with pytest.raises(InputError):
        ExplicitTable(2, 0, 1, (-2, 2), {**rows, (1, 0): 1})
    with pytest.raises(InputError):
        ExplicitTable(2, 0, 1, (-2, 2), {**rows, (0, 0): -1})


def test_fixture_tables_are_consistent():
    lines = load_custom_table("tests/fixtures/two_lines_p3.table")
    assert lines.n == 3 and lines.dim == 1 and lines.degree == 2
    assert lines.subcanonical_twist == -2
    assert lines.smooth_general_position and not lines.is_linear_pm
    assert lines.table.h(0, 0) == 2  # two connected components
    for t in range(-6, 7):
        assert lines.table.h(0, t) == (2 * (t + 1) if t >= 0 else 0)
        # componentwise duality
        assert lines.table.h(1, t) == lines.table.h(0, -2 - t)
        assert lines.table.hI(1, t) == (1 if t == 0 else 0)

    quartic = load_custom_table("tests/fixtures/rational_quartic_p3.table")
    assert quartic.subcanonical_twist is None
    assert not quartic.has_dualizing
    with pytest.raises(MissingDataError):
        quartic.table.h_omega(0, 0)
    for t in range(-6, 7):
        assert quartic.table.h(0, t) == (4 * t + 1 if t >= 0 else 0)
        assert quartic.table.hI(1, t) == (1 if t == 1 else 0)
        # chi of a degree-4 rational curve is 4t+1 at every twist
        assert quartic.table.h(0, t) - quartic.table.h(1, t) == 4 * t + 1

    # every row of the file reads back, no twist past trange does, and an
    # hI index the file does not declare is missing data, not zero
    for model in (lines, quartic):
        for row in Path(model.name.removeprefix("table:")).read_text() \
                .splitlines():
            kind, *numbers = row.split("#")[0].split() or ("",)
            if kind in ("h", "hI"):
                i, t, value = map(int, numbers)
                assert getattr(model.table, kind)(i, t) == value
        with pytest.raises(TableRangeError):
            model.table.h(0, 9)
        with pytest.raises(TableRangeError):
            model.table.hI(1, -9)
    with pytest.raises(MissingDataError):
        quartic.table.hI(0, 0)


@pytest.mark.parametrize("model, expected", [
    (lambda: projective_space(3), (3, 3, 1, -4)),
    (lambda: complete_intersection(4, (2, 2)), (4, 2, 4, -1)),
    (plane_in_p4, (4, 2, 1, -3)),
    (lambda: load_custom_table("tests/fixtures/rational_quartic_p3.table"),
     (3, 1, 4, None)),
    (lambda: load_custom_table("tests/fixtures/two_lines_p3.table"),
     (3, 1, 2, -2)),
], ids=["p3", "ci:2,2@4", "plane@4", "rational_quartic_p3", "two_lines_p3"])
def test_model_numbers_come_from_its_table(model, expected):
    m = model()
    table = m.table
    assert (m.n, m.dim, m.degree, m.subcanonical_twist) == expected
    assert (m.n, m.dim, m.degree) == (table.n, table.dim, table.degree)
    assert m.codim == table.n - table.dim
    assert m.subcanonical_twist == table.omega_twist
    assert m.has_dualizing == (table.omega_twist is not None)


def test_model_cannot_restate_its_tables_numbers():
    # a degree-4 surface in P^4 restated as a degree-5 threefold
    with pytest.raises(TypeError):
        ModelVariety(name="x", table=KoszulTable(4, (2, 2)),
                     n=4, dim=3, codim=2, degree=5)


def test_parse_table_errors():
    with pytest.raises(InputError):
        parse_table("n=2\n")  # headers missing
    with pytest.raises(InputError):
        parse_table("n=2\ndim=0\ndegree=1\nomega_twist=none\ntrange=2..-2\n")
    with pytest.raises(InputError):
        parse_table(
            "n=2\ndim=0\ndegree=1\nomega_twist=none\ntrange=0..0\n"
            "h 0 0 1\nh 0 0 1\n"
        )
    with pytest.raises(InputError):
        parse_table(
            "n=2\ndim=0\ndegree=1\nomega_twist=none\ntrange=0..0\n"
            "h 0 0 1\nwat\n"
        )
    with pytest.raises(InputError):
        parse_table(
            "n=2\ndim=0\ndegree=1\nomega_twist=none\nbogus=1\ntrange=0..0\n"
            "h 0 0 1\n"
        )
    with pytest.raises(InputError, match="omega_twist"):
        parse_table("n=2\ndim=0\ndegree=1\nomega_twist=abc\ntrange=0..0\n"
                    "h 0 0 1\n")

