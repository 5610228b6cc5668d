"""Pushforward cohomology against independently built Koszul tables.

The inverse image of a complete intersection of degrees (d_1,...,d_c)
under a covering of degree k per coordinate is the complete intersection
of degrees (k*d_1,...,k*d_c).  The sums over the splitting must match
that independent table entry for entry, structure sheaf and ideal sheaf
alike, and the dualizing route must be Serre-dual to the direct route.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushsplit import pullback, splitting, varieties
from pushsplit.adjunction import surface_adjunction
from pushsplit.cli import main
from pushsplit.errors import InputError, TableRangeError
from pushsplit.pullback import (
    MAX_TWISTS,
    NOT_APPLICABLE,
    VERIFIED,
    _completeness,
    _Sums,
    build_pullback_report,
    pullback_degree,
)
from pushsplit.splitting import delta
from pushsplit.varieties import (
    ExplicitTable,
    KoszulTable,
    ModelVariety,
    complete_intersection,
    load_custom_table,
    plane_in_p4,
    projective_space,
)

from oracles import h1_witness_by_sums

EQUIVALENCE_CASES = (
    (2, (2,)),
    (3, (2,)),
    (2, (3,)),
    (4, (2, 2)),
    (4, (2, 3)),
)


def test_pullback_degree():
    assert pullback_degree(complete_intersection(2, (3,)), 2) == 6
    assert pullback_degree(complete_intersection(4, (2, 2)), 2) == 16
    assert pullback_degree(projective_space(4), 3) == 1
    assert pullback_degree(plane_in_p4(), 2) == 4


def test_pushforward_matches_independent_koszul_table():
    k = 2
    for n, degrees in EQUIVALENCE_CASES:
        model = complete_intersection(n, degrees)
        prime = KoszulTable(n, tuple(k * d for d in degrees))
        rows = build_pullback_report(model, k, (-6, 8)).h_rows
        assert rows == {(i, l): prime.h(i, l) for i in range(model.dim + 1)
                        for l in range(-6, 9)}, (n, degrees)


def test_ideal_pushforward_matches_independent_koszul_table():
    k = 2
    for n, degrees in EQUIVALENCE_CASES:
        model = complete_intersection(n, degrees)
        prime = KoszulTable(n, tuple(k * d for d in degrees))
        rows = build_pullback_report(model, k, (-6, 8)).ideal_rows
        assert rows == {(i, l): prime.hI(i, l) for i in range(n + 1)
                        for l in range(-6, 9)}, (n, degrees)


def test_known_surface_values():
    model = complete_intersection(4, (2, 2))
    report = build_pullback_report(model, 2, (0, 0))
    assert [report.h_rows[(i, 0)] for i in range(3)] == [1, 0, 35]
    assert report.euler == {0: 36}


def test_low_cohomology_is_preserved():
    for n, degrees in EQUIVALENCE_CASES:
        model = complete_intersection(n, degrees)
        for k in (2, 3):
            rows = build_pullback_report(model, k, (0, 0)).h_rows
            for i in range(model.dim):
                assert rows[(i, 0)] == model.table.h(i, 0)


def test_negative_twists_have_no_sections():
    model = complete_intersection(4, (2, 2))
    rows = build_pullback_report(model, 2, (-3, -1)).h_rows
    for l in (-1, -2, -3):
        assert rows[(0, l)] == 0


def test_plane_curve_genus():
    model = complete_intersection(2, (3,))
    # the inverse image is a sextic plane curve of genus 10
    report = build_pullback_report(model, 2, (0, 0))
    assert report.h_rows[(1, 0)] == 10
    assert report.euler == {0: -9}


def test_euler_growth_matches_pullback_degree():
    model = complete_intersection(4, (2, 2))
    chi = build_pullback_report(model, 2, (9, 11)).euler
    assert chi[11] - 2 * chi[10] + chi[9] == pullback_degree(model, 2)


def test_dualizing_route_is_serre_dual():
    for n, degrees in ((4, (2, 2)), (4, (2, 3)), (3, (2,))):
        model = complete_intersection(n, degrees)
        for k in (2, 3):
            report = build_pullback_report(model, k, (0, k - 1))
            for l in range(0, k):
                for i in range(model.dim + 1):
                    assert report.dualizing_rows[(i, l)] == \
                        report.h_rows[(model.dim - i, l)]


def test_dualizing_known_values():
    model = complete_intersection(4, (2, 2))
    rows = build_pullback_report(model, 2).dualizing_rows
    assert rows[(0, 0)] == 35
    assert rows[(0, 1)] == 15


def test_completeness_on_complete_intersection():
    verdicts = build_pullback_report(
        complete_intersection(4, (2, 2)), 2).completeness
    assert verdicts.nondegenerate.holds
    assert verdicts.nondegenerate.witness["consistent"]
    assert verdicts.linearly_complete.holds
    assert verdicts.linearly_complete.witness["h0_Xprime_1"] == 5
    assert verdicts.h1_vanishing.holds
    assert verdicts.h1_vanishing.status == VERIFIED
    assert verdicts.h1_vanishing.witness["s"] == "infinity"


def test_completeness_rejects_k_one():
    verdicts = build_pullback_report(
        complete_intersection(4, (2, 2)), 1).completeness
    for verdict in (verdicts.nondegenerate, verdicts.linearly_complete,
                    verdicts.h1_vanishing):
        assert verdict.status == NOT_APPLICABLE
        assert verdict.holds is None
        assert "k >= 2" in verdict.reason


def test_disconnected_model_is_not_linearly_complete():
    lines = load_custom_table("tests/fixtures/two_lines_p3.table")
    verdicts = build_pullback_report(lines, 2, (0, 1)).completeness
    assert verdicts.nondegenerate.holds
    assert verdicts.linearly_complete.holds is False
    # two components double the section count: 2*(n+1) instead of n+1
    assert verdicts.linearly_complete.witness["h0_Xprime_1"] == 8
    assert verdicts.linearly_complete.witness["n_plus_1"] == 4


def test_deficient_ideal_bound_is_sharp():
    quartic = load_custom_table("tests/fixtures/rational_quartic_p3.table")
    report = build_pullback_report(quartic, 2, (0, 2))
    h1 = report.completeness.h1_vanishing
    assert h1.holds
    assert h1.status == VERIFIED
    assert h1.witness["s"] == 1
    assert h1.witness["vanishing_bound_sk"] == 2
    assert h1.witness["verified_l_range"] == [0, 1]
    assert h1.witness["value_at_sk"] == 1
    assert report.ideal_rows[(1, 2)] == 1


def test_koszul_completeness_is_decided_without_summing(monkeypatch):
    # every h^1(I_X(d)) of P^n or of a complete intersection of dim >= 1
    # is 0, so the witness 0..3k is filled without reading the ideal rows:
    # a report on the twist 0 reads only the values its own rows need
    reads = []
    real = KoszulTable.hI
    monkeypatch.setattr(KoszulTable, "hI", lambda table, i, t: reads.append(
        (i, t)) or real(table, i, t))
    model = complete_intersection(4, (2, 2))
    h1 = build_pullback_report(model, 3, (0, 0)).completeness.h1_vanishing
    assert sorted(reads) == sorted((i, -d) for i in range(5)
                                   for d in range(delta(4, 3, 0) + 1))
    # the verdict the summing loop gave
    assert (h1.status, h1.holds, h1.witness) == (
        VERIFIED, True,
        {"s_kind": "infinite", "s": "infinity", "verified_l_range": [0, 9]})
    assert h1.reason == ("h^1(I_X(d)) = 0 for d < s forces "
                         "h^1(I_{X'}(l)) = 0 for l < s*k")
    rows = build_pullback_report(model, 3, (0, 9)).ideal_rows
    assert all(rows[(1, l)] == 0 for l in range(10))
    assert build_pullback_report(projective_space(3), 2).completeness \
        .h1_vanishing.witness == {"s_kind": "infinite", "s": "infinity",
                                  "verified_l_range": [0, 6]}


def test_explicit_completeness_sums_only_the_value_at_sk(monkeypatch):
    # the witness 0..sk-1 is derived, not summed: the ideal sums of a
    # report on the twist 0 are its own rows at l = 0 and the value at
    # l = sk = 2, which reads h^1(I_X(1)), a value the rows do not need
    quartic = load_custom_table("tests/fixtures/rational_quartic_p3.table")
    summed, reads = [], Counter()
    real_totals, real_hI = pullback._Sums.totals, quartic.table.hI
    monkeypatch.setattr(pullback._Sums, "totals", lambda sums, row, l, ix: (
        summed.append((row, l)) or real_totals(sums, row, l, ix)))
    monkeypatch.setattr(quartic.table, "hI", lambda i, t: reads.update(
        [(i, t)]) or real_hI(i, t))
    h1 = build_pullback_report(quartic, 2, (0, 0)).completeness.h1_vanishing
    assert h1.holds and h1.witness["verified_l_range"] == [0, 1]
    assert h1.witness["value_at_sk"] == 1
    assert sorted(set(call for call in summed if call[0] == "hI")) == \
        [("hI", 0), ("hI", 2)]
    assert (1, 1) in reads and max(reads.values()) == 1


def explicit_model(n: int, trange, h1_ideal=None) -> ModelVariety:
    """A curve in P^n with h^0(O_X(t)) = max(0, t + 1), h^1(O_X(t)) = 0,
    and h^1(I_X(t)) = h1_ideal[t - lo] when given, its only ideal row."""
    lo, hi = trange
    rows = {(i, t): max(0, t + 1) if i == 0 else 0
            for i in (0, 1) for t in range(lo, hi + 1)}
    ideal = None if h1_ideal is None else \
        {(1, t): h1_ideal[t - lo] for t in range(lo, hi + 1)}
    return ModelVariety("curve", ExplicitTable(n, 1, 2, trange, rows, ideal))


def test_explicit_completeness_without_an_h1_ideal_row():
    report = build_pullback_report(explicit_model(3, (-6, 6)), 2, (0, 0))
    h1 = report.completeness.h1_vanishing
    assert (h1.status, h1.holds, h1.witness) == (
        NOT_APPLICABLE, None, {"s_kind": "unknown"})
    assert h1.reason == "model table declares no h^1 ideal rows"
    assert report.ideal_rows is None


def test_explicit_completeness_failing_at_the_bottom_of_the_table():
    model = explicit_model(3, (-6, 6), [1] + [0] * 12)
    h1 = build_pullback_report(model, 2, (0, 0)).completeness.h1_vanishing
    assert (h1.status, h1.holds, h1.witness) == (
        NOT_APPLICABLE, None, {"s_kind": "none", "scanned_trange": [-6, 6]})


def test_explicit_completeness_leaves_out_a_value_at_sk_past_the_table():
    # s = 0: the sum at l = sk = 0 reads h^1(I_X(-delta(2, 3, 0))) =
    # h^1(I_X(-2)), below the table, and no twist 0 <= l < sk exists
    model = explicit_model(2, (-1, 4), [0, 1, 0, 0, 0, 0])
    with pytest.raises(TableRangeError):
        model.table.h(0, -delta(2, 3, 0))
    h1 = build_pullback_report(model, 3, (1, 1)).completeness.h1_vanishing
    assert (h1.status, h1.holds, h1.witness) == (VERIFIED, True, {
        "s_kind": "finite", "scanned_trange": [-1, 4], "s": 0,
        "vanishing_bound_sk": 0, "verified_l_range": []})


@st.composite
def h1_cases(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(2, 5))
    # the completeness verdict reads h^0(O_X) and h^0(O_{X'}(1)), so the
    # table holds the twists -delta(n, k, 1)..0
    lo = draw(st.integers(-n - 6, -delta(n, k, 1)))
    hi = draw(st.integers(0, 6))
    h1_ideal = draw(st.lists(st.sampled_from((0, 0, 0, 1, 2)),
                             min_size=hi - lo + 1, max_size=hi - lo + 1))
    return explicit_model(n, (lo, hi), h1_ideal), k


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(h1_cases())
def test_derived_h1_witness_matches_the_twist_by_twist_sums(case):
    model, k = case
    h1 = _completeness(_Sums(model, k), {}).h1_vanishing
    if h1.status == NOT_APPLICABLE:
        assert h1.witness["s_kind"] == "none"
        return
    s = h1.witness["s"]
    l_top = 3 * k if s == "infinity" else s * k - 1
    assert h1_witness_by_sums(model, k, l_top) == \
        (h1.witness["verified_l_range"], [])


@pytest.mark.parametrize("model", (
    complete_intersection(4, (2, 3)), plane_in_p4(), projective_space(3)),
    ids=("ci23", "plane", "p3"))
def test_a_report_reads_each_splitting_and_table_value_once(monkeypatch,
                                                            model):
    # every m_{l,d} is read off one closed-form table, fetched once; reads
    # of the model's table: a query made inside another (h_omega reads h)
    # is not a read, nor are the cross-check's own table's values
    fetches, reads, depth = [], Counter(), [0]
    real_box = pullback._closed_form_box
    monkeypatch.setattr(pullback, "_closed_form_box", lambda n, k: (
        fetches.append((n, k)) or real_box(n, k)))

    def spy(row, real):
        def read(table, i, t):
            if table is model.table and not depth[0]:
                reads[row, i, t] += 1
            depth[0] += 1
            try:
                return real(table, i, t)
            finally:
                depth[0] -= 1
        return read

    for row in ("h", "hI", "h_omega"):
        cls = type(model.table)
        monkeypatch.setattr(cls, row, spy(row, getattr(cls, row)))
    build_pullback_report(model, 3)
    assert fetches == [(model.n, 3)]
    assert max(reads.values()) == 1


def test_hyperplane_section_verdict():
    verdict = build_pullback_report(
        complete_intersection(4, (2, 2)), 2).hyperplane
    assert verdict.holds
    assert verdict.witness["h0_Yprime_1"] == 4

    curve = build_pullback_report(complete_intersection(2, (3,)), 2).hyperplane
    assert curve.status == NOT_APPLICABLE and "dim" in curve.reason

    k1 = build_pullback_report(complete_intersection(4, (2, 2)), 1).hyperplane
    assert k1.status == NOT_APPLICABLE

    no_gp = build_pullback_report(
        complete_intersection(4, (2, 2), smooth_general_position=False),
        2).hyperplane
    assert no_gp.status == NOT_APPLICABLE and "position" in no_gp.reason


def test_injectivity_hypothesis():
    # restriction to a hyperplane section is injective on H^i for i < j
    # when h^i(O_X(-d)) = 0 for i < j and 0 < d <= delta_0
    assert delta(4, 2, 0) == 2
    for model, j in ((complete_intersection(4, (2, 2)), 2),
                     (projective_space(4), 4)):
        assert all(model.table.h(i, -d) == 0
                   for i in range(j) for d in (1, 2))

    rows = {(0, t): (1 if t >= 0 else 0) for t in range(-5, 6)}
    rows.update({(1, t): (1 if t == -1 else 0) for t in range(-5, 6)})
    witness_table = ExplicitTable(3, 1, 2, (-5, 5), rows)
    counter = ModelVariety("counterwitness", witness_table)
    failures = [(i, d) for i in range(2) for d in range(1, delta(3, 2, 0) + 1)
                if counter.table.h(i, -d) != 0]
    assert failures[0] == (1, 1)


def test_report_structure():
    model = complete_intersection(4, (2, 2))
    report = build_pullback_report(model, 2)
    assert report.lrange == (-2, 6)
    assert report.degree_prime == 16
    prime = KoszulTable(4, (4, 4))
    for l in range(-2, 7):
        for i in range(3):
            assert report.h_rows[(i, l)] == prime.h(i, l)
        assert report.euler[l] == sum(
            (-1) ** i * prime.h(i, l) for i in range(3))
    assert set(report.ideal_rows) == {
        (i, l) for i in range(5) for l in range(-2, 7)}
    assert set(report.dualizing_rows) == {
        (i, l) for i in range(3) for l in range(2)}
    assert report.completeness.linearly_complete.holds
    assert report.hyperplane.holds


def test_report_skips_unavailable_sections():
    quartic = load_custom_table("tests/fixtures/rational_quartic_p3.table")
    report = build_pullback_report(quartic, 2, lrange=(0, 2))
    assert report.dualizing_rows is None
    assert set(i for i, _ in report.ideal_rows) == {1}
    assert report.hyperplane.status == NOT_APPLICABLE

    p4_report = build_pullback_report(projective_space(4), 2, lrange=(-1, 1))
    assert p4_report.h_rows[(0, 1)] == 5
    assert p4_report.ideal_rows is None or all(
        value == 0 for value in p4_report.ideal_rows.values())


class SumReached(Exception):
    pass


def no_sums(*args):
    raise SumReached(args)


def test_oversized_twist_ranges_are_refused_before_any_sum(monkeypatch,
                                                           capsys):
    # the first sum fetches the closed-form table
    monkeypatch.setattr(pullback, "_closed_form_box", no_sums)
    p4 = projective_space(4)
    with pytest.raises(InputError, match=f"{MAX_TWISTS + 1} twists"):
        build_pullback_report(p4, 2, lrange=(-3, MAX_TWISTS - 3))
    with pytest.raises(InputError, match="--lrange"):
        build_pullback_report(p4, MAX_TWISTS // 4)  # -k..3k: 4k + 1 twists
    with pytest.raises(SumReached):
        build_pullback_report(p4, 2, lrange=(1, MAX_TWISTS))
    with pytest.raises(SumReached):
        build_pullback_report(p4, (MAX_TWISTS - 1) // 4)
    assert main(["pullback", "--model", "p4", "--k", "2",
                 "--lrange", "0..100000000"]) == 2
    assert "100000001 twists" in capsys.readouterr().err


def test_reports_refuse_what_the_cli_refuses(monkeypatch, capsys):
    # k < 1 and an empty twist range are refused before any sum
    monkeypatch.setattr(pullback, "_closed_form_box", no_sums)
    p4 = projective_space(4)
    with pytest.raises(InputError, match="k must be >= 1, got -1"):
        build_pullback_report(p4, -1)
    with pytest.raises(InputError, match="k must be >= 1, got 0"):
        build_pullback_report(p4, 0, (0, 1))
    with pytest.raises(InputError, match="empty twist range 2..1"):
        build_pullback_report(p4, 2, (2, 1))
    assert main(["pullback", "--model", "p4", "--k", "0"]) == 2
    assert capsys.readouterr() == ("", "error: k must be >= 1, got 0\n")
    # the model is parsed first, so a bad spec is the error reported
    assert main(["pullback", "--model", "p-1", "--k", "0"]) == 2
    assert "bad model spec 'p-1'" in capsys.readouterr().err


@pytest.fixture
def counted(monkeypatch):
    """SplittingTypes built and grouped Koszul sums evaluated, by argument.

    A report reads its multiplicities off the closed-form table, so it
    builds no SplittingType: any built is counted under "splitting".
    No two tables in the reports below share their degrees, so the
    Koszul terms in a sum's arguments name the table it was asked on.
    Every cache starts empty (``tests/conftest.py``), so each case counts
    the work of a fresh process, the plane@4 table's build included.
    """
    calls = Counter()
    splitting_type, koszul_sum = splitting.SplittingType, varieties._koszul_sum

    def counted_splitting(n, k, l, multiplicities):
        calls["splitting", n, k, l] += 1
        return splitting_type(n, k, l, multiplicities)

    def counted_sum(n, terms, t):
        calls["koszul", n, terms, t] += 1
        return koszul_sum(n, terms, t)

    monkeypatch.setattr(splitting, "SplittingType", counted_splitting)
    monkeypatch.setattr(varieties, "_koszul_sum", counted_sum)
    return calls


def pullback_then_adjoint():
    ci23 = complete_intersection(4, (2, 3))
    build_pullback_report(ci23, 3)
    surface_adjunction(ci23, 3)


@pytest.mark.parametrize("build", (
    lambda: build_pullback_report(complete_intersection(4, (3, 3)), 5),
    lambda: build_pullback_report(plane_in_p4(), 3),
    lambda: surface_adjunction(plane_in_p4(), 2),
    lambda: surface_adjunction(complete_intersection(4, (2, 3)), 3),
    pullback_then_adjoint,
), ids=("pullback_ci33", "pullback_plane", "adjoint_plane", "adjoint_ci23",
        "pullback_then_adjoint_ci23"))
def test_each_splitting_and_koszul_value_is_computed_once(counted, build):
    build()
    assert {key[0] for key in counted} == {"koszul"}
    assert max(counted.values()) == 1
