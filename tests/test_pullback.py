"""Pushforward cohomology against independently built Koszul tables.

The inverse image of a complete intersection of degrees (d_1,...,d_c)
under a covering of degree k per coordinate is the complete intersection
of degrees (k*d_1,...,k*d_c).  The sums over the splitting must match
that independent table entry for entry, structure sheaf and ideal sheaf
alike, and the dualizing route must be Serre-dual to the direct route.
"""

from collections import Counter

import pytest

from pushsplit import pullback, splitting, varieties
from pushsplit.adjunction import surface_adjunction
from pushsplit.cli import main
from pushsplit.errors import InputError, MissingDataError
from pushsplit.pullback import (
    MAX_TWISTS,
    NOT_APPLICABLE,
    VERIFIED,
    build_pullback_report,
    completeness_verdict,
    dualizing_cohomology,
    hyperplane_section_verdict,
    ideal_pushforward_cohomology,
    pullback_degree,
    pushforward_cohomology,
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
        for l in range(-6, 9):
            for i in range(model.dim + 1):
                assert pushforward_cohomology(model, k, l, i) == prime.h(i, l), \
                    (n, degrees, i, l)


def test_ideal_pushforward_matches_independent_koszul_table():
    k = 2
    for n, degrees in EQUIVALENCE_CASES:
        model = complete_intersection(n, degrees)
        prime = KoszulTable(n, tuple(k * d for d in degrees))
        for l in range(-6, 9):
            for i in range(n + 1):
                assert ideal_pushforward_cohomology(model, k, l, i) == \
                    prime.hI(i, l), (n, degrees, i, l)


def test_known_surface_values():
    model = complete_intersection(4, (2, 2))
    assert pushforward_cohomology(model, 2, 0, 2) == 35
    assert pushforward_cohomology(model, 2, 0, 0) == 1
    assert pushforward_cohomology(model, 2, 0, 1) == 0
    assert build_pullback_report(model, 2, (0, 0)).euler == {0: 36}


def test_low_cohomology_is_preserved():
    for n, degrees in EQUIVALENCE_CASES:
        model = complete_intersection(n, degrees)
        for k in (2, 3):
            for i in range(model.dim):
                assert pushforward_cohomology(model, k, 0, i) == model.h(i, 0)


def test_negative_twists_have_no_sections():
    model = complete_intersection(4, (2, 2))
    for l in (-1, -2, -3):
        assert pushforward_cohomology(model, 2, l, 0) == 0


def test_plane_curve_genus():
    model = complete_intersection(2, (3,))
    # the inverse image is a sextic plane curve of genus 10
    assert pushforward_cohomology(model, 2, 0, 1) == 10
    assert build_pullback_report(model, 2, (0, 0)).euler == {0: -9}


def test_euler_growth_matches_pullback_degree():
    model = complete_intersection(4, (2, 2))
    chi = build_pullback_report(model, 2, (9, 11)).euler
    assert chi[11] - 2 * chi[10] + chi[9] == pullback_degree(model, 2)


def test_dualizing_route_is_serre_dual():
    for n, degrees in ((4, (2, 2)), (4, (2, 3)), (3, (2,))):
        model = complete_intersection(n, degrees)
        for k in (2, 3):
            for l in range(0, k):
                for i in range(model.dim + 1):
                    assert dualizing_cohomology(model, k, l, i) == \
                        pushforward_cohomology(model, k, l, model.dim - i)


def test_dualizing_known_values():
    model = complete_intersection(4, (2, 2))
    assert dualizing_cohomology(model, 2, 0, 0) == 35
    assert dualizing_cohomology(model, 2, 1, 0) == 15


def test_dualizing_needs_subcanonical_data():
    quartic = load_custom_table("tests/fixtures/rational_quartic_p3.table")
    with pytest.raises(MissingDataError):
        dualizing_cohomology(quartic, 2, 0, 0)


def test_completeness_on_complete_intersection():
    verdicts = completeness_verdict(complete_intersection(4, (2, 2)), 2)
    assert verdicts.nondegenerate.holds
    assert verdicts.nondegenerate.witness["consistent"]
    assert verdicts.linearly_complete.holds
    assert verdicts.linearly_complete.witness["h0_Xprime_1"] == 5
    assert verdicts.h1_vanishing.holds
    assert verdicts.h1_vanishing.status == VERIFIED
    assert verdicts.h1_vanishing.witness["s"] == "infinity"


def test_completeness_rejects_k_one():
    verdicts = completeness_verdict(complete_intersection(4, (2, 2)), 1)
    for verdict in (verdicts.nondegenerate, verdicts.linearly_complete,
                    verdicts.h1_vanishing):
        assert verdict.status == NOT_APPLICABLE
        assert verdict.holds is None
        assert "k >= 2" in verdict.reason


def test_disconnected_model_is_not_linearly_complete():
    lines = load_custom_table("tests/fixtures/two_lines_p3.table")
    verdicts = completeness_verdict(lines, 2)
    assert verdicts.nondegenerate.holds
    assert verdicts.linearly_complete.holds is False
    # two components double the section count: 2*(n+1) instead of n+1
    assert verdicts.linearly_complete.witness["h0_Xprime_1"] == 8
    assert verdicts.linearly_complete.witness["n_plus_1"] == 4


def test_deficient_ideal_bound_is_sharp():
    quartic = load_custom_table("tests/fixtures/rational_quartic_p3.table")
    verdicts = completeness_verdict(quartic, 2)
    h1 = verdicts.h1_vanishing
    assert h1.holds
    assert h1.status == VERIFIED
    assert h1.witness["s"] == 1
    assert h1.witness["vanishing_bound_sk"] == 2
    assert h1.witness["verified_l_range"] == [0, 1]
    assert h1.witness["value_at_sk"] == 1
    assert ideal_pushforward_cohomology(quartic, 2, 2, 1) == 1


def test_koszul_completeness_is_decided_without_summing(monkeypatch):
    # every h^1(I_X(d)) of P^n or of a complete intersection of dim >= 1
    # is 0, so the witness 0..3k is filled without reading the ideal rows
    reads = []
    real = KoszulTable.hI
    monkeypatch.setattr(KoszulTable, "hI", lambda table, i, t: reads.append(
        (i, t)) or real(table, i, t))
    model = complete_intersection(4, (2, 2))
    h1 = completeness_verdict(model, 3).h1_vanishing
    assert reads == []
    # the verdict the summing loop gave
    assert (h1.status, h1.holds, h1.witness) == (
        VERIFIED, True,
        {"s_kind": "infinite", "s": "infinity", "verified_l_range": [0, 9]})
    assert h1.reason == ("h^1(I_X(d)) = 0 for d < s forces "
                         "h^1(I_{X'}(l)) = 0 for l < s*k")
    assert all(ideal_pushforward_cohomology(model, 3, l, 1) == 0
               for l in range(10))
    assert completeness_verdict(projective_space(3), 2).h1_vanishing.witness \
        == {"s_kind": "infinite", "s": "infinity", "verified_l_range": [0, 6]}


def test_explicit_completeness_still_sums_the_ideal_rows(monkeypatch):
    # an explicit table is checked twist by twist, up to its range
    quartic = load_custom_table("tests/fixtures/rational_quartic_p3.table")
    reads = Counter()
    real = quartic.table.hI
    monkeypatch.setattr(quartic.table, "hI", lambda i, t: reads.update(
        [(i, t)]) or real(i, t))
    assert completeness_verdict(quartic, 2).h1_vanishing.holds
    assert reads and max(reads.values()) == 1


@pytest.mark.parametrize("model", (
    complete_intersection(4, (2, 3)), plane_in_p4(), projective_space(3)),
    ids=("ci23", "plane", "p3"))
def test_a_report_reads_each_splitting_and_table_value_once(monkeypatch,
                                                            model):
    # reads of the model's table; a query made inside another (h_omega
    # reads h) is not a read, nor are the cross-check's own table's values
    lookups, reads, depth = Counter(), Counter(), [0]
    real_splitting = pullback.splitting_universal
    monkeypatch.setattr(pullback, "splitting_universal", lambda n, k, l: (
        lookups.update([l]) or real_splitting(n, k, l)))

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
    assert set(lookups) == set(range(-3, 10)) and max(lookups.values()) == 1
    assert max(reads.values()) == 1


def test_hyperplane_section_verdict():
    verdict = hyperplane_section_verdict(complete_intersection(4, (2, 2)), 2)
    assert verdict.holds
    assert verdict.witness["h0_Yprime_1"] == 4

    curve = hyperplane_section_verdict(complete_intersection(2, (3,)), 2)
    assert curve.status == NOT_APPLICABLE and "dim" in curve.reason

    k1 = hyperplane_section_verdict(complete_intersection(4, (2, 2)), 1)
    assert k1.status == NOT_APPLICABLE

    no_gp = hyperplane_section_verdict(
        complete_intersection(4, (2, 2), smooth_general_position=False), 2)
    assert no_gp.status == NOT_APPLICABLE and "position" in no_gp.reason


def test_injectivity_hypothesis():
    # restriction to a hyperplane section is injective on H^i for i < j
    # when h^i(O_X(-d)) = 0 for i < j and 0 < d <= delta_0
    assert delta(4, 2, 0) == 2
    for model, j in ((complete_intersection(4, (2, 2)), 2),
                     (projective_space(4), 4)):
        assert all(model.h(i, -d) == 0 for i in range(j) for d in (1, 2))

    rows = {(0, t): (1 if t >= 0 else 0) for t in range(-5, 6)}
    rows.update({(1, t): (1 if t == -1 else 0) for t in range(-5, 6)})
    witness_table = ExplicitTable(3, 1, 2, (-5, 5), rows)
    counter = ModelVariety("counterwitness", witness_table)
    failures = [(i, d) for i in range(2) for d in range(1, delta(3, 2, 0) + 1)
                if counter.h(i, -d) != 0]
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


def test_oversized_twist_ranges_are_refused_before_any_sum(monkeypatch,
                                                           capsys):
    def no_sums(*args):
        raise SumReached(args)

    # every sum starts by looking up its twist's splitting
    monkeypatch.setattr(pullback, "splitting_universal", no_sums)
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


@pytest.fixture
def counted(monkeypatch):
    """Splittings computed and grouped Koszul sums evaluated, by argument.

    A splitting is counted where ``splitting._splitting`` builds its
    SplittingType, so calls answered from the cache are not counted.
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
    assert {key[0] for key in counted} == {"splitting", "koszul"}
    assert max(counted.values()) == 1
