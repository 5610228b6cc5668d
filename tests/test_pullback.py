"""Pushforward cohomology against independently built Koszul tables.

The inverse image of a complete intersection of degrees (d_1,...,d_c)
under a covering of degree k per coordinate is the complete intersection
of degrees (k*d_1,...,k*d_c).  The sums over the splitting must match
that independent table entry for entry, structure sheaf and ideal sheaf
alike, and the dualizing route must be Serre-dual to the direct route.
"""

import pytest

from pushsplit.errors import MissingDataError
from pushsplit.pullback import (
    HYPOTHESIS_FAILS,
    HYPOTHESIS_HOLDS,
    NOT_APPLICABLE,
    VERIFIED,
    build_pullback_report,
    completeness_verdict,
    dualizing_cohomology,
    euler_characteristic,
    hyperplane_section_verdict,
    ideal_pushforward_cohomology,
    injectivity_hypothesis_check,
    pullback_degree,
    pushforward_cohomology,
)
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
    assert euler_characteristic(model, 2, 0) == 36


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
    assert euler_characteristic(model, 2, 0) == -9


def test_euler_growth_matches_pullback_degree():
    model = complete_intersection(4, (2, 2))
    chi = {l: euler_characteristic(model, 2, l) for l in (9, 10, 11)}
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
    holds = injectivity_hypothesis_check(complete_intersection(4, (2, 2)), 2, 2)
    assert holds.status == HYPOTHESIS_HOLDS
    assert holds.witness["delta0"] == 2

    p4 = injectivity_hypothesis_check(projective_space(4), 2, 4)
    assert p4.status == HYPOTHESIS_HOLDS

    rows = {(0, t): (1 if t >= 0 else 0) for t in range(-5, 6)}
    rows.update({(1, t): (1 if t == -1 else 0) for t in range(-5, 6)})
    witness_table = ExplicitTable(3, 1, 2, (-5, 5), rows)
    counter = ModelVariety("counterwitness", witness_table)
    failed = injectivity_hypothesis_check(counter, 2, 2)
    assert failed.status == HYPOTHESIS_FAILS
    assert failed.holds is False
    assert (failed.witness["i"], failed.witness["d"]) == (1, 1)


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
