"""Adjunction invariants of inverse-image surfaces in P^4.

The oracle for the subcanonical twist e' = ke + 5k - 5 is the pulled-back
complete intersection itself: CI(a,b)@4 has e = a+b-5, its inverse image
is CI(ka,kb)@4 with twist ka+kb-5, and the two must agree for every a, b,
k in range.
"""

import pytest

from pushsplit.adjunction import (
    CANONICAL_BIRATIONAL,
    DEL_PEZZO,
    VERY_AMPLE,
    canonical_birationality_verdict,
    canonical_system_dimensions,
    delta_l_bound_check,
    surface_adjunction,
)
from pushsplit.errors import InputError, IntegrityError
from pushsplit.pullback import NOT_APPLICABLE
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


def test_delta_l_bound_grid():
    for n in range(1, 7):
        for k in range(2, 6):
            report = delta_l_bound_check(n, k)
            assert report.passed, (n, k, report)
            assert len(report.values) == k
            for l, value in report.values:
                assert value == delta(n, k, l)
                assert value < n + 1
                if n >= 2:
                    assert value > 0


def test_delta_l_bound_rejects_k_one():
    with pytest.raises(InputError):
        delta_l_bound_check(3, 1)


def test_e_prime_matches_pulled_back_intersection():
    for a in range(1, 4):
        for b in range(a, 4):
            model = complete_intersection(4, (a, b))
            for k in (2, 3):
                report = surface_adjunction(model, k)
                oracle = KoszulTable(4, (k * a, k * b))
                assert report.e_prime == oracle.omega_twist, (a, b, k)
                assert report.e_prime == k * (a + b) - 5
                assert report.degree_prime == oracle.degree


def test_plane_degree_two_is_del_pezzo():
    report = surface_adjunction(plane_in_p4(), 2)
    assert report.e_prime == -1
    assert report.degree_prime == 4
    assert report.k_dot_h == -4
    assert report.k_squared == 4
    assert report.sectional_genus == 1
    assert not report.general_type
    assert report.canonical_very_ample.holds is False
    assert report.canonical_very_ample.status == DEL_PEZZO
    assert report.del_pezzo_exception.holds is True
    assert report.canonical_birational.status == NOT_APPLICABLE


def test_plane_degree_three_leaves_the_exception():
    report = surface_adjunction(plane_in_p4(), 3)
    assert report.e_prime == 1
    assert report.degree_prime == 9
    assert report.general_type
    assert report.canonical_very_ample.holds is True
    assert report.canonical_very_ample.status == VERY_AMPLE
    assert report.del_pezzo_exception.holds is False
    assert report.h0_omega == 5  # quintic-like canonical space h^0(O_P2-pulled)


def test_del_pezzo_exception_is_exact():
    cases = [
        (plane_in_p4(), 2, True),
        (plane_in_p4(), 3, False),
        (complete_intersection(4, (1, 2)), 2, False),
        (complete_intersection(4, (2, 2)), 2, False),
    ]
    for model, k, expected in cases:
        report = surface_adjunction(model, k)
        assert report.del_pezzo_exception.holds is expected, (model.name, k)


def test_known_surface_report():
    report = surface_adjunction(complete_intersection(4, (2, 2)), 2)
    assert report.e_source == -1
    assert report.e_prime == 3
    assert report.degree_prime == 16
    assert report.k_dot_h == 48
    assert report.k_squared == 144
    assert report.sectional_genus == 33
    assert report.h0_omega == 35
    assert report.h0_omega_minus_h == 15
    assert report.general_type
    assert report.canonical_birational.status == CANONICAL_BIRATIONAL
    assert report.canonical_birational.witness["h0_omega_Xprime_minus_H"] == 15
    assert report.delta_l == ((0, 2), (1, 2))


def test_adjunction_preconditions():
    with pytest.raises(InputError):
        surface_adjunction(complete_intersection(3, (2,)), 2)  # wrong ambient
    with pytest.raises(InputError):
        surface_adjunction(complete_intersection(4, (2,)), 2)  # a threefold
    with pytest.raises(InputError):
        surface_adjunction(plane_in_p4(), 1)
    with pytest.raises(InputError):
        surface_adjunction(
            complete_intersection(4, (2, 2), smooth_general_position=False), 2)
    two_lines = load_custom_table("tests/fixtures/two_lines_p3.table")
    with pytest.raises(InputError):
        surface_adjunction(two_lines, 2)


def test_genus_parity_guard():
    rows = {}
    reference = KoszulTable(4, (1, 2))
    for t in range(-20, 11):
        for i in range(3):
            rows[(i, t)] = reference.h(i, t)
    table = ExplicitTable(4, 2, 1, (-20, 10), rows, omega_twist=-2)
    fake = ModelVariety("odd-genus", table, smooth_general_position=True)
    # e = -2, k = 3: e' = 4, deg' = 9, (e'+1)*deg' = 45 is odd, so the
    # genus relation cannot close over the integers
    with pytest.raises(IntegrityError) as err:
        surface_adjunction(fake, 3)
    assert err.value.actual == 45
    report = surface_adjunction(fake, 2)  # e' = 1, deg' = 4, genus 5
    assert report.sectional_genus == 5


def test_birationality_not_applicable_cases():
    assert canonical_birationality_verdict(plane_in_p4(), 2).status == \
        NOT_APPLICABLE  # excluded pair
    assert canonical_birationality_verdict(projective_space(4), 2).status == \
        NOT_APPLICABLE  # linear subspace, excluded
    assert canonical_birationality_verdict(
        complete_intersection(4, (2, 2)), 1).status == NOT_APPLICABLE
    quartic = load_custom_table("tests/fixtures/rational_quartic_p3.table")
    assert canonical_birationality_verdict(quartic, 2).status == NOT_APPLICABLE
    no_gp = complete_intersection(4, (2, 2), smooth_general_position=False)
    assert canonical_birationality_verdict(no_gp, 2).status == NOT_APPLICABLE


def test_birationality_on_curves_uses_delta_one():
    # delta_1(2,2) = 1 >= dim 1, so a plane curve qualifies
    cubic = complete_intersection(2, (3,))
    verdict = canonical_birationality_verdict(cubic, 2)
    assert verdict.status == CANONICAL_BIRATIONAL
    assert verdict.witness["h0_omega_Xprime_minus_H"] > 0


def test_birationality_integrity_guard():
    # a fake subcanonical model whose twist is far too negative: the
    # promised section of omega_{X'}(-H') cannot exist
    rows = {}
    reference = KoszulTable(4, (2, 2))
    for t in range(-60, 11):
        for i in range(3):
            rows[(i, t)] = reference.h(i, t)
    table = ExplicitTable(4, 2, 4, (-60, 10), rows, omega_twist=-50)
    fake = ModelVariety("fake-promise", table, smooth_general_position=True)
    with pytest.raises(IntegrityError):
        canonical_birationality_verdict(fake, 2)


def test_canonical_system_dimensions():
    report = canonical_system_dimensions(complete_intersection(4, (2, 2)), 2)
    assert report.h0_omega_xprime == 35
    assert report.delta_0 == 2
    assert report.h0_omega_x_delta0 == 5  # h^0(O_S(-1+2)) = h^0(O_S(1))
    assert report.inequality_holds

    trivial = canonical_system_dimensions(projective_space(4), 2)
    assert trivial.h0_omega_xprime == 0
    assert trivial.h0_omega_x_delta0 == 0
    assert trivial.inequality_holds

    quartic = load_custom_table("tests/fixtures/rational_quartic_p3.table")
    with pytest.raises(InputError):
        canonical_system_dimensions(quartic, 2)
