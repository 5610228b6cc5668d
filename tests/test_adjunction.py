"""Adjunction invariants of inverse-image surfaces in P^4.

The oracle for the subcanonical twist e' = ke + 5k - 5 is the pulled-back
complete intersection itself: CI(a,b)@4 has e = a+b-5, its inverse image
is CI(ka,kb)@4 with twist ka+kb-5, and the two must agree for every a, b,
k in range.
"""

import pytest

from pushsplit import adjunction, pullback
from pushsplit.adjunction import (
    CANONICAL_BIRATIONAL,
    DEL_PEZZO,
    VERY_AMPLE,
    _canonical_birational,
    surface_adjunction,
)
from pushsplit.cli import main
from pushsplit.errors import InputError, IntegrityError
from pushsplit.pullback import (
    NOT_APPLICABLE,
    _base_assumptions,
    _Sums,
    build_pullback_report,
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


def test_delta_l_bound_grid():
    # 0 < delta_l < n+1 for every l in [0, k); for n = 1 the lower bound
    # degenerates to 0 <= delta_l (delta_{k-1} = 0, one dual summand)
    for n in range(1, 7):
        for k in range(2, 6):
            lower = 1 if n >= 2 else 0
            assert all(lower <= delta(n, k, l) < n + 1
                       for l in range(k)), (n, k)


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


def test_adjunction_preconditions(tmp_path, capsys):
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
    # a surface in P^4 whose table gives no dualizing twist
    reference = KoszulTable(4, (2, 2))
    table = tmp_path / "surface.table"
    table.write_text("".join(
        ["n=4\ndim=2\ndegree=4\nomega_twist=none\ntrange=-8..8\n"
         "general_position=true\n"]
        + [f"h {i} {t} {reference.h(i, t)}\n"
           for i in range(3) for t in range(-8, 9)]))
    with pytest.raises(InputError, match="is not subcanonical"):
        surface_adjunction(load_custom_table(str(table)), 2)
    assert main(["adjoint", "--model", f"table:{table}", "--k", "2"]) == 2
    assert "is not subcanonical" in capsys.readouterr().err


def test_oversized_k_is_refused_before_the_delta_l_pairs(monkeypatch):
    calls = []
    monkeypatch.setattr(adjunction, "delta",
                        lambda *args: calls.append(args) or delta(*args))
    with pytest.raises(InputError, match="coefficients"):
        surface_adjunction(complete_intersection(4, (2, 2)), 300000)
    assert calls == []


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


def birational(model, k):
    """The canonical-birationality verdict on one ``_Sums``, as
    ``surface_adjunction`` builds it."""
    sums = _Sums(model, k)
    return _canonical_birational(
        model, k, sums.total("h_omega", 0, 1),
        _base_assumptions(model, k, sums.value("h", 0, 0)))


def test_birationality_not_applicable_cases():
    verdict = surface_adjunction(plane_in_p4(), 3).canonical_birational
    assert verdict.status == NOT_APPLICABLE  # excluded pair
    assert "P^m" in verdict.reason


def test_surfaces_in_p4_always_have_delta_1_at_least_2():
    # so the birationality criterion's delta_1 >= dim X holds for every
    # model surface_adjunction admits: delta(4, k, 1) = 5 + floor(-6/k)
    assert all(delta(4, k, 1) >= 2 for k in range(2, 2001))
    assert [delta(4, k, 1) for k in (2, 3, 6, 7)] == [2, 3, 4, 4]


def test_birationality_on_curves_uses_delta_one():
    # delta_1(2,2) = 1 >= dim 1, so a plane curve qualifies
    cubic = complete_intersection(2, (3,))
    verdict = birational(cubic, 2)
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
    with pytest.raises(IntegrityError, match="promises"):
        surface_adjunction(fake, 2)


def test_canonical_system_dimensions():
    # the canonical map of X' factors through pi and the delta_0-adjoint
    # map of X, so h^0(omega_X') >= h^0(omega_X(delta_0))
    assert delta(4, 2, 0) == 2
    surface = complete_intersection(4, (2, 2))
    # h^0(omega_S(2)) = h^0(O_S(-1+2)) = h^0(O_S(1))
    assert (surface_adjunction(surface, 2).h0_omega,
            surface.table.h_omega(0, 2)) == (35, 5)
    p4 = projective_space(4)
    assert (build_pullback_report(p4, 2).dualizing_rows[(0, 0)],
            p4.table.h_omega(0, 2)) == (0, 0)


def test_adjoint_sums_each_dualizing_twist_once(monkeypatch):
    # the dualizing twists 0 and 1 are summed off one closed-form table
    fetches = []
    real = pullback._closed_form_box
    monkeypatch.setattr(pullback, "_closed_form_box", lambda n, k: (
        fetches.append((n, k)) or real(n, k)))
    report = surface_adjunction(complete_intersection(4, (2, 3)), 3)
    assert fetches == [(4, 3)]
    assert report.h0_omega_minus_h == \
        report.canonical_birational.witness["h0_omega_Xprime_minus_H"]


def test_adjoint_report_sums_each_dualizing_total_once(monkeypatch):
    # h^0(omega_S') and h^0(omega_S'(-H')) are one sum each: the
    # canonical-birationality verdict is handed the second, not resumming it
    sums = []
    real = _Sums.totals

    def totals(self, row, l, indices):
        sums.append((row, l, tuple(indices)))
        return real(self, row, l, indices)

    monkeypatch.setattr(_Sums, "totals", totals)
    report = surface_adjunction(complete_intersection(4, (2, 3)), 3)
    assert sums == [("h_omega", 0, (0,)), ("h_omega", 1, (0,))]
    assert report.canonical_birational.status == CANONICAL_BIRATIONAL
