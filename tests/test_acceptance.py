"""End-to-end acceptance gate: one test per release criterion.

Every check is an exact integer equality.  Each test prints a single
PASS line when it completes (visible with pytest -s); a failure surfaces
as a normal assertion error naming the criterion.
"""

import json
import random
import subprocess
import sys

from oracles import splitting_by_ranks
from pushsplit.endomorphism import power_map, random_endomorphism
from pushsplit.pullback import build_pullback_report
from pushsplit.adjunction import surface_adjunction
from pushsplit.splitting import (
    delta,
    hilbert_check,
    splitting_from_endo,
    splitting_universal,
)
from pushsplit.varieties import (
    KoszulTable,
    complete_intersection,
    load_custom_table,
    plane_in_p4,
)


def test_criterion_1_support_law():
    cases = 0
    for n in (1, 2, 3, 4):
        for k in (2, 3):
            for l in range(-6, 9):
                st = splitting_universal(n, k, l)
                assert st.support_min == -(l // k), (n, k, l)
                assert st.support_max == delta(n, k, l), (n, k, l)
                assert all(m > 0 for m in st.as_dict().values())
                assert st.rank == k ** n, (n, k, l)
                assert hilbert_check(st).passed, (n, k, l)
                cases += 1
    assert cases == 120
    print(f"PASS criterion 1: support law and Hilbert identity on {cases} cases")


def test_criterion_2_dual_route_equality():
    # the per-degree ranks of each map against the closed form; at run
    # time splitting_from_endo returns the closed form once the map is
    # certified finite, so it is held to both
    def both_routes(e, l):
        expected = splitting_universal(e.n, e.k, l)
        assert splitting_by_ranks(e, l) == expected.as_dict(), (e.n, e.k, l)
        assert splitting_from_endo(e, l) == expected, (e.n, e.k, l)

    checked = 0
    for n in (1, 2, 3):
        e = power_map(n, 2)
        for l in range(-2, 5):
            both_routes(e, l)
            checked += 1
    for n, k, l in ((4, 2, 0), (4, 2, 1), (4, 2, 2), (4, 3, 0)):
        both_routes(power_map(n, k), l)
        checked += 1
    rng = random.Random(1729)
    for _ in range(5):
        e = random_endomorphism(2, 2, rng)
        for l in (0, 1):
            both_routes(e, l)
            checked += 1
    print(f"PASS criterion 2: kernel route equals closed form on {checked} "
          "splittings including 5 random endomorphisms")


def test_criterion_3_oracle_equivalence():
    cases = ((2, (2,)), (3, (2,)), (2, (3,)), (4, (2, 2)), (4, (2, 3)))
    compared = 0
    for n, degrees in cases:
        model = complete_intersection(n, degrees)
        oracle = KoszulTable(n, tuple(2 * d for d in degrees))
        rows = build_pullback_report(model, 2, (-6, 8)).h_rows
        for l in range(-6, 9):
            for i in range(model.dim + 1):
                assert rows[(i, l)] == oracle.h(i, l), (n, degrees, i, l)
                compared += 1
        assert len(rows) == 15 * (model.dim + 1)
    rows = build_pullback_report(complete_intersection(4, (2, 2)), 2).h_rows
    assert rows[(2, 0)] == 35
    print(f"PASS criterion 3: decomposition sums match Koszul tables on "
          f"{compared} entries (h^2 = 35 included)")


def test_criterion_4_completeness_verdicts():
    cases = ((2, (2,)), (3, (2,)), (2, (3,)), (4, (2, 2)), (4, (2, 3)))
    for n, degrees in cases:
        model = complete_intersection(n, degrees)
        for k in (2, 3):
            report = build_pullback_report(model, k, (0, 1))
            verdicts = report.completeness
            assert verdicts.linearly_complete.holds is True
            assert verdicts.linearly_complete.witness["h0_Xprime_1"] == n + 1
            for i in range(model.dim):
                assert report.h_rows[(i, 0)] == model.table.h(i, 0)
    lines = load_custom_table("tests/fixtures/two_lines_p3.table")
    split_verdict = build_pullback_report(
        lines, 2, (0, 1)).completeness.linearly_complete
    assert split_verdict.holds is False
    assert split_verdict.witness["h0_Xprime_1"] == 2 * (lines.n + 1)
    print("PASS criterion 4: linear completeness verdicts with witnesses "
          "n+1 (connected) and 2(n+1) (two components)")


def test_criterion_5_hyperplane_section():
    report = build_pullback_report(complete_intersection(4, (2, 2)), 2)
    verdict = report.hyperplane
    assert verdict.holds is True
    assert verdict.witness["h0_Yprime_1"] == 4
    assert report.h_rows[(0, 1)] - report.h_rows[(0, 0)] == 4
    # independent table of the section curve
    assert KoszulTable(3, (4, 4)).h(0, 1) == 4
    print("PASS criterion 5: hyperplane section is linearly complete with "
          "h^0(O_Y'(1)) = 4")


def test_criterion_6_dualizing_numbers_and_bound():
    model = complete_intersection(4, (2, 2))
    oracle = KoszulTable(4, (4, 4))
    dualizing = build_pullback_report(model, 2).dualizing_rows
    assert dualizing[(0, 1)] == 15
    assert dualizing[(0, 0)] == 35
    adjoint = surface_adjunction(model, 2)
    assert (adjoint.h0_omega_minus_h, adjoint.h0_omega) == (15, 35)
    assert oracle.h_omega(0, -1) == 15
    assert oracle.h_omega(0, 0) == 35
    # 0 < delta_l < n+1 for l in [0, k), with 0 <= delta_l when n = 1
    for n in range(1, 7):
        for k in range(2, 6):
            lower = 1 if n >= 2 else 0
            assert all(lower <= delta(n, k, l) < n + 1
                       for l in range(k)), (n, k)
    print("PASS criterion 6: dualizing dimensions 15/35 and the delta_l "
          "bound over the (n, k) grid")


def test_criterion_7_adjunction_and_del_pezzo():
    report = surface_adjunction(plane_in_p4(), 2)
    assert report.e_prime == -1
    assert report.degree_prime == 4
    assert report.del_pezzo_exception.holds is True
    assert report.canonical_very_ample.holds is False
    for a in range(1, 4):
        for b in range(a, 4):
            for k in (2, 3):
                ci_report = surface_adjunction(
                    complete_intersection(4, (a, b)), k)
                assert ci_report.e_prime == k * (a + b) - 5, (a, b, k)
                assert ci_report.e_prime == \
                    KoszulTable(4, (k * a, k * b)).omega_twist
                flagged = a == b == 1 and k == 2  # CI(1,1) is itself a plane
                assert ci_report.canonical_very_ample.holds is not flagged
    print("PASS criterion 7: adjunction twist e' = k(a+b)-5 across the "
          "grid; Del Pezzo exception flagged exactly at (plane, k=2)")


def test_criterion_8_determinism():
    command = [sys.executable, "-m", "pushsplit", "split",
               "--n", "4", "--k", "3", "--l", "0", "--json"]
    first = subprocess.run(command, capture_output=True, check=True)
    second = subprocess.run(command, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")
    payload = json.loads(first.stdout)
    assert payload["multiplicities"] == [[0, 1], [1, 30], [2, 45], [3, 5]]
    print("PASS criterion 8: byte-identical JSON across consecutive runs")
