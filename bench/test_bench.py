"""Tests of the benchmark's own pieces, at the smallest sizes.

    python3 -m pytest bench
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
from fractions import Fraction

import pytest

import oracle
import run
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL_SIZES = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))
PRIMES = (101, 65537)


def _rank_mod(rows: list[list[int]], p: int) -> int:
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _socle_rank(n: int, k: int, forms: list[dict], p: int) -> tuple[int, int]:
    """Rank mod p of (g_i) -> sum f_i g_i into degree (n+1)(k-1)+1, and
    the dimension of that degree."""
    degree = (n + 1) * (k - 1) + 1
    target = {m: i for i, m in enumerate(W.monomials(n + 1, degree))}
    columns = []
    for f in forms:
        for g in W.monomials(n + 1, degree - k):
            col = [0] * len(target)
            for mono, c in f.items():
                col[target[tuple(a + b for a, b in zip(mono, g))]] += c
            columns.append(col)
    return _rank_mod(columns, p), len(target)


@pytest.mark.parametrize("n,k", SMALL_SIZES)
@pytest.mark.parametrize("dense", (False, True))
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_generated_maps_have_their_verdicts(n, k, dense, seed):
    for verdict in (W.FINITE, W.NOT_FINITE):
        forms = W.make_map(n, k, verdict, dense, 0, seed)
        assert all(sum(m) == k for f in forms for m in f)
        for p in PRIMES:
            rank, full = _socle_rank(n, k, forms, p)
            assert (rank == full) == (verdict == W.FINITE), (verdict, p)
        if verdict == W.NOT_FINITE and not dense:
            # f(e0) is the coefficient of y0^k
            assert all(W.power(n + 1, 0, k) not in f for f in forms)


def test_maps_depend_on_the_seed_but_not_their_shape():
    a = W.make_map(3, 3, W.FINITE, False, 0, seed=1)
    b = W.make_map(3, 3, W.FINITE, False, 0, seed=2)
    assert [set(f) for f in a] == [set(f) for f in b]
    assert a != b
    assert a == W.make_map(3, 3, W.FINITE, False, 0, seed=1)


def test_unimodular_change_of_coordinates():
    for seed in range(5):
        a = W.unimodular(4, random.Random(seed), random.Random(seed + 10))
        m = [[Fraction(x) for x in row] for row in a]
        det = Fraction(1)
        for c in range(4):
            pivot = next(r for r in range(c, 4) if m[r][c])
            if pivot != c:
                m[c], m[pivot] = m[pivot], m[c]
                det = -det
            det *= m[c][c]
            for r in range(c + 1, 4):
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
        assert abs(det) == 1


def test_form_text_round_trips_through_the_oracle_parser():
    for f in W.make_map(3, 3, W.NOT_FINITE, True, 0, seed=4):
        assert oracle.parse_form(W.form_text(f)) == oracle._sparse(f)


@pytest.mark.parametrize("num_vars,k", ((1, 3), (2, 2), (3, 3), (4, 2), (3, 4)))
def test_box_count_matches_enumeration(num_vars, k):
    counts = {}
    for a in itertools.product(range(k), repeat=num_vars):
        counts[sum(a)] = counts.get(sum(a), 0) + 1
    for s in range(-2, num_vars * k + 2):
        assert oracle.box_count(num_vars, k, s) == counts.get(s, 0)


def test_splitting_matches_readme_example():
    assert oracle.splitting(4, 2, 0) == [(0, 1), (1, 10), (2, 5)]


def test_koszul_table_matches_readme_pullback_example():
    xp = W.CompleteIntersection(4, (4, 4))   # ci:2,2@4 under k = 2
    rows = [[xp.h(i, l) for i in range(3)] for l in range(-1, 3)]
    assert rows == [[0, 0, 68], [1, 0, 35], [5, 0, 15], [15, 0, 5]]


def test_adjunction_numbers_match_readme_examples():
    plane = oracle.adjunction_numbers((4, (1, 1)), 2)
    assert (plane["e_prime"], plane["degree_prime"], plane["K_dot_H"],
            plane["K_squared"], plane["sectional_genus"]) == (-1, 4, -4, 4, 1)
    assert oracle.adjunction_numbers((4, (2, 2)), 2)["sectional_genus"] == 33


def test_points_ideal_rows():
    pts = W.CompleteIntersection(2, (2, 2))  # four points in P^2
    assert [pts.h(0, t) for t in range(-1, 3)] == [4, 4, 4, 4]
    assert [pts.h_ideal(1, t) for t in range(-1, 3)] == [4, 3, 1, 0]


SPLIT_QUERY = W.Query(["split", "--n", "1", "--k", "2", "--l", "0", "--json"],
                      {"cmd": "split", "fmt": "json", "n": 1, "k": 2, "l": 0,
                       "endo": None})
SPLIT_OUTPUT = json.dumps({
    "n": 1, "k": 2, "l": 0, "delta": 1, "support": [0, 1], "rank": 2,
    "multiplicities": [[0, 1], [1, 1]], "hilbert_check": {"passed": True},
    "source": "closed-form"}).encode()


def test_ledger_counts_each_kind_of_failure():
    ledger = run.Ledger()
    ledger.record(SPLIT_QUERY, 0, SPLIT_OUTPUT)
    assert (ledger.attempted, ledger.failed) == (1, 0)
    ledger.record(SPLIT_QUERY, 3, SPLIT_OUTPUT)                  # exit code
    wrong = SPLIT_OUTPUT.replace(b"[1, 1]]", b"[1, 2]]")
    ledger.record(SPLIT_QUERY, 0, wrong)                         # answer
    ledger.record(SPLIT_QUERY, 0, SPLIT_OUTPUT + b" ")           # bytes differ
    ledger.record(SPLIT_QUERY, 0, None)                          # no output
    assert (ledger.attempted, ledger.failed) == (5, 4)
    assert ledger.failed_frac == pytest.approx(0.8)


def test_tail_leaves_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(25)])
    assert value == 14.0 and pct == pytest.approx(60.0)


def _fake_round(traced: bool) -> dict:
    layers = {"calls": {}, "busy_s": {}, "self_s": {"cli.main": 0.9},
              "counts": {}} if traced else None
    return {"wall_s": 1.0, "latencies_s": [0.01] * 30, "maxrss_kb": 40000,
            "reference_s": [0.002] * 30,
            "box_counts": {"hits": 3, "misses": 1}, "bytes_out": 10,
            "traced": traced, "layers": layers}


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    e2e, _ = run.end_to_end([_fake_round(False)], 0.2)
    layers, _ = run.per_layer([_fake_round(False), _fake_round(True)])
    for declared, emitted in ((spec["end_to_end"], e2e), (spec["per_layer"], layers)):
        assert [m["name"] for m in declared] == list(emitted)
        assert [m["unit"] for m in declared] == [u for _, u in emitted.values()]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(W.WORKLOADS)


def test_program_agrees_with_the_oracle_on_small_queries(tmp_path, capsys):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from pushsplit import cli

    queries = []
    for n, k in ((2, 2), (1, 3)):
        for verdict in (W.FINITE, W.NOT_FINITE):
            for dense in (False, True):
                path, forms = W._endo_file(str(tmp_path), n, k, verdict,
                                           dense, 0, seed=5)
                queries.append(W.Query(
                    ["verify-endo", "--endo", path, "--json", "--exact"],
                    {"cmd": "verify", "fmt": "json", "n": n, "k": k,
                     "verdict": verdict, "exact": True, "forms": forms,
                     "source": path}))
                if verdict == W.FINITE:
                    queries += [W.Query(
                        ["split", "--endo", path, "--l", str(l), "--json"],
                        {"cmd": "split", "fmt": "json", "n": n, "k": k,
                         "l": l, "endo": path}) for l in range(k)]
    closed = [q for q in W.closed_form(5, str(tmp_path))
              if q.expect.get("n", 0) <= 12]
    queries += closed[:150]
    assert {q.argv[0] for q in closed[:150]} == {"split", "pullback", "adjoint"}
    ledger = run.Ledger()
    for i, q in enumerate(queries):
        out = tmp_path / f"q{i}.out"
        code = cli.main(q.argv + ["--out", str(out)])
        ledger.record(q, code, out.read_bytes() if out.exists() else None)
    capsys.readouterr()
    assert ledger.reasons == []
    assert ledger.attempted == len(queries)


def test_times_are_scaled_to_the_reference_speed():
    slow = _fake_round(False)
    slow["reference_s"] = [2 * run.REFERENCE_S] * 30
    metrics, _ = run.end_to_end([slow], 0.2)
    assert metrics["wall_s"][0] == pytest.approx(0.5)
    assert metrics["latency_p50_ms"][0] == pytest.approx(5.0)
    assert metrics["setup_s"][0] == 0.2
