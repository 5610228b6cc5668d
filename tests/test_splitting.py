"""Splitting multiplicities against a direct exponent-counting oracle.

The oracle enumerates all exponent vectors a in {0,...,k-1}^(n+1) and
counts those of total degree l+kd; the closed form and the kernel
computation from an explicit endomorphism must both reproduce it.
"""

import functools
import itertools
import math
import random
import runpy
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from oracles import splitting_by_ranks
from pushsplit import endomorphism
from pushsplit.cli import main
from pushsplit.errors import InputError
from pushsplit.endomorphism import (
    FINITENESS_CACHE_SIZE,
    MAP_CACHE_SIZE,
    NOT_FINITE,
    Endomorphism,
    load_endomorphism,
    parse_endomorphism,
    power_map,
    random_endomorphism,
    validate_finite,
)
from pushsplit.polyring import graded_dim, parse_form
from pushsplit.splitting import (
    BOX_CACHE_SIZE,
    MAX_BOX_BYTES,
    MAX_BOX_COEFFS,
    HilbertCheckReport,
    SplittingType,
    _box_counts,
    delta,
    hilbert_check,
    splitting_from_endo,
    splitting_universal,
)


def oracle_multiplicities(n, k, l):
    counts = {}
    for a in itertools.product(range(k), repeat=n + 1):
        total = sum(a)
        if (total - l) % k == 0:
            d = (total - l) // k
            counts[d] = counts.get(d, 0) + 1
    return counts


def convolved_box_counts(v, k):
    """(1 + t + ... + t^(k-1))^v by v convolutions with a k-term box."""
    coeffs = [1]
    for _ in range(v):
        out = [0] * (len(coeffs) + k - 1)
        for i, c in enumerate(coeffs):
            for j in range(k):
                out[i + j] += c
        coeffs = out
    return tuple(coeffs)


def inclusion_exclusion_box_count(v, k, t):
    """#{a in {0..k-1}^v, |a| = t} = sum_j (-1)^j C(v,j) C(t-jk+v-1, v-1)."""
    return sum((-1) ** j * math.comb(v, j) * math.comb(t - j * k + v - 1, v - 1)
               for j in range(v + 1) if t - j * k >= 0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(v=hst.integers(1, 40), k=hst.integers(1, 30))
def test_box_counts_match_convolution_and_inclusion_exclusion(v, k):
    counts = _box_counts(v, k)
    assert counts == convolved_box_counts(v, k)
    assert counts == tuple(inclusion_exclusion_box_count(v, k, t)
                           for t in range(v * (k - 1) + 1))


@pytest.mark.parametrize("v", [0, 1, 2, 7, 40])
def test_box_counts_at_k_one(v):
    assert _box_counts(v, 1) == (1,) == convolved_box_counts(v, 1)


def test_box_counts_is_an_lru_cache():
    # the benchmark reads _box_counts.cache_info() for its hit fraction
    assert isinstance(_box_counts, functools._lru_cache_wrapper)
    _box_counts(5, 4)
    _box_counts(5, 4)
    info = _box_counts.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_box_counts_cache_is_bounded():
    for v in range(1, BOX_CACHE_SIZE + 20):
        assert _box_counts(v, 3) == convolved_box_counts(v, 3), v
        assert _box_counts.cache_info().currsize <= BOX_CACHE_SIZE
    assert _box_counts.cache_info().currsize == BOX_CACHE_SIZE


def test_only_small_closed_form_tables_are_cached(capsys):
    # a table above MAX_BOX_BYTES // BOX_CACHE_SIZE (2 MiB) is computed
    # again on each use, so the cache never holds more than MAX_BOX_BYTES
    assert MAX_BOX_BYTES // BOX_CACHE_SIZE == 2 ** 21
    outputs = []
    for _ in range(2):
        assert main(["split", "--n", "400", "--k", "50", "--l", "0"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert _box_counts.cache_info().currsize == 0
    assert main(["split", "--n", "300", "--k", "50", "--l", "0"]) == 0
    assert _box_counts.cache_info().currsize == 1


def test_large_closed_form_within_the_limits():
    st = splitting_universal(2000, 50, 0)
    assert st.rank == 50 ** 2000
    assert st.as_dict()[0] == 1


def test_oversized_closed_forms_are_refused_before_any_work():
    with pytest.raises(InputError) as err:
        splitting_universal(1, 10 ** 12, 0)
    assert f"= {2 * (10 ** 12 - 1) + 1} coefficients" in str(err.value)
    with pytest.raises(InputError):
        splitting_universal(MAX_BOX_COEFFS // 2, 3, 0)
    with pytest.raises(InputError) as err:
        splitting_universal(1000, 1000, 0)
    assert "a table of about 595 MB, above the limit of 128 MB" in \
        str(err.value)
    with pytest.raises(InputError) as err:
        splitting_universal(3000, 50, 7)
    assert "50^3000 has more than 4300 digits" in str(err.value)
    assert _box_counts.cache_info().misses == 0


def test_digit_limit_follows_the_interpreter(monkeypatch):
    monkeypatch.setattr("sys.get_int_max_str_digits", lambda: 0)
    assert splitting_universal(3000, 2, 0).rank == 2 ** 3000
    monkeypatch.setattr("sys.get_int_max_str_digits", lambda: 3)
    assert splitting_universal(3, 9, 0).rank == 729
    with pytest.raises(InputError):
        splitting_universal(3, 10, 0)


def test_refusals_are_checked_on_every_call():
    # the digit limit is process state, so a cached table is no answer
    limit = sys.get_int_max_str_digits()
    assert splitting_universal(700, 10, 0).rank == 10 ** 700
    try:
        sys.set_int_max_str_digits(640)
        with pytest.raises(InputError):
            splitting_universal(700, 10, 0)
    finally:
        sys.set_int_max_str_digits(limit)


def test_splitting_cache_is_not_behind_a_traced_name():
    # bench/worker.py empties each module attribute's cache before a pass,
    # and bench/tracer.py replaces each LAYERS function by an uncached
    # wrapper, so no cache may sit on a traced name.  The caches are found
    # as reset_caches finds them, re-exports included.
    tracer = runpy.run_path(
        str(Path(__file__).resolve().parent.parent / "bench" / "tracer.py"))
    traced = set(tracer["LAYERS"])
    caches = {(name.removeprefix("pushsplit."), attr)
              for name, module in list(sys.modules.items())
              if name == "pushsplit" or name.startswith("pushsplit.")
              for attr, value in vars(module).items()
              if callable(getattr(value, "cache_clear", None))}
    assert caches & traced == set()
    assert {("splitting", "_box_counts"),
            ("endomorphism", "_finiteness_report"),
            ("endomorphism", "_parse"), ("varieties", "_parse_table")} <= caches
    assert endomorphism._finiteness_report.cache_info().maxsize == \
        FINITENESS_CACHE_SIZE
    # the map cache is bounded: distinct texts past its size evict
    assert endomorphism._parse.cache_info().maxsize == MAP_CACHE_SIZE
    for i in range(MAP_CACHE_SIZE + 5):
        parse_endomorphism(f"n = 1\nk = 1\nf0 = y0\nf1 = {i + 1}*y1\n")
    assert endomorphism._parse.cache_info().currsize == MAP_CACHE_SIZE


def test_delta_values():
    assert delta(4, 2, 0) == 2
    assert delta(4, 2, 1) == 2
    assert delta(4, 3, 0) == 3
    assert delta(2, 2, 0) == 1
    assert delta(1, 2, 0) == 1
    assert delta(1, 2, 1) == 0
    assert delta(3, 2, 4) == 0
    assert delta(3, 1, 5) == -5


def test_worked_splitting_types():
    assert splitting_universal(4, 2, 0).as_dict() == {0: 1, 1: 10, 2: 5}
    assert splitting_universal(4, 2, 1).as_dict() == {0: 5, 1: 10, 2: 1}
    assert splitting_universal(4, 3, 0).as_dict() == {0: 1, 1: 30, 2: 45, 3: 5}
    assert splitting_universal(2, 2, 0).as_dict() == {0: 1, 1: 3}
    assert splitting_universal(3, 2, 4).as_dict() == {-2: 1, -1: 6, 0: 1}
    assert splitting_universal(1, 2, 0).as_dict() == {0: 1, 1: 1}


def test_universal_matches_counting_oracle():
    for n in range(1, 5):
        for k in range(1, 5):
            for l in range(-5, 9):
                st = splitting_universal(n, k, l)
                assert st.as_dict() == oracle_multiplicities(n, k, l), (n, k, l)
    for l in range(-300, 301):
        assert splitting_universal(4, 3, l).as_dict() == \
            oracle_multiplicities(4, 3, l), l


def test_support_is_exact_interval():
    for n in range(1, 5):
        for k in range(2, 5):
            for l in range(-4, 8):
                st = splitting_universal(n, k, l)
                assert st.support_min == -(l // k)
                assert st.support_max == delta(n, k, l)
                counts = st.as_dict()
                for d in range(st.support_min, st.support_max + 1):
                    assert counts[d] > 0
                assert st.rank == k ** n


def test_trivial_cover_support():
    st = splitting_universal(3, 1, 5)
    assert st.as_dict() == {-5: 1}
    assert st.rank == 1


def test_shift_law():
    for n in (1, 2, 3):
        for k in (2, 3):
            for l in range(0, 5):
                lower = splitting_universal(n, k, l)
                upper = splitting_universal(n, k, l + k)
                for d, m in upper.as_dict().items():
                    assert lower.as_dict().get(d + 1, 0) == m


def test_hilbert_identity():
    for n in (1, 2, 4):
        for k in (2, 3):
            for l in (-3, 0, 1, 4):
                report = hilbert_check(splitting_universal(n, k, l))
                assert report.passed, (n, k, l, report)
                assert report.e_range == (-(l // k), 10)
    # from -floor(l/k) = 50 on; the range always holds that twist
    report = hilbert_check(splitting_universal(2, 2, -100))
    assert report.passed and report.e_range == (50, 50)


def test_hilbert_check_catches_tampering():
    tampered = SplittingType(1, 2, 0, ((0, 2), (1, 1)))
    report = hilbert_check(tampered)
    assert not report.passed
    assert report.first_failure == 0
    assert report.lhs == 2 and report.rhs == 1


def full_hilbert_check(st):
    """hilbert_check as a walk over every e in [-floor(l/k), max(10, -floor(l/k))]."""
    lower = -(st.l // st.k)
    upper = max(10, lower)
    for e in range(lower, upper + 1):
        lhs = sum(m * graded_dim(st.n + 1, e - d) for d, m in st.multiplicities)
        rhs = graded_dim(st.n + 1, st.l + st.k * e)
        if lhs != rhs:
            return HilbertCheckReport(False, (lower, upper), e, lhs, rhs)
    return HilbertCheckReport(True, (lower, upper))


def test_bounded_hilbert_check_matches_the_full_walk():
    rng = random.Random(20011)
    failures = 0
    for _ in range(3000):
        n, k, l = rng.randint(1, 5), rng.randint(1, 5), rng.randint(-12, 15)
        st = splitting_universal(n, k, l)
        if rng.random() < 0.5:
            pairs = dict(st.multiplicities)
            d = rng.randint(st.support_min - 2, st.support_max + 3)
            pairs[d] = max(1, pairs.get(d, 0) + rng.choice((-1, 1, 2)))
            st = SplittingType(n, k, l, tuple(sorted(pairs.items())))
        report = hilbert_check(st)
        assert report == full_hilbert_check(st), st
        failures += not report.passed
    assert 1000 < failures < 1500


def test_hilbert_check_work_does_not_grow_with_the_range(monkeypatch):
    calls = []
    real = graded_dim

    def counting(num_vars, degree):
        calls.append(degree)
        return real(num_vars, degree)

    monkeypatch.setattr("pushsplit.splitting.graded_dim", counting)
    st = splitting_universal(50, 2, 1000)
    report = hilbert_check(st)
    # 511 twists in the range, of which n + 1 = 51 decide it
    assert report.passed and report.e_range == (-500, 10)
    # n + 1 = 51 twists of len(multiplicities) + 1 binomials each
    assert len(calls) <= 51 * (len(st.multiplicities) + 1)


def test_splitting_type_validation():
    with pytest.raises(InputError):
        SplittingType(1, 2, 0, ((0, 0),))
    with pytest.raises(InputError):
        SplittingType(1, 2, 0, ((0, 1), (0, 1)))


def from_endo_and_by_ranks(e, l):
    """splitting_from_endo's answer, after checking that it and the
    per-degree ranks of the map both equal the closed form."""
    expected = splitting_universal(e.n, e.k, l)
    st = splitting_from_endo(e, l)
    assert st == expected
    assert splitting_by_ranks(e, l) == expected.as_dict()
    return st


def test_from_endo_matches_universal_on_power_maps():
    for n, k in ((1, 2), (2, 2), (2, 3), (3, 2), (4, 2)):
        e = power_map(n, k)
        for l in range(0, k + 2):
            from_endo_and_by_ranks(e, l)


def test_from_endo_negative_twist():
    st = from_endo_and_by_ranks(power_map(3, 2), 4)
    assert st.as_dict() == {-2: 1, -1: 6, 0: 1}


def test_from_endo_on_fixture_endomorphism():
    e = load_endomorphism("tests/fixtures/perturbed22.endo")
    for l in (0, 1, 2):
        from_endo_and_by_ranks(e, l)


def test_from_endo_random_endomorphisms():
    rng = random.Random(8)
    for _ in range(3):
        from_endo_and_by_ranks(random_endomorphism(2, 2, rng), 1)


def test_from_endo_requires_finiteness():
    bad = load_endomorphism("tests/fixtures/nonfinite12.endo")
    validate_finite(bad)
    with pytest.raises(InputError) as err:
        splitting_from_endo(bad, 0)
    assert "not finite" in str(err.value)


def test_ranks_of_a_degenerate_map_disagree_with_the_closed_form():
    # (y0^2, 2*y0^2) has the common zero (0 : 1), so the closed form is
    # not its splitting: the per-degree ranks must see the difference
    forms = (parse_form("y0^2", 2), parse_form("2*y0^2", 2))
    e = Endomorphism(1, 2, forms)
    assert validate_finite(e).verdict == NOT_FINITE
    assert splitting_by_ranks(e, 0) == {0: 1, 1: 2}
    assert splitting_universal(1, 2, 0).as_dict() == {0: 1, 1: 1}


def counting_ranked_degrees(monkeypatch):
    """The target degree of each matrix that endomorphism builds from now
    on to rank, each still built."""
    degrees = []
    real = endomorphism.multiplication_matrix

    def counted(forms, source_degree):
        degrees.append(source_degree + forms[0].degree)
        return real(forms, source_degree)

    monkeypatch.setattr(endomorphism, "multiplication_matrix", counted)
    return degrees


def test_from_endo_ranks_only_the_socle_degree(monkeypatch):
    degrees = counting_ranked_degrees(monkeypatch)
    for path, n, k in (("perturbed22.endo", 2, 2), ("dense33.endo", 3, 3)):
        socle = (n + 1) * (k - 1) + 1
        for l in range(-1, k + 2):
            endomorphism._finiteness_report.cache_clear()
            e = load_endomorphism(f"tests/fixtures/{path}")
            degrees.clear()
            splitting_from_endo(e, l)
            assert degrees == [socle], (path, l)
            # the FINITE report now cached for the map's value certifies
            # every later call under the same policy, on any copy of the map
            degrees.clear()
            splitting_from_endo(load_endomorphism(f"tests/fixtures/{path}"),
                                l + 1)
            assert degrees == [], (path, l)


def test_split_of_a_nonfinite_map_exits_2_after_one_socle_rank(
        monkeypatch, capsys):
    degrees = counting_ranked_degrees(monkeypatch)
    code = main(["split", "--endo", "tests/fixtures/nonfinite12.endo",
                 "--l", "0"])
    assert code == 2
    assert "not finite" in capsys.readouterr().err
    assert degrees == [(1 + 1) * (2 - 1) + 1]


def test_multiplicity_outside_support_is_zero():
    # only the nonzero multiplicities are stored, all on [0, delta]
    st = splitting_universal(2, 2, 0)
    assert -1 not in st.as_dict() and 5 not in st.as_dict()


def test_rank_sums_to_degree():
    for n in (1, 2, 3, 4):
        for k in (1, 2, 3):
            assert splitting_universal(n, k, 0).rank == k ** n
            total = sum(
                m * graded_dim(1, 0)
                for m in splitting_universal(n, k, 2).as_dict().values()
            )
            assert total == k ** n
