"""Splitting multiplicities against a direct exponent-counting oracle.

The oracle enumerates all exponent vectors a in {0,...,k-1}^(n+1) and
counts those of total degree l+kd; the closed form and the kernel
computation from an explicit endomorphism must both reproduce it.
"""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from pushsplit.errors import InputError, IntegrityError
from pushsplit.endomorphism import (
    Endomorphism,
    FinitenessReport,
    load_endomorphism,
    power_map,
    random_endomorphism,
    validate_finite,
)
from pushsplit.exactla import RankResult
from pushsplit.polyring import graded_dim, parse_form
from pushsplit.pullback import dualizing_cohomology
from pushsplit.splitting import (
    MAX_BOX_COEFFS,
    HilbertCheckReport,
    SplittingType,
    _box_counts,
    delta,
    hilbert_check,
    splitting_from_endo,
    splitting_universal,
)
from pushsplit.varieties import complete_intersection


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
    _box_counts.cache_clear()
    _box_counts(5, 4)
    _box_counts(5, 4)
    info = _box_counts.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_large_closed_form_within_the_limits():
    st = splitting_universal(2000, 50, 0)
    assert st.rank == 50 ** 2000
    assert st.multiplicity(0) == 1


def test_oversized_closed_forms_are_refused_before_any_work():
    _box_counts.cache_clear()
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
                    assert lower.multiplicity(d + 1) == m


def test_hilbert_identity():
    for n in (1, 2, 4):
        for k in (2, 3):
            for l in (-3, 0, 1, 4):
                report = hilbert_check(splitting_universal(n, k, l), e_max=6)
                assert report.passed, (n, k, l, report)


def test_hilbert_check_catches_tampering():
    tampered = SplittingType(1, 2, 0, ((0, 2), (1, 1)))
    report = hilbert_check(tampered, e_max=4)
    assert not report.passed
    assert report.first_failure == 0
    assert report.lhs == 2 and report.rhs == 1


def full_hilbert_check(st, e_max):
    """hilbert_check as a walk over every e in [-floor(l/k), e_max]."""
    lower = -(st.l // st.k)
    for e in range(lower, e_max + 1):
        lhs = sum(m * graded_dim(st.n + 1, e - d) for d, m in st.multiplicities)
        rhs = graded_dim(st.n + 1, st.l + st.k * e)
        if lhs != rhs:
            return HilbertCheckReport(False, (lower, e_max), e, lhs, rhs)
    return HilbertCheckReport(True, (lower, e_max))


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
        e_max = -(l // k) + rng.randint(0, 30)
        report = hilbert_check(st, e_max)
        assert report == full_hilbert_check(st, e_max), (st, e_max)
        failures += not report.passed
    assert 1000 < failures < 1500


def test_hilbert_check_work_does_not_grow_with_e_max(monkeypatch):
    calls = []
    real = graded_dim

    def counting(num_vars, degree):
        calls.append(degree)
        return real(num_vars, degree)

    monkeypatch.setattr("pushsplit.splitting.graded_dim", counting)
    st = splitting_universal(200, 20, 3)
    report = hilbert_check(st, e_max=2000)
    assert report.passed and report.e_range == (0, 2000)
    # n + 1 = 201 twists of len(multiplicities) + 1 binomials each
    assert len(calls) <= 201 * (len(st.multiplicities) + 1)


def test_hilbert_check_refuses_an_empty_range():
    # the check starts at e = -floor(l/k) = 50; below that it checks nothing
    st = splitting_universal(2, 2, -100)
    with pytest.raises(InputError) as err:
        hilbert_check(st, e_max=49)
    assert "-floor(l/k) = 50" in str(err.value)
    report = hilbert_check(st, e_max=50)
    assert report.passed and report.e_range == (50, 50)


def test_splitting_type_validation():
    with pytest.raises(InputError):
        SplittingType(1, 2, 0, ((0, 0),))
    with pytest.raises(InputError):
        SplittingType(1, 2, 0, ((0, 1), (0, 1)))


def test_dual_multiplicities():
    model = complete_intersection(4, (2, 2))
    with pytest.raises(InputError):
        dualizing_cohomology(model, 2, 2, 0)
    with pytest.raises(InputError):
        dualizing_cohomology(model, 2, -1, 0)


def test_from_endo_matches_universal_on_power_maps():
    for n, k in ((1, 2), (2, 2), (2, 3), (3, 2), (4, 2)):
        e = power_map(n, k)
        for l in range(0, k + 2):
            st = splitting_from_endo(e, l)
            assert st.as_dict() == splitting_universal(n, k, l).as_dict()


def test_from_endo_negative_twist():
    e = power_map(3, 2)
    st = splitting_from_endo(e, 4)
    assert st.as_dict() == {-2: 1, -1: 6, 0: 1}


def test_from_endo_on_fixture_endomorphism():
    e = load_endomorphism("tests/fixtures/perturbed22.endo")
    for l in (0, 1, 2):
        assert splitting_from_endo(e, l).as_dict() == \
            splitting_universal(2, 2, l).as_dict()


def test_from_endo_random_endomorphisms():
    rng = random.Random(8)
    for _ in range(3):
        e = random_endomorphism(2, 2, rng)
        assert splitting_from_endo(e, 1).as_dict() == \
            splitting_universal(2, 2, 1).as_dict()


def test_from_endo_requires_finiteness():
    bad = load_endomorphism("tests/fixtures/nonfinite12.endo")
    validate_finite(bad)
    with pytest.raises(InputError) as err:
        splitting_from_endo(bad, 0)
    assert "not finite" in str(err.value)


def test_forged_certificate_trips_integrity_check():
    forms = (parse_form("y0^2", 2), parse_form("2*y0^2", 2))
    e = Endomorphism(1, 2, forms)
    e._finiteness.append(
        FinitenessReport(test_degree=3, required_rank=4,
                         rank=RankResult(((1048583, 4),)))
    )
    with pytest.raises(IntegrityError) as err:
        splitting_from_endo(e, 0)
    assert err.value.expected.as_dict() == {0: 1, 1: 1}
    assert err.value.actual.as_dict() == {0: 1, 1: 2}


def test_multiplicity_outside_support_is_zero():
    st = splitting_universal(2, 2, 0)
    assert st.multiplicity(-1) == 0
    assert st.multiplicity(5) == 0


def test_rank_sums_to_degree():
    for n in (1, 2, 3, 4):
        for k in (1, 2, 3):
            assert splitting_universal(n, k, 0).rank == k ** n
            total = sum(
                m * graded_dim(1, 0)
                for m in splitting_universal(n, k, 2).as_dict().values()
            )
            assert total == k ** n
