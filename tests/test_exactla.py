"""Exact linear algebra against a Fraction-based Gaussian elimination oracle."""

import math
import random
from fractions import Fraction

import pytest

from pushsplit.exactla import (
    DEFAULT_PRIMES,
    PRIME_LIMIT,
    ExactMatrix,
    binomial,
    is_prime,
    rank,
    rank_mod,
    rank_rational,
    rank_verified,
)


def oracle_rank(rows):
    """Row-reduce over Q with Fractions, no pivoting tricks."""
    work = [[Fraction(x) for x in row] for row in rows]
    if not work:
        return 0
    cols = len(work[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return r


def test_identity_rank():
    rows = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    m = ExactMatrix.from_rows(rows)
    assert rank_rational(m) == 3
    assert rank_mod(m, DEFAULT_PRIMES[0]) == 3


def test_proportional_rows_rank_one():
    m = ExactMatrix.from_rows([[1, 2], [2, 4]])
    assert rank_rational(m) == 1
    assert rank_mod(m, DEFAULT_PRIMES[0]) == 1


def test_empty_matrix_rank_zero():
    m = ExactMatrix.from_rows([], cols=5)
    assert m.rows == 0 and m.cols == 5
    assert rank_rational(m) == 0
    assert rank_mod(m, DEFAULT_PRIMES[0]) == 0


def test_modular_rank_can_undercount():
    p = DEFAULT_PRIMES[0]
    m = ExactMatrix.from_rows([[1, 1], [1, 1 + p]])
    assert rank_mod(m, p) == 1
    assert rank_rational(m) == 2
    assert rank_mod(m, DEFAULT_PRIMES[1]) == 2


def test_rank_verified_escalates_on_disagreement():
    p = DEFAULT_PRIMES[0]
    m = ExactMatrix.from_rows([[1, 1], [1, 1 + p]])
    result = rank_verified(m, primes=DEFAULT_PRIMES)
    assert result.value == 2
    assert result.rational == 2
    assert dict(result.modular)[p] == 1


def test_rank_verified_agreement_skips_rational():
    m = ExactMatrix.from_rows([[2, 0], [0, 3]])
    result = rank_verified(m, primes=DEFAULT_PRIMES)
    assert result.value == 2
    assert result.rational is None
    assert len(result.modular) == 2


def test_random_integer_matrices_match_oracle():
    rng = random.Random(20260825)
    for _ in range(40):
        nrows = rng.randrange(1, 7)
        ncols = rng.randrange(1, 7)
        rows = [[rng.randrange(-5, 6) for _ in range(ncols)] for _ in range(nrows)]
        m = ExactMatrix.from_rows(rows)
        expected = oracle_rank(rows)
        assert rank_rational(m) == expected
        for p in DEFAULT_PRIMES:
            assert rank_mod(m, p) <= expected


def test_rational_entries_match_oracle():
    rng = random.Random(7)
    for _ in range(20):
        rows = [
            [Fraction(rng.randrange(-4, 5), rng.randrange(1, 5)) for _ in range(4)]
            for _ in range(4)
        ]
        m = ExactMatrix.from_rows(rows)
        assert rank_rational(m) == oracle_rank(rows)


def test_rank_invariant_under_row_permutation():
    rng = random.Random(99)
    rows = [[rng.randrange(-3, 4) for _ in range(5)] for _ in range(5)]
    base = rank_rational(ExactMatrix.from_rows(rows))
    for _ in range(5):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rank_rational(ExactMatrix.from_rows(shuffled)) == base


def test_transpose_preserves_rank():
    rng = random.Random(3)
    rows = [[rng.randrange(-3, 4) for _ in range(6)] for _ in range(4)]
    columns = [list(col) for col in zip(*rows)]
    assert rank_rational(ExactMatrix.from_rows(rows)) == \
        rank_rational(ExactMatrix.from_rows(columns))


def test_from_coo_accumulates_duplicates():
    m = ExactMatrix.from_coo(2, 2, [(0, 0, 1), (0, 0, 2), (1, 1, 5)])
    assert m.entries == (3, 0, 0, 5)


def test_rank_mod_requires_prime():
    m = ExactMatrix.from_rows([[1]])
    with pytest.raises(ValueError):
        rank_mod(m, 10)


def test_rank_dispatch_uses_modulus():
    p = DEFAULT_PRIMES[0]
    m = ExactMatrix.from_rows([[p, 0], [0, 1]], modulus=p)
    assert rank(m) == 1


def test_rank_verified_rejects_fraction_entries():
    m = ExactMatrix.from_rows([[Fraction(1, 2)]])
    with pytest.raises(ValueError):
        rank_verified(m, primes=DEFAULT_PRIMES)
    assert rank_rational(m) == 1


def reference_rank_mod(rows, p):
    """Plain Gaussian elimination over Z/p on Python lists."""
    work = [[x % p for x in row] for row in rows]
    cols = len(work[0]) if work else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][c], p - 2, p)
        top = [x * inv % p for x in work[r]]
        for i in range(r + 1, len(work)):
            f = work[i][c]
            if f:
                work[i] = [(x - f * y) % p for x, y in zip(work[i], top)]
        r += 1
        if r == len(work):
            break
    return r


def largest_prime_below(bound):
    p = bound - 1
    while not is_prime(p):
        p -= 1
    return p


# The largest prime accepted at all (panels 2 wide) and the largest one
# whose panels are 64 wide: 64*(p-1)**2 + p <= 2**53 just holds.
TOP_PRIME = largest_prime_below(PRIME_LIMIT)
TOP_PRIME_WIDE_PANEL = largest_prime_below(math.isqrt(2**53 // 64) + 1)


def random_rows(rng, nrows, ncols, density, lo, hi):
    return [[rng.randrange(lo, hi) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]


def combined_rows(rng, rows, extra):
    """``extra`` more rows, each a random combination of three of ``rows``."""
    out = list(rows)
    for _ in range(extra):
        picks = rng.sample(rows, 3)
        coeffs = [rng.randrange(-3, 4) for _ in picks]
        out.append([sum(c * row[j] for c, row in zip(coeffs, picks))
                    for j in range(len(rows[0]))])
    rng.shuffle(out)
    return out


def assert_rank_matches_reference(rows, primes):
    m = ExactMatrix.from_rows(rows)
    for p in primes:
        assert rank_mod(m, p) == reference_rank_mod(rows, p), p


@pytest.mark.parametrize("shape", [(40, 230), (150, 140), (90, 90)])
@pytest.mark.parametrize("density", [1.0, 0.03])
def test_rank_mod_matches_reference_across_panels(shape, density):
    rng = random.Random(f"{shape}:{density}")
    rows = random_rows(rng, *shape, density, -9, 10)
    assert_rank_matches_reference(rows, DEFAULT_PRIMES + (2, 3, TOP_PRIME))


def test_rank_mod_with_zero_columns():
    rng = random.Random(11)
    rows = random_rows(rng, 70, 200, 0.5, -5, 6)
    for row in rows:
        for j in list(range(60, 75)) + list(range(130, 200, 3)):
            row[j] = 0
    assert_rank_matches_reference(rows, DEFAULT_PRIMES + (5, TOP_PRIME))


@pytest.mark.parametrize("density", [1.0, 0.05])
def test_rank_mod_of_rank_deficient_matrix(density):
    rng = random.Random(23)
    base = random_rows(rng, 60, 190, density, -4, 5)
    rows = combined_rows(rng, base, 50)
    m = ExactMatrix.from_rows(rows)
    assert rank_mod(m, DEFAULT_PRIMES[0]) <= 60
    assert_rank_matches_reference(rows, DEFAULT_PRIMES + (7, TOP_PRIME))


def test_rank_mod_with_largest_residues():
    for p in (TOP_PRIME, TOP_PRIME_WIDE_PANEL):
        rows = [[p - 1] * 150 for _ in range(90)]
        assert rank_mod(ExactMatrix.from_rows(rows), p) == 1
        rng = random.Random(p)
        rows = [[rng.choice((p - 2, p - 1)) for _ in range(150)]
                for _ in range(90)]
        assert_rank_matches_reference(rows, (p,))


def test_rank_mod_refuses_primes_at_the_limit():
    p = PRIME_LIMIT
    while not is_prime(p):
        p += 1
    with pytest.raises(ValueError, match="2\\*\\*26"):
        rank_mod(ExactMatrix.from_rows([[1]]), p)


def test_rank_mod_reduces_huge_integers():
    big = 10 ** 30
    p = DEFAULT_PRIMES[0]
    m = ExactMatrix.from_rows([[big, 1], [big * p, 2]])
    assert rank_mod(m, p) == reference_rank_mod([[big, 1], [big * p, 2]], p)
    assert rank_rational(m) == 2


def test_binomial_values():
    assert binomial(7, 4) == 35
    assert binomial(4, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(-1, 0) == 0


def test_default_primes_are_prime():
    for p in DEFAULT_PRIMES:
        assert is_prime(p)
    assert not is_prime(1)
    assert not is_prime(1048575)
    assert is_prime(2) and is_prime(3)
    carmichael = 561
    assert not is_prime(carmichael)
