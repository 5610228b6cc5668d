"""Exact linear algebra against a Fraction-based Gaussian elimination oracle."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import matrix, prune_lead_by_rescans, rank_bareiss
from pushsplit import exactla
from pushsplit.errors import IntegrityError
from pushsplit.exactla import (
    DEFAULT_PRIMES,
    PRIME_LIMIT,
    ExactMatrix,
    RankResult,
    is_prime,
    rank_mod,
    rank_rational,
    rank_verified,
)
from pushsplit.endomorphism import parse_endomorphism
from pushsplit.polyring import multiplication_matrix, parse_form


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
    m = matrix(rows)
    assert rank_rational(m) == 3
    assert rank_mod(m, DEFAULT_PRIMES[0]) == 3


def test_proportional_rows_rank_one():
    m = matrix([[1, 2], [2, 4]])
    assert rank_rational(m) == 1
    assert rank_mod(m, DEFAULT_PRIMES[0]) == 1


def test_empty_matrix_rank_zero():
    m = matrix([], cols=5)
    assert m.rows == 0 and m.cols == 5
    assert rank_rational(m) == 0
    assert rank_mod(m, DEFAULT_PRIMES[0]) == 0


def test_modular_rank_can_undercount():
    p = DEFAULT_PRIMES[0]
    m = matrix([[1, 1], [1, 1 + p]])
    assert rank_mod(m, p) == 1
    assert rank_rational(m) == 2
    assert rank_mod(m, DEFAULT_PRIMES[1]) == 2


P, Q = DEFAULT_PRIMES


@pytest.mark.parametrize("rows, primes, exact, expected", [
    # a full rank at the first prime is the rank, even with exact set
    ([[2, 0], [0, 3]], DEFAULT_PRIMES, True, RankResult(((P, 2),))),
    # a full rank at a later prime ends the modular passes there
    ([[1, 1], [1, 1 + P]], DEFAULT_PRIMES, False,
     RankResult(((P, 1), (Q, 2)))),
    # primes agreeing below full rank need no rational pass
    ([[1, 2], [2, 4]], DEFAULT_PRIMES, False,
     RankResult(((P, 1), (Q, 1)))),
    # primes disagreeing below full rank escalate
    ([[1, 1, 0], [1, 1 + P, 0], [0, 0, 0]], DEFAULT_PRIMES, False,
     RankResult(((P, 1), (Q, 2)), 2)),
    # exact escalates below full rank, after the modular passes
    ([[1, 2], [2, 4]], DEFAULT_PRIMES, True,
     RankResult(((P, 1), (Q, 1)), 1)),
    ([[1]], (), False, ValueError),
    ([[Fraction(1, 2)]], DEFAULT_PRIMES, False, ValueError),
    # the bound is full rank, min(rows, cols), on tall and wide matrices:
    # reached at the first prime it is the rank, even with exact
    ([[1, 2], [2, 4], [0, 1]], DEFAULT_PRIMES, False, RankResult(((P, 2),))),
    ([[1, 2, 0], [0, 1, 5]], DEFAULT_PRIMES, True, RankResult(((P, 2),))),
    # reached at a later prime it ends the passes there, unescalated
    ([[1, 1, 0], [1, 1 + P, 0]], DEFAULT_PRIMES, False,
     RankResult(((P, 1), (Q, 2)))),
    # below the bound the policy is the one for square matrices
    ([[1, 2, 0], [2, 4, 0]], DEFAULT_PRIMES, False,
     RankResult(((P, 1), (Q, 1)))),
    ([[1, 2], [2, 4], [0, 0]], DEFAULT_PRIMES, True,
     RankResult(((P, 1), (Q, 1)), 1)),
    ([[1, 1, 0], [1, 1 + P, 0], [0, 0, 0], [0, 0, 0]], DEFAULT_PRIMES, False,
     RankResult(((P, 1), (Q, 2)), 2)),
], ids=["full-at-first-prime", "full-at-second-prime", "agree-below-full",
        "disagree-escalates", "exact-escalates", "no-primes",
        "fraction-entry", "bound-at-first-prime", "bound-at-first-prime-exact",
        "bound-at-second-prime", "agree-below-bound", "exact-below-bound",
        "disagree-below-bound"])
def test_rank_verified_policy(rows, primes, exact, expected):
    if expected is ValueError:
        with pytest.raises(ValueError):
            rank_verified(matrix(rows), primes, exact)
        return
    result = rank_verified(matrix(rows), primes, exact)
    assert result == expected
    assert result.value == oracle_rank(rows)


@pytest.mark.parametrize("rows", [[[1, 2], [2, 4]], [[2, 0], [0, 3]]],
                         ids=["below-full", "full"])
def test_rank_verified_refuses_a_repeated_prime(rows):
    # a second rank modulo the same prime would pass for agreement, so the
    # list is refused before any rank, whatever the matrix
    for primes in ((101, 101), (P, Q, P)):
        with pytest.raises(ValueError, match="repeated prime"):
            rank_verified(matrix(rows), primes)


def test_random_integer_matrices_match_oracle():
    rng = random.Random(20260825)
    for _ in range(40):
        nrows = rng.randrange(1, 7)
        ncols = rng.randrange(1, 7)
        rows = [[rng.randrange(-5, 6) for _ in range(ncols)] for _ in range(nrows)]
        m = matrix(rows)
        expected = oracle_rank(rows)
        assert rank_rational(m) == expected
        for p in DEFAULT_PRIMES:
            assert rank_mod(m, p) <= expected


def test_rank_invariant_under_row_permutation():
    rng = random.Random(99)
    rows = [[rng.randrange(-3, 4) for _ in range(5)] for _ in range(5)]
    base = rank_rational(matrix(rows))
    for _ in range(5):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rank_rational(matrix(shuffled)) == base


def test_transpose_preserves_rank():
    rng = random.Random(3)
    rows = [[rng.randrange(-3, 4) for _ in range(6)] for _ in range(4)]
    columns = [list(col) for col in zip(*rows)]
    assert rank_rational(matrix(rows)) == rank_rational(matrix(columns))


def test_rank_mod_requires_prime():
    m = matrix([[1]])
    with pytest.raises(ValueError):
        rank_mod(m, 10)


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
    m = matrix(rows)
    for p in primes:
        assert rank_mod(m, p) == reference_rank_mod(rows, p), p


@pytest.mark.parametrize("shape", [(40, 230), (150, 140), (90, 90)])
@pytest.mark.parametrize("density", [1.0, 0.03])
def test_rank_mod_matches_reference_across_panels(shape, density):
    rng = random.Random(f"{shape}:{density}")
    rows = random_rows(rng, *shape, density, -9, 10)
    primes = DEFAULT_PRIMES + (2, 3, TOP_PRIME)
    assert_rank_matches_reference(rows, primes)
    # singleton pruning shrinks the sparse cases to a few rows or nothing
    # before the panel kernel runs, so the kernel is also run on them whole
    for p in primes:
        width = min(64, ((1 << 53) - p) // (p - 1) ** 2)
        a = (np.array(rows, dtype=np.int64) % p).astype(np.int32)
        assert exactla._rank_panels(a, p, width)[0] == reference_rank_mod(rows, p)


def test_rank_mod_without_a_lead_replays_nothing(monkeypatch):
    # a matrix no wider than it is tall has no lead column: the whole
    # matrix is eliminated at once, and no logged row operation is
    # replayed onto it
    replayed = []
    monkeypatch.setattr(exactla, "_replay", lambda *args: replayed.append(args))
    for nrows, ncols in ((40, 30), (30, 30)):
        rows = random_rows(random.Random(5), nrows, ncols, 0.5, -5, 6)
        assert rank_mod(matrix(rows), 101) == \
            reference_rank_mod(rows, 101), (nrows, ncols)
    assert replayed == []


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
    m = matrix(rows)
    assert rank_mod(m, DEFAULT_PRIMES[0]) <= 60
    assert_rank_matches_reference(rows, DEFAULT_PRIMES + (7, TOP_PRIME))


def test_rank_mod_with_largest_residues():
    for p in (TOP_PRIME, TOP_PRIME_WIDE_PANEL):
        rows = [[p - 1] * 150 for _ in range(90)]
        assert rank_mod(matrix(rows), p) == 1
        rng = random.Random(p)
        rows = [[rng.choice((p - 2, p - 1)) for _ in range(150)]
                for _ in range(90)]
        assert_rank_matches_reference(rows, (p,))


def test_rank_mod_refuses_primes_at_the_limit():
    p = PRIME_LIMIT
    while not is_prime(p):
        p += 1
    with pytest.raises(ValueError, match="2\\*\\*26"):
        rank_mod(matrix([[1]]), p)


def test_rank_mod_reduces_huge_integers():
    big = 10 ** 30
    p = DEFAULT_PRIMES[0]
    m = matrix([[big, 1], [big * p, 2]])
    assert rank_mod(m, p) == reference_rank_mod([[big, 1], [big * p, 2]], p)
    assert rank_rational(m) == 2


def test_default_primes_are_prime():
    for p in DEFAULT_PRIMES:
        assert is_prime(p)
    assert not is_prime(1)
    assert not is_prime(1048575)
    assert is_prime(2) and is_prime(3)
    carmichael = 561
    assert not is_prime(carmichael)


# ---------------------------------------------------------------------------
# singleton pruning ahead of the dense kernels


def bidiagonal(rng, n, ncols, values):
    """n x ncols, nonzero on the diagonal and the one above it."""
    return [[rng.choice(values) if j in (i, i + 1) else 0 for j in range(ncols)]
            for i in range(n)]


def triangular(rng, n, values):
    """Dense upper triangular with rows and columns shuffled."""
    rows = [[rng.choice(values) if j >= i else 0 for j in range(n)]
            for i in range(n)]
    rng.shuffle(rows)
    order = list(range(n))
    rng.shuffle(order)
    return [[row[j] for j in order] for row in rows]


def with_fringe(rng, core, values):
    """``core`` bordered by a bidiagonal block joined to its last column."""
    c = len(core[0])
    tail = bidiagonal(rng, 12, 13, values)
    rows = [row + [0] * 12 for row in core]
    rows += [[0] * (c - 1) + row for row in tail]
    return rows


def socle_matrix(forms):
    """The finiteness test matrix of a map P^3 -> P^3 of degree 3: from
    degree 6 to the socle degree (n+1)(k-1)+1 = 9."""
    return multiplication_matrix([parse_form(f, 4) for f in forms], 6)


# Triangular perturbations y_i^3 + g_i, each term of g_i holding some y_j
# with j > i, are finite; without y0^3, every form vanishes at e0.
SPARSE_FINITE = ("y0^3 - 2*y0*y1*y3 + 3*y2^3", "y1^3 + y1^2*y2 - y3^3",
                 "y2^3 + 2*y0*y3^2", "y3^3")
SPARSE_NOT_FINITE = ("y0^2*y1 - 2*y0*y1*y3 + 3*y2^3",) + SPARSE_FINITE[1:]

# Values 2, 3, 4 and 6 vanish modulo 2 or 3 and can leave a single
# nonzero in a line that has several over Z.
PRUNE_VALUES = (-3, -1, 1, 2, 3, 4, 6)


def pruning_cases():
    rng = random.Random(5)
    dense = random_rows(rng, 20, 25, 1.0, 1, 6)
    return {
        "bidiagonal-square": bidiagonal(rng, 40, 40, PRUNE_VALUES),
        "bidiagonal-wide": bidiagonal(rng, 40, 41, PRUNE_VALUES),
        "triangular": triangular(rng, 30, PRUNE_VALUES),
        "sparse-mixed": random_rows(rng, 30, 45, 0.08, -6, 7),
        "no-singleton": dense,
        "core-with-fringe": with_fringe(rng, dense, (-2, -1, 1, 3, 5)),
        "socle-finite": socle_matrix(SPARSE_FINITE),
        "socle-not-finite": socle_matrix(SPARSE_NOT_FINITE),
    }


def as_rows(case):
    if isinstance(case, ExactMatrix):
        flat = case.entries
        return [list(flat[r * case.cols:(r + 1) * case.cols])
                for r in range(case.rows)]
    return case


PRUNING_CASES = pruning_cases()


@pytest.mark.parametrize("name", PRUNING_CASES)
def test_pruned_rank_mod_matches_reference(name):
    rows = as_rows(PRUNING_CASES[name])
    assert_rank_matches_reference(rows, (2, 3, 5) + DEFAULT_PRIMES)


@pytest.mark.parametrize("name", PRUNING_CASES)
def test_pruned_rank_rational_matches_bareiss(name):
    rows = as_rows(PRUNING_CASES[name])
    expected = rank_bareiss([row[:] for row in rows])
    assert rank_rational(matrix(rows)) == expected


def prune(m):
    return exactla._prune_singletons(m.row_index, m.col_index, m.values,
                                     m.rows, m.cols)


def test_prune_singletons_removes_only_singleton_lines():
    rng = random.Random(8)
    # nonzero over Z: the bidiagonal and triangular cases vanish entirely
    for rows in (bidiagonal(rng, 40, 40, (1, -2)), bidiagonal(rng, 40, 41, (3,)),
                 triangular(rng, 30, (1, 5))):
        count, left, *_ = prune(matrix(rows))
        assert (count, left.size) == (min(len(rows), len(rows[0])), 0)
    dense = random_rows(rng, 20, 25, 1.0, 1, 6)
    count, r, c, v, n, ncols, _ = prune(matrix(dense))
    assert (count, n, ncols, v.size) == (0, 20, 25, 500)
    # the fringe peels off one row a pass, from its far end; the core stays
    count, r, c, v, n, ncols, _ = prune(
        matrix(with_fringe(rng, dense, (1,))))
    assert (count, n, ncols) == (12, 20, 25)
    assert sorted(zip(r.tolist(), c.tolist(), v.tolist())) == sorted(
        (i, j, dense[i][j]) for i in range(20) for j in range(25))
    # shuffled, the core's lines are renumbered in their relative order
    fringed = with_fringe(rng, dense, (1,))
    row_order, col_order = rng.sample(range(32), 32), rng.sample(range(37), 37)
    shuffled = [[fringed[i][j] for j in col_order] for i in row_order]
    core_rows = [i for i, original in enumerate(row_order) if original < 20]
    core_cols = [j for j, original in enumerate(col_order) if original < 25]
    count, r, c, v, n, ncols, _ = prune(matrix(shuffled))
    assert (count, n, ncols) == (12, 20, 25)
    assert sorted(zip(r.tolist(), c.tolist(), v.tolist())) == sorted(
        (a, b, shuffled[i][j]) for a, i in enumerate(core_rows)
        for b, j in enumerate(core_cols))


def test_pruned_socle_matrices_collapse():
    # 220 x 336; the ranks are Bareiss's (see the test above)
    for forms, rank_ in ((SPARSE_FINITE, 220), (SPARSE_NOT_FINITE, 211)):
        m = socle_matrix(forms)
        count, left, *_ = prune(m)
        assert (m.rows, m.cols, count, left.size) == (220, 336, rank_, 0)


def test_dense_nonfinite_socle_matrix_is_not_pruned():
    with open("tests/fixtures/dense33_nonfinite.endo") as fixture:
        e = parse_endomorphism(fixture.read())
    m = multiplication_matrix(e.forms, 6)
    count, left, *_ = prune(m)
    assert (m.rows, m.cols, count, left.size) == (220, 336, 0, m.values.size)


# ---------------------------------------------------------------------------
# rank_rational: kernel certificate against fraction-free elimination


def integer_rows(rows):
    """Each row scaled by its denominators' lcm; the rank is unchanged."""
    scaled = []
    for row in rows:
        scale = math.lcm(*(Fraction(x).denominator for x in row))
        scaled.append([int(x * scale) for x in row])
    return scaled


@st.composite
def rank_deficient_rows(draw):
    """Combinations of a few basis rows, with zero rows and columns and
    Fraction rows mixed in; entries up to 3 or beyond int64."""
    nrows = draw(st.integers(1, 7))
    ncols = draw(st.integers(1, 7))
    bound = draw(st.sampled_from((3, 2 ** 70)))
    line = st.lists(st.integers(-bound, bound), min_size=ncols, max_size=ncols)
    basis = draw(st.lists(line, max_size=min(nrows, ncols)))
    rows = []
    for _ in range(nrows):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(basis),
                               max_size=len(basis)))
        rows.append([sum(a * b[j] for a, b in zip(coeffs, basis))
                     for j in range(ncols)])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, nrows)), [0] * ncols)
    if draw(st.booleans()):
        j = draw(st.integers(0, ncols))
        rows = [row[:j] + [0] + row[j:] for row in rows]
    denominators = draw(st.lists(st.integers(1, 6), min_size=len(rows),
                                 max_size=len(rows)))
    return [[Fraction(x, d) for x in row] if d > 1 else row
            for row, d in zip(rows, denominators)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rank_deficient_rows())
def test_certified_rank_equals_bareiss(rows):
    rows = integer_rows(rows)
    m = matrix(rows)
    expected = rank_bareiss(rows)
    assert rank_rational(m) == expected


@st.composite
def lead_cases(draw):
    """A rank-deficient product of two random factors, with as many rows
    as columns or fewer or more, behind ``front`` columns that singleton
    pruning removes together with their rows; returns (rows, front)."""
    nrows = draw(st.integers(1, 14))
    ncols = draw(st.integers(1, 14))
    inner = draw(st.integers(0, max(0, min(nrows, ncols) - 1)))
    entry = st.integers(-3, 3)

    def block(height, width):
        return draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                             min_size=height, max_size=height))

    left, right = block(nrows, inner), block(inner, ncols)
    product = [[sum(x * y[j] for x, y in zip(row, right))
                for j in range(ncols)] for row in left]
    front = draw(st.integers(0, 3))
    # each front row holds the only entry of its front column
    rows = [[int(i == j) for j in range(front)] + tail
            for i, tail in enumerate(block(front, ncols))]
    return rows + [[0] * front + row for row in product], front


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(lead_cases())
def test_lead_columns_change_no_rank(case):
    rows, front = case
    m = matrix(rows)
    # pruning removes the first `front` columns entirely
    assert exactla._prune_singletons(m.row_index, m.col_index, m.values,
                                     m.rows, m.cols, front)[-1] == 0
    # a wide matrix's first `rows` columns lead; every rotation of the
    # columns, and their reversal, leaves the rank as it is, also those
    # that put the deficient product's columns first, in the lead
    orders = [list(range(s, m.cols)) + list(range(s)) for s in range(m.cols)]
    orders.append(list(range(m.cols))[::-1])
    for p in (3, DEFAULT_PRIMES[0], TOP_PRIME):
        expected = reference_rank_mod(rows, p)
        assert [rank_mod(matrix([[row[j] for j in order] for row in rows]), p)
                for order in orders] == [expected] * len(orders), p
    # unpruned, the lead columns and the replay run panel by panel, at
    # every split
    for p, width in ((3, 2), (3, 5), (DEFAULT_PRIMES[0], 2),
                     (DEFAULT_PRIMES[0], 5), (TOP_PRIME, 2)):
        expected = reference_rank_mod(rows, p)
        for lead in range(m.cols + 1):
            a = (np.array(rows, dtype=np.int64) % p).astype(np.int32)
            assert exactla._rank_panels(a[:, :lead], p, width,
                                        rest=lambda: a[:, lead:])[0] == \
                expected, (p, width, lead)


def test_prune_lead_logs_the_pivots_of_a_rescan():
    # per-row counts give the same pivots, log and leftover entries, in
    # the same order, as rescanning every entry in each round; sparse
    # random lead blocks take several rounds
    rng = np.random.default_rng(20261020)
    rounds = []
    for _ in range(40):
        n, c = rng.integers(2, 60, size=2)
        lead = int(rng.integers(1, c + 1))
        mask = rng.random((n, c)) < rng.uniform(0.03, 0.3)
        rows, cols = np.nonzero(mask)
        order = rng.permutation(rows.size)
        rows, cols = rows[order], cols[order]
        values = rng.integers(1, 101, size=rows.size)
        got = exactla._prune_lead(rows, cols, values, int(n), lead)
        want = prune_lead_by_rescans(rows, cols, values, int(n), lead)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        assert len(got[2]) == len(want[2])
        for step, expected in zip(got[2], want[2]):
            assert all(np.array_equal(a, b) for a, b in zip(step, expected))
        assert all(np.array_equal(a, b) for a, b in zip(got[3:], want[3:]))
        rounds.append(len(want[2]))
    assert max(rounds) >= 4


FIRST_PRIME, SECOND_PRIME = itertools.islice(exactla._certificate_primes(), 2)


def bad_prime_matrices(p):
    """Rank 2 over Q; modulo p the rank is 0, then 1, then 2 with the
    later pivot set {0, 2} instead of {0, 1}.  No row or column holds a
    single nonzero, over Z or (for the last two) modulo p, so singleton
    pruning leaves them whole and the certificate meets the bad prime."""
    return ([[p, 2 * p, 3 * p], [2 * p, 4 * p, 6 * p], [p, 0, p]],
            [[1, 1], [1, 1 + p]],
            [[1, 1, 1], [1, 1 + p, 1 + 2 * p], [0, 1, 2]])


@pytest.mark.parametrize("bad", [FIRST_PRIME, SECOND_PRIME])
def test_certificate_survives_a_bad_prime(monkeypatch, bad):
    assert [rank_mod(matrix(rows), bad)
            for rows in bad_prime_matrices(bad)] == [0, 1, 2]
    primes = []
    kernel = exactla._rank_panels
    monkeypatch.setattr(exactla, "_rank_panels", lambda a, p, *args:
                        primes.append(p) or kernel(a, p, *args))
    for rows in bad_prime_matrices(bad):
        primes.clear()
        assert rank_rational(matrix(rows)) == 2
        assert primes[-1] != bad
    # the last matrix has the kernel vector (1/bad, -1/bad, 1), which takes
    # more primes than two to reconstruct, so the bad prime is met
    assert bad in primes


def test_exhausted_prime_budget_is_an_integrity_error(monkeypatch):
    monkeypatch.setattr(exactla, "_prime_budget", lambda *args: 1)
    for rows in bad_prime_matrices(FIRST_PRIME):
        with pytest.raises(IntegrityError, match="no rank certificate"):
            rank_rational(matrix(rows))
    # the message names the matrix left after pruning a singleton border
    rows = [row + [0] for row in bad_prime_matrices(FIRST_PRIME)[2]]
    bordered = matrix(rows + [[0, 0, 0, 5]])
    with pytest.raises(IntegrityError,
                       match="3x3 matrix within the prime budget of 1"):
        rank_rational(bordered)
    monkeypatch.undo()
    assert rank_rational(bordered) == 3


def reference_left_kernel(rows, p):
    """Pivots of the reduced echelon form of rows^T mod p, by Python loops,
    and the pivot coordinates of the left kernel vectors of ``rows``."""
    work = [[row[j] % p for row in rows] for j in range(len(rows[0]))]
    pivots = []
    for col in range(len(rows)):
        r = len(pivots)
        k = next((i for i in range(r, len(work)) if work[i][col]), None)
        if k is None:
            continue
        work[r], work[k] = work[k], work[r]
        inv = pow(work[r][col], p - 2, p)
        work[r] = [x * inv % p for x in work[r]]
        for i, row in enumerate(work):
            if i != r and row[col]:
                work[i] = [(x - row[col] * y) % p for x, y in zip(row, work[r])]
        pivots.append(col)
    free = [j for j in range(len(rows)) if j not in pivots]
    return tuple(pivots), [[-work[i][f] % p for f in free]
                           for i in range(len(pivots))]


def panel_cases(rng):
    """Matrices B whose columns span several 64-wide panels, as dense rows.
    In ``structured``, columns 64..126 are combinations of columns 0..63,
    so they hold no pivot, and column 127 is the last of its panel and the
    only one there that can hold a pivot."""
    def combination(columns):
        coeffs = [rng.randrange(-2, 3) for _ in columns]
        return [sum(a * b for a, b in zip(coeffs, row)) for row in zip(*columns)]

    dense = [[rng.randrange(-9, 10) for _ in range(100)] for _ in range(66)]
    columns = [[rng.randrange(-9, 10) for _ in range(70)] for _ in range(64)]
    columns += [combination(columns[:64]) for _ in range(63)]
    columns += [[rng.randrange(-9, 10) for _ in range(70)] for _ in range(9)]
    return {
        "dense-rank-deficient": combined_rows(rng, dense, 4),
        "sparse": random_rows(rng, 90, 160, 0.04, -5, 6),
        "structured": [list(row) for row in zip(*columns)],
    }


PANEL_CASES = panel_cases(random.Random(16))


@pytest.mark.parametrize("name", PANEL_CASES)
def test_both_panel_modes_match_the_references(name):
    """B is A^T: rank mode against the plain rank of B, reduced mode
    against the reduced echelon form of B, both mod p."""
    b_rows = PANEL_CASES[name]
    a_rows = [list(col) for col in zip(*b_rows)]
    m = matrix(b_rows)
    for p in (2, 3, 7, DEFAULT_PRIMES[0], FIRST_PRIME, TOP_PRIME):
        width = exactla._panel_width(p)
        a = (np.array(b_rows, dtype=np.int64) % p).astype(np.int32)
        r, _ = exactla._rank_panels(a.copy(), p, width)
        assert r == reference_rank_mod(b_rows, p), p
        r, found = exactla._rank_panels(a, p, width, reduced=True)
        pivots, kernel = reference_left_kernel(a_rows, p)
        free = [j for j in range(m.cols) if j not in pivots]
        assert (r, found) == (len(pivots), pivots), p
        assert (-a[:r, free] % p).tolist() == kernel, p
        assert not a[r:].any()


def test_certificate_primes_give_64_wide_panels():
    # the largest prime whose panels are 64 wide
    assert FIRST_PRIME == TOP_PRIME_WIDE_PANEL == 11863279
    above = next(q for q in itertools.count(FIRST_PRIME + 1) if is_prime(q))
    assert 64 * (above - 1) ** 2 + above > 2 ** 53
    # the primes are above 2**23, worth 23 bits each: [[2**11]] has
    # log2 H**2 = 22, so int(22 + 1) // 23 + 1 = 2 primes (a budget of 4),
    # where 25 bits a prime would give 1 (a budget of 2)
    for value, budget in ((1, 2), (2 ** 10, 2), (2 ** 11, 4), (2 ** 23, 6),
                          (3 ** 200, 56)):
        m = matrix([[value]])
        assert exactla._prime_budget(m.row_index, m.col_index, m.values,
                                     1, 1) == budget, value
    primes = list(itertools.islice(exactla._certificate_primes(), budget))
    assert primes == sorted(primes, reverse=True)
    assert all(is_prime(p) and p > 2 ** 23 for p in primes)
    assert all(64 * (p - 1) ** 2 + p <= 2 ** 53 for p in primes)
