"""Exact sparse integer matrices and the one rank policy of the package.

A matrix keeps its nonzero entries as coordinate (COO) triples: numpy
arrays of row and column indices and an array of integer values, each
position at most once.  Values are ``int64`` when every one fits and
Python ``int`` objects otherwise; anything else is refused at
construction.  The dense row-major ``entries`` tuple is built only on
request.

Both ranks first prune singletons (structured Gaussian elimination;
LaMacchia and Odlyzko, 1990): a row or column holding a single nonzero
gives one pivot whose elimination touches nothing else, so it is removed
and counted, and this repeats until no such line is left.  It is exact
over every field and does no arithmetic.  The socle matrices of sparse
perturbed power maps vanish entirely or nearly so; dense ones are left
whole or almost whole.

Rank over Z/p reduces every value modulo p (as a Python int when it does
not fit int64), drops the zero residues, prunes, scatters what is left
into one dense array and eliminates it in column panels: each panel is
reduced by a plain row-reduction loop, and the columns to its right are
then updated by one float64 matrix product whose accumulation is exact,
so reduction modulo p happens once per panel (the delayed reduction of
FFLAS-FFPACK; Dumas, Giorgi and Pernet, 2008).  The modular rank is a
lower bound for the rational rank, with equality for all primes outside
a finite bad set.

Rank over Q is certified rather than eliminated: after pruning,
left-kernel vectors of what is left, computed modulo a few primes, are
combined by CRT, rationally reconstructed (Wang 1981) and checked to
annihilate it in integer arithmetic.  The modular rank then bounds the
rank from below, the codimension of the checked vectors' span bounds it
from above, and the two agree.  A bounded number of primes always gives
such a certificate (``_prime_budget``), so there is no other route: a
budget spent without one is a broken proof and raises IntegrityError.

``rank_verified`` decides every rank the package reports: modular ranks
first, stopping at the first that reaches a known upper bound on the
rank over Q (full rank unless the caller knows a lower one), and the
rank over Q when asked for or when the primes disagree.  It returns the
rank together with the ranks it rests on (``RankResult``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError

# Two fixed primes just above 2**20.  A silent rank drop requires the same
# minor to vanish modulo both, which the splitting-level cross-checks would
# additionally have to miss.
DEFAULT_PRIMES = (1048583, 1048589)

# rank_mod accepts primes below this.  Exactness of its float64 updates
# needs (p-1)**2 + p <= 2**53; below 2**26 every panel has width >= 2.
PRIME_LIMIT = 1 << 26

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_INT64 = np.iinfo(np.int64)
_PANEL_CAP = 64
_CHUNK_CELLS = 1 << 20


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def value_array(values) -> np.ndarray:
    """Matrix values as ``int64`` when all fit, else as Python-int objects.

    Raises ValueError on any value that is not an ``int``.
    """
    values = list(values)
    if all(type(v) is int and _INT64.min <= v <= _INT64.max for v in values):
        return np.array(values, dtype=np.int64)
    bad = next((v for v in values if type(v) is not int), None)
    if bad is not None:
        raise ValueError(f"matrix entries must be integers, got {bad!r}")
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


@dataclass(frozen=True, eq=False)
class ExactMatrix:
    """Sparse matrix held as COO triples; see the module docstring.

    ``row_index`` and ``col_index`` are ``int64`` arrays naming each
    stored position once; ``values`` holds the entries there.  Immutable
    after construction.
    """

    rows: int
    cols: int
    row_index: np.ndarray
    col_index: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if not len(self.row_index) == len(self.col_index) == len(self.values):
            raise ValueError("COO arrays differ in length")

    @classmethod
    def from_coo(cls, rows: int, cols: int, triples) -> "ExactMatrix":
        """Build from (row, col, value) triples; repeated positions add.

        Raises ValueError on a position outside the shape or a value
        that is not an ``int``.
        """
        summed: dict[tuple[int, int], int] = {}
        for r, c, v in triples:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"position ({r}, {c}) outside {rows}x{cols}")
            summed[(r, c)] = summed.get((r, c), 0) + v
        kept = [(rc, v) for rc, v in summed.items() if v != 0]
        return cls(rows, cols,
                   np.array([r for (r, _), _ in kept], dtype=np.int64),
                   np.array([c for (_, c), _ in kept], dtype=np.int64),
                   value_array(v for _, v in kept))

    @property
    def entries(self) -> tuple:
        """Dense row-major entries, of length rows*cols, built on each call."""
        flat = [0] * (self.rows * self.cols)
        for r, c, v in zip(self.row_index.tolist(), self.col_index.tolist(),
                           self.values.tolist()):
            flat[r * self.cols + c] = v
        return tuple(flat)


def rank_rational(m: ExactMatrix) -> int:
    """True rank over Q, returned only together with its proof.

    Singleton rows and columns are pruned first (``_prune_singletons``);
    their pivots are nonzero integers, so the rank is their count plus
    the rank over Q of the rest, and the rest's checked kernel vectors
    together with the count are still a proof.  The rest is transposed
    when it has more rows than columns; call the result A, n x c with
    n <= c.  For each prime of ``_certificate_primes`` in turn, the
    reduced echelon form of A^T modulo p gives a rank r and the
    m = n - r left-kernel vectors of A that are 1 at one free coordinate
    and 0 at the others.  Only primes with the largest rank and, among
    those, the lexicographically first pivot set are combined by CRT; a
    better prime restarts the combination.  The combined residues are
    rationally reconstructed, denominators are cleared, and each vector
    y is checked to satisfy y^T A = 0 in integer arithmetic.  When all m
    pass, A has rank n - m: the vectors are independent (look at their
    free coordinates), so rank <= n - m, and the modular rank gives
    rank >= r = n - m.  ``_prime_budget`` primes always give such a proof;
    when they do not, IntegrityError is raised, naming A's shape.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    count, rows, cols, values, n, c = _prune_singletons(
        m.row_index, m.col_index, m.values, m.rows, m.cols)
    if rows.size == 0:
        return count
    if n > c:
        rows, cols, n, c = cols, rows, c, n
    best = None
    budget = _prime_budget(rows, cols, values, n, c)
    for p in itertools.islice(_certificate_primes(), budget):
        pivots, block = _left_kernel_mod(rows, cols, values, n, c, p)
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, residues, modulus = key, block.astype(object), p
        elif key != best:
            continue
        else:
            residues, modulus = _crt(residues, modulus, block, p), modulus * p
        kernel = _lift(residues, modulus, pivots, n)
        if kernel is not None and _annihilates(kernel, rows, cols, values, c):
            return count + n - len(kernel)
    raise IntegrityError(f"no rank certificate for a {n}x{c} matrix "
                         f"within the prime budget of {budget}")


def rank_mod(m: ExactMatrix, p: int) -> int:
    """Rank over Z/p; never more than the rank over Q.

    ``p`` must be a prime below ``PRIME_LIMIT`` (2**26), else ValueError.
    Residues are pruned of zeros and of singleton rows and columns
    (``_prune_singletons``); the rank is the pruned count plus
    the rank of the rest, which alone is scattered into a dense int32
    array.  Its columns are eliminated in panels of width b.  The rows
    touching a panel are row-reduced in int64, tracking each as a
    combination of the panel's pivot rows; one float64 product of those
    combinations with the pivot rows then updates every column right of
    the panel.  Every term of that product is a non-negative integer, so
    it is exact when ``b*(p-1)**2 + p <= 2**53``: b is the largest width
    meeting this bound, capped at 64 (64 for every p below about 1.19e7,
    2 just below 2**26).
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if p >= PRIME_LIMIT:
        raise ValueError(f"modulus {p} is not below the prime limit 2**26")
    if m.rows == 0 or m.cols == 0:
        return 0
    count, rows, cols, residues, n, c = _prune_singletons(
        m.row_index, m.col_index, _residues(m.values, p), m.rows, m.cols)
    if rows.size == 0:
        return count
    a = np.zeros((n, c), dtype=np.int32)
    a[rows, cols] = residues
    width = min(_PANEL_CAP, ((1 << 53) - p) // (p - 1) ** 2)
    return count + _rank_panels(a, p, width)


@dataclass(frozen=True)
class RankResult:
    """A rank over Q and the computed ranks it rests on.

    ``modular`` lists the (prime, rank) pairs in the order computed;
    ``rational`` is the certified rank over Q when it was computed.
    """

    modular: tuple[tuple[int, int], ...]
    rational: int | None = None

    @property
    def value(self) -> int:
        """The rational rank when computed, else the last modular rank:
        one that reached its bound, or the one on which every prime agreed."""
        return self.rational if self.rational is not None else self.modular[-1][1]


def rank_verified(m: ExactMatrix, primes=DEFAULT_PRIMES, exact: bool = False,
                  bound: int | None = None) -> RankResult:
    """The rank of ``m`` over Q, decided by the package's one rank policy.

    ``bound`` is a known upper bound on the rank over Q, by default
    min(rows, cols).  Ranks modulo ``primes`` are computed in turn,
    stopping at the first that reaches ``bound``: a modular rank never
    exceeds the rank over Q, so one that reaches an upper bound is the
    rank.  Below the bound, the certified rank over Q
    (``rank_rational``) decides when ``exact`` is set or the primes
    disagree.  Otherwise the rank on which the primes agree is returned;
    it is too low only if every prime divides every nonzero minor of the
    size of the rank over Q.  Raises ValueError on an empty prime list.
    """
    if not primes:
        raise ValueError("at least one prime required")
    if bound is None:
        bound = min(m.rows, m.cols)
    modular = []
    for p in primes:
        r = rank_mod(m, p)
        modular.append((p, r))
        if r == bound:
            return RankResult(tuple(modular))
    if exact or len({r for _, r in modular}) > 1:
        return RankResult(tuple(modular), rank_rational(m))
    return RankResult(tuple(modular))


# ---------------------------------------------------------------------------
# internals


def _prune_singletons(rows, cols, values, n: int, c: int):
    """Prune the singleton rows and columns of an n x c COO matrix.

    Zero values are dropped first.  Then, until nothing changes, each row
    holding the only nonzero of some column is removed, then each column
    holding the only nonzero of some remaining row.  Each removal is one
    pivot: that nonzero's elimination changes only its own row or column,
    which is then discarded, so rank = count + rank of the rest over any
    field.  Returns ``(count, rows, cols, values, n, c)``, the surviving
    triples renumbered onto the rows and columns that still hold one.
    """
    nonzero = values != 0
    rows, cols, values = rows[nonzero], cols[nonzero], values[nonzero]
    count = 0
    while rows.size:
        alone = np.bincount(cols, minlength=c)[cols] == 1
        rows_out = np.zeros(n, dtype=bool)
        rows_out[rows[alone]] = True
        keep = ~rows_out[rows]
        rows, cols, values = rows[keep], cols[keep], values[keep]
        alone = np.bincount(rows, minlength=n)[rows] == 1
        cols_out = np.zeros(c, dtype=bool)
        cols_out[cols[alone]] = True
        keep = ~cols_out[cols]
        rows, cols, values = rows[keep], cols[keep], values[keep]
        removed = int(rows_out.sum()) + int(cols_out.sum())
        if removed == 0:
            break
        count += removed
    rows_left, rows = np.unique(rows, return_inverse=True)
    cols_left, cols = np.unique(cols, return_inverse=True)
    return count, rows, cols, values, rows_left.size, cols_left.size


def _residues(values: np.ndarray, p: int) -> np.ndarray:
    """``values`` modulo p as ``int64``, Python ints reduced one by one."""
    if values.dtype == object:
        return np.array([v % p for v in values.tolist()], dtype=np.int64)
    return values % p


def _certificate_primes():
    """The primes below PRIME_LIMIT, largest first."""
    q = PRIME_LIMIT - 1
    while q > 2:
        if is_prime(q):
            yield q
        q -= 2


def _prime_budget(rows, cols, values, n: int, c: int) -> int:
    """The number 2K of primes rank_rational tries; they always suffice.

    Every reconstructed entry is a ratio of two minors of A, each at most
    the Hadamard bound H (the product of the norms of A's rows, or of its
    columns).  Reconstruction cannot fail once the combined primes'
    product exceeds 2*H**2, which K primes above 2**25 achieve.  A prime
    whose rank or pivot set differs from the rational ones divides one
    nonzero minor, so fewer than K/2 primes are discarded, and 2K primes
    always yield the certificate.  Each squared norm is bounded by its
    entry count times its largest square.

    The argument needs all 2K primes above 2**25.  ``_certificate_primes``
    yields the 1,894,120 primes between 2**25 and PRIME_LIMIT first, so
    this holds whenever log2 H**2 is below about 23.67 million bits.
    """
    if values.dtype == object:
        logs = np.array([math.log2(max(abs(v), 1)) for v in values.tolist()])
    else:
        logs = np.log2(np.maximum(np.abs(values.astype(np.float64)), 1))
    log_h2 = min(_log_norms2(index, logs, size)
                 for index, size in ((rows, n), (cols, c)))
    return 2 * (int(log_h2 + 1) // 25 + 1)


def _log_norms2(index: np.ndarray, logs: np.ndarray, size: int) -> float:
    """Upper bound on log2 of the product of the squared norms of the lines ``index`` names."""
    counts = np.bincount(index, minlength=size)
    largest = np.zeros(size)
    np.maximum.at(largest, index, logs)
    used = counts > 0
    return float(np.sum(np.log2(counts[used]) + 2 * largest[used]))


def _left_kernel_mod(rows, cols, values, n: int, c: int,
                     p: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Pivot columns of the reduced echelon form of A^T modulo p, and its kernel.

    A is the n x c matrix of the COO arrays.  Returns the pivots and the
    r x m block whose column j holds, at the pivot coordinates, the left
    kernel vector of A that is 1 at the j-th free coordinate and 0 at
    the other free ones.  Residues stay in int64 and reduction is
    delayed: only the column being searched and the pivot row are
    reduced at each step, and the whole array once every
    ``(2**63 - p) // p**2`` pivots, so that no entry, grown by less than
    p**2 per pivot, leaves int64.
    """
    b = np.zeros((c, n), dtype=np.int64)
    b[cols, rows] = _residues(values, p)
    period = ((1 << 63) - p) // (p * p)
    pivots, reduced_at = [], 0
    for j in range(n):
        r = len(pivots)
        if r == c:
            break
        if r - reduced_at == period:
            b[:, j:] %= p
            reduced_at = r
        column = b[:, j] % p
        nz = np.flatnonzero(column[r:])
        if nz.size == 0:
            b[:, j] = column
            continue
        i = r + int(nz[0])
        if i != r:
            b[[r, i], j:] = b[[i, r], j:]
            column[[r, i]] = column[[i, r]]
        pivot_row = b[r, j:] % p * pow(int(column[r]), p - 2, p) % p
        column[r] = 0
        touched = np.flatnonzero(column)
        b[touched, j:] -= column[touched, None] * pivot_row
        b[r, j:] = pivot_row
        pivots.append(j)
    r = len(pivots)
    free = np.setdiff1d(np.arange(n), pivots)
    return tuple(pivots), (-b[:r, free]) % p


def _crt(residues: np.ndarray, modulus: int, block: np.ndarray, p: int) -> np.ndarray:
    """Combine residues mod ``modulus`` (Python ints) with ``block`` mod p."""
    step = (block - (residues % p).astype(np.int64)) % p
    step = step * pow(modulus % p, -1, p) % p
    return residues + modulus * step.astype(object)


def _lift(residues: np.ndarray, modulus: int, pivots, n: int) -> np.ndarray | None:
    """Integer kernel vectors from their residues, or None if reconstruction fails.

    Column j of ``residues`` gives the pivot coordinates of the vector
    whose j-th free coordinate is 1.  Entries are reconstructed as
    fractions with numerator and denominator at most sqrt(modulus/2), one
    after the other, times the denominator found so far (Wang 1981);
    each vector is then scaled by the product of its denominators.
    """
    bound = math.isqrt(modulus // 2)
    free = np.setdiff1d(np.arange(n), pivots)
    kernel = np.zeros((free.size, n), dtype=object)
    for j, f in enumerate(free.tolist()):
        den, nums = 1, []
        for u in residues[:, j].tolist():
            u = u * den % modulus
            if u > bound:
                if modulus - u <= bound:
                    u -= modulus
                else:
                    fraction = _reconstruct(u, modulus, bound)
                    if fraction is None:
                        return None
                    u, extra = fraction
                    nums = [x * extra for x in nums]
                    den *= extra
            nums.append(u)
        kernel[j, list(pivots)] = nums
        kernel[j, f] = den
    return kernel


def _reconstruct(u: int, modulus: int, bound: int) -> tuple[int, int] | None:
    """(a, b) with a = b*u mod ``modulus``, |a| <= bound and 0 < b <= bound."""
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _annihilates(kernel: np.ndarray, rows, cols, values, c: int) -> bool:
    """Whether y^T A = 0 over Z for every row y of ``kernel`` (Python ints)."""
    for y in kernel:
        total = np.zeros(c, dtype=object)
        np.add.at(total, cols, y[rows] * values)
        if total.any():
            return False
    return True


def _rank_panels(a: np.ndarray, p: int, width: int) -> int:
    """Rank modulo p of the residues in ``a``, overwriting ``a``.

    ``a`` holds residues in [0, p) as int32; the eliminations run in int64
    and the updates in float64.  Invariant: ``a[r:]`` holds the rows still
    to be reduced, and only their columns from the current panel on are
    read again; the r rows already used as pivots are dropped.
    """
    nrows, ncols = a.shape
    r = 0
    for c0 in range(0, ncols, width):
        if r == nrows:
            break
        if ncols - c0 <= width:
            return r + _eliminate(a[r:, c0:].astype(np.int64), p)
        c1 = c0 + width
        touched = r + np.flatnonzero(a[r:, c0:c1].any(axis=1))
        if touched.size == 0:
            continue
        block = np.zeros((touched.size, 2 * width), dtype=np.int64)
        block[:, :width] = a[touched, c0:c1]
        t = _eliminate(block, p, width, touched)
        pivots, rest = touched[:t], touched[t:]
        if rest.size:
            # rest row i becomes row_i + sum_j block[i, width+j] * pivot_j;
            # terms are in [0, p), so the float64 sums below are exact
            top = a[pivots, c1:].astype(np.float64)
            combos = (block[t:, width:width + t] % p).astype(np.float64)
            step = max(1, _CHUNK_CELLS // top.shape[1])
            for s in range(0, rest.size, step):
                rows = rest[s:s + step]
                update = (combos[s:s + step] @ top).astype(np.int64)
                update += a[rows, c1:]
                np.remainder(update, p, out=update)
                a[rows, c1:] = update
        # move the rows that the pivots displace out of a[r:r+t]
        front = np.arange(r, r + t)
        a[np.setdiff1d(pivots, front), c1:] = a[np.setdiff1d(front, pivots), c1:]
        r += t
    return r


def _eliminate(a: np.ndarray, p: int, width: int | None = None,
               order: np.ndarray | None = None) -> int:
    """Row-reduce the first ``width`` (at most 64) columns of ``a`` modulo p.

    Works in place and returns the pivot count t.  The pivot rows end up
    first, and ``order``, if given, is permuted along with the rows.
    When columns follow the first ``width``, column width+j of the j-th
    pivot row is set to 1 as it is chosen, so those columns record every
    row as a combination of the original pivot rows.  Reduction modulo p
    is delayed: only a column about to be searched and a chosen pivot row
    are reduced.  Every other entry takes at most 64 updates below p**2,
    so it stays below 2**59 in magnitude, and afterwards is correct only
    modulo p.
    """
    nrows = a.shape[0]
    if width is None:
        width = a.shape[1]
    track = width < a.shape[1]
    r = 0
    for c in range(width):
        if r == nrows:
            break
        column = a[r:, c] % p
        nz = column.nonzero()[0]
        if nz.size == 0:
            continue
        end = width + r + 1 if track else a.shape[1]
        i = r + int(nz[0])
        if i != r:
            a[[r, i], c:end] = a[[i, r], c:end]
            if order is not None:
                order[[r, i]] = order[[i, r]]
        a[r, c:end] %= p
        if track:
            a[r, width + r] = 1
        if nz.size > 1:
            # after the swap the rows below r that meet column c are r + nz[1:]
            idx = r + nz[1:]
            factors = column[nz[1:]] * pow(int(column[nz[0]]), p - 2, p) % p
            a[idx, c + 1:end] -= factors[:, None] * a[r, c + 1:end]
        r += 1
    return r

