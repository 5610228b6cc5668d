"""Exact sparse integer matrices and the rank policy of the package.

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

Both ranks then run one elimination (``_rank_panels``).  What is left
is reduced modulo p (as a Python int when it does not fit int64),
scattered into one dense array and eliminated in column panels: each
panel is row-reduced by a plain loop, and the other rows are then
updated by one float64 matrix product whose accumulation is exact, so
reduction modulo p happens once per panel (the delayed reduction of
FFLAS-FFPACK; Dumas, Giorgi and Pernet, 2008).  Between two reductions
an entry takes at most one update below p**2 per pivot of its panel.
The modular rank is a lower bound for the rational rank, with equality
for all primes outside a finite bad set.

A modular rank has one route (``_rank_lead``): a matrix wider than it
is tall has its first ``rows`` columns S lead.  S is eliminated alone,
and the other columns R are scattered only when the rank of S falls
short of the row count.  They then get S's row operations, replayed in
order, and what is left of them is eliminated: rank [S | R] =
rank S + rank K R, where the rows of K span the left kernel of S.  S is
first pruned of the rows holding one entry of S, whose pivots clear
their columns of S alone, and the change they make to R is kept for
that replay.  When S would be every column, no column leads: S is
empty, every column is deferred, and R is scattered whole and
eliminated with nothing to replay.

Rank over Q is certified rather than eliminated: after pruning,
left-kernel vectors of what is left are read, modulo a few primes, from
the reduced echelon form that the same elimination gives in its reduced
mode; they are combined by CRT, rationally reconstructed (Wang 1981)
and checked to annihilate it in integer arithmetic.  The modular rank
then bounds the rank from below, the codimension of the checked vectors'
span bounds it from above, and the two agree.  A bounded number of
primes always gives such a certificate (``_prime_budget``), so there is
no other route: a budget spent without one is a broken proof and raises
IntegrityError.

``rank_verified`` decides every rank the package reports: modular ranks
first, stopping at the first that reaches full rank, min(rows, cols),
and the rank over Q when asked for or when the primes disagree.  It
returns the rank together with the ranks it rests on (``RankResult``).
The package ranks one kind of matrix, the socle test of
``endomorphism.validate_finite``, whose full rank is its row count:
Macaulay's columns come first there, exactly as many as the rows, so
each modular rank is one elimination of them, and the other columns are
touched only when Macaulay's fall short.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import IntegrityError

# Each function that uses numpy imports it, so that commands which never
# build a matrix (the closed-form ones) never load it.
if TYPE_CHECKING:
    from collections.abc import Callable

    import numpy as np

# Two fixed primes just above 2**20.  A silent rank drop requires the same
# minor to vanish modulo both.
DEFAULT_PRIMES = (1048583, 1048589)

# rank_mod accepts primes below this.  Exactness of its float64 updates
# needs (p-1)**2 + p <= 2**53; below 2**26 every panel has width >= 2.
PRIME_LIMIT = 1 << 26

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
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
    import numpy as np

    values = list(values)
    if all(type(v) is int and _INT64_MIN <= v <= _INT64_MAX for v in values):
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
    n <= c.  For each prime of ``_certificate_primes`` in turn,
    ``_rank_panels`` in reduced mode brings A^T modulo p to reduced
    echelon form, whose rank r and free columns give the m = n - r
    left-kernel vectors of A that are 1 at one free coordinate and 0 at
    the others.  Only primes with the largest rank and, among
    those, the lexicographically first pivot set are combined by CRT; a
    better prime restarts the combination.  The combined residues are
    rationally reconstructed, denominators are cleared, and each vector
    y is checked to satisfy y^T A = 0 in integer arithmetic.  When all m
    pass, A has rank n - m: the vectors are independent (look at their
    free coordinates), so rank <= n - m, and the modular rank gives
    rank >= r = n - m.  ``_prime_budget`` primes always give such a proof;
    when they do not, IntegrityError is raised, naming A's shape.
    """
    import numpy as np

    if m.rows == 0 or m.cols == 0:
        return 0
    count, rows, cols, values, n, c, _ = _prune_singletons(
        m.row_index, m.col_index, m.values, m.rows, m.cols)
    if rows.size == 0:
        return count
    if n > c:
        rows, cols, n, c = cols, rows, c, n
    best = None
    budget = _prime_budget(rows, cols, values, n, c)
    for p in itertools.islice(_certificate_primes(), budget):
        a = np.zeros((c, n), dtype=np.int32)
        a[cols, rows] = _residues(values, p)
        r, pivots = _rank_panels(a, p, _panel_width(p), True)
        # the pivot coordinates of the kernel vectors, one per free column
        block = -a[:r, np.setdiff1d(np.arange(n), pivots)] % p
        key = (-r, pivots)
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
    (``_prune_singletons``); the rank is the pruned count plus the rank
    of the rest, which ``_rank_lead`` eliminates.  When ``m`` is wider
    than it is tall, the surviving columns among its first ``rows`` lead:
    they are eliminated first, and the others only when the rank is still
    below the row count.  Otherwise, or when every surviving column is
    among the first ``rows``, no column leads, and the whole rest is
    eliminated at once.  The lead changes the work, never the rank: the
    rank does not depend on the order of the columns, the other columns
    get exactly the products, in the same order, that the lead's
    elimination applied, and every entry keeps the bound below 2**59 of
    ``_eliminate``.
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if p >= PRIME_LIMIT:
        raise ValueError(f"modulus {p} is not below the prime limit 2**26")
    if m.rows == 0 or m.cols == 0:
        return 0
    count, rows, cols, residues, n, c, lead = _prune_singletons(
        m.row_index, m.col_index, _residues(m.values, p), m.rows, m.cols,
        m.rows)
    if rows.size == 0:
        return count
    # when every column would lead, nothing is deferred and _prune_lead
    # finds no row that pruning left with one entry: none leads
    return count + _rank_lead(rows, cols, residues, n, c, p,
                              lead if lead < c else 0)


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
        one that reached full rank, or the one on which every prime agreed."""
        return self.rational if self.rational is not None else self.modular[-1][1]


def rank_verified(m: ExactMatrix, primes=DEFAULT_PRIMES,
                  exact: bool = False) -> RankResult:
    """The rank of ``m`` over Q, decided by the package's one rank policy.

    Ranks modulo ``primes`` are computed in turn, stopping at the first
    that reaches full rank, min(rows, cols): a modular rank never exceeds
    the rank over Q, so one that reaches full rank is the rank.  Below
    it, the certified rank over Q (``rank_rational``) decides when
    ``exact`` is set or the primes disagree.  Otherwise the rank on which
    the primes agree is returned; it is too low only if every prime
    divides every nonzero minor of the size of the rank over Q.  Raises
    ValueError on an empty prime list and on a repeated prime, whose
    second rank would pass for agreement.
    """
    if not primes:
        raise ValueError("at least one prime required")
    if len(set(primes)) < len(primes):
        raise ValueError(f"repeated prime in {tuple(primes)}")
    full = min(m.rows, m.cols)
    modular = []
    for p in primes:
        r = rank_mod(m, p)
        modular.append((p, r))
        if r == full:
            return RankResult(tuple(modular))
    if exact or len({r for _, r in modular}) > 1:
        return RankResult(tuple(modular), rank_rational(m))
    return RankResult(tuple(modular))


# ---------------------------------------------------------------------------
# internals


def _prune_singletons(rows, cols, values, n: int, c: int, lead: int = 0):
    """Prune the singleton rows and columns of an n x c COO matrix.

    Zero values are dropped first.  Then, until nothing changes, each row
    holding the only nonzero of some column is removed, then each column
    holding the only nonzero of some remaining row.  Each removal is one
    pivot: that nonzero's elimination changes only its own row or column,
    which is then discarded, so rank = count + rank of the rest over any
    field.  Returns ``(count, rows, cols, values, n, c, lead)``, the
    surviving triples renumbered onto the rows and columns that still hold
    one, in their original order; the returned ``lead`` counts the
    survivors among the first ``lead`` columns.
    """
    import numpy as np

    nonzero = values != 0
    rows, cols, values = rows[nonzero], cols[nonzero], values[nonzero]
    count = 0
    while rows.size:
        removed = 0
        alone = np.bincount(cols, minlength=c)[cols] == 1
        if alone.any():
            out = np.zeros(n, dtype=bool)
            out[rows[alone]] = True
            removed += int(out.sum())
            keep = ~out[rows]
            rows, cols, values = rows[keep], cols[keep], values[keep]
        alone = np.bincount(rows, minlength=n)[rows] == 1
        if alone.any():
            out = np.zeros(c, dtype=bool)
            out[cols[alone]] = True
            removed += int(out.sum())
            keep = ~out[cols]
            rows, cols, values = rows[keep], cols[keep], values[keep]
        if removed == 0:
            break
        count += removed
    rows_left = np.zeros(n, dtype=bool)
    rows_left[rows] = True
    cols_left = np.zeros(c, dtype=bool)
    cols_left[cols] = True
    if not rows_left.all():
        rows = np.cumsum(rows_left)[rows] - 1
    if not cols_left.all():
        cols = np.cumsum(cols_left)[cols] - 1
    return (count, rows, cols, values, int(rows_left.sum()),
            int(cols_left.sum()), int(cols_left[:lead].sum()))


def _residues(values: np.ndarray, p: int) -> np.ndarray:
    """``values`` modulo p as ``int64``, Python ints reduced one by one."""
    import numpy as np

    if values.dtype == object:
        return np.array([v % p for v in values.tolist()], dtype=np.int64)
    return values % p


def _certificate_primes():
    """The primes whose panels are ``_PANEL_CAP`` wide, largest first: every
    prime p with ``_PANEL_CAP*(p-1)**2 + p <= 2**53``."""
    q = math.isqrt((1 << 53) // _PANEL_CAP) + 1
    while q > 2:
        if _PANEL_CAP * (q - 1) ** 2 + q <= 1 << 53 and is_prime(q):
            yield q
        q -= 1


def _prime_budget(rows, cols, values, n: int, c: int) -> int:
    """The number 2K of primes rank_rational tries; they always suffice.

    Every reconstructed entry is a ratio of two minors of A, each at most
    the Hadamard bound H (the product of the norms of A's rows, or of its
    columns).  Reconstruction cannot fail once the combined primes'
    product exceeds 2*H**2, which K primes above 2**23 achieve.  A prime
    whose rank or pivot set differs from the rational ones divides one
    nonzero minor, so fewer than K/2 primes are discarded, and 2K primes
    always yield the certificate.  Each squared norm is bounded by its
    entry count times its largest square.

    The argument needs all 2K primes above 2**23.  ``_certificate_primes``
    yields the 215,475 primes in [2**23, 11,863,280) first, so this holds
    whenever log2 H**2 is below about 2.48 million bits.
    """
    import numpy as np

    if values.dtype == object:
        logs = np.array([math.log2(max(abs(v), 1)) for v in values.tolist()])
    else:
        logs = np.log2(np.maximum(np.abs(values.astype(np.float64)), 1))
    log_h2 = min(_log_norms2(index, logs, size)
                 for index, size in ((rows, n), (cols, c)))
    return 2 * (int(log_h2 + 1) // 23 + 1)


def _log_norms2(index: np.ndarray, logs: np.ndarray, size: int) -> float:
    """Upper bound on log2 of the product of the squared norms of the lines ``index`` names."""
    import numpy as np

    counts = np.bincount(index, minlength=size)
    largest = np.zeros(size)
    np.maximum.at(largest, index, logs)
    used = counts > 0
    return float(np.sum(np.log2(counts[used]) + 2 * largest[used]))


def _crt(residues: np.ndarray, modulus: int, block: np.ndarray, p: int) -> np.ndarray:
    """Combine residues mod ``modulus`` (Python ints) with ``block`` mod p."""
    import numpy as np

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
    import numpy as np

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
    import numpy as np

    for y in kernel:
        total = np.zeros(c, dtype=object)
        np.add.at(total, cols, y[rows] * values)
        if total.any():
            return False
    return True


def _panel_width(p: int) -> int:
    """min(64, (2**53 - p) // (p-1)**2): 64 for every p up to 11,863,279,
    2 just below 2**26."""
    return min(_PANEL_CAP, ((1 << 53) - p) // (p - 1) ** 2)


def _rank_lead(rows, cols, residues, n: int, c: int, p: int,
               lead: int) -> int:
    """Rank modulo p of [S | R], residues in n x c COO arrays left by
    ``_prune_singletons``, whose first ``lead`` columns S lead.

    What ``_prune_lead`` leaves of S is scattered and eliminated by
    ``_rank_panels``; R is scattered only when that leaves the rank below
    the row count, and then gets the pruning's row operations before the
    panels'.  With ``lead`` 0, S is empty and R, the whole matrix, is
    eliminated with no row operations to replay.
    """
    import numpy as np

    count, alive, steps, rows_s, cols_s, values_s = _prune_lead(
        rows, cols, residues, n, lead)
    width = _panel_width(p)
    left = np.zeros(lead, dtype=bool)
    left[cols_s] = True
    a = np.zeros((int(alive.sum()), int(left.sum())), dtype=np.int32)
    a[(np.cumsum(alive) - 1)[rows_s], (np.cumsum(left) - 1)[cols_s]] = values_s

    def rest() -> np.ndarray:
        # the rows that stay come first, in order, and are returned as a view
        place = np.where(alive, np.cumsum(alive),
                         len(a) + np.cumsum(~alive)) - 1
        b = np.zeros((n, c - lead), dtype=np.int32)
        deferred = cols >= lead
        b[place[rows[deferred]], cols[deferred] - lead] = residues[deferred]
        for pivots, scales, at, slot, values in steps:
            inverses = np.array([pow(v, p - 2, p) for v in scales.tolist()])
            targets, where = np.unique(place[at], return_inverse=True)
            coef = np.zeros((targets.size, pivots.size), dtype=np.int64)
            coef[where, slot] = -values * inverses[slot] % p
            for s in range(0, pivots.size, width):
                _update(b, targets, coef[:, s:s + width],
                        b[place[pivots[s:s + width]]], 0, p)
        return b[:len(a)]

    return count + _rank_panels(a, p, width, rest=rest)[0]


def _prune_lead(rows, cols, residues, n: int, lead: int):
    """Prune the lead columns S of [S | R], residues in COO arrays left by
    ``_prune_singletons``, of the rows holding one entry of S.

    Such a row i, with entry s in column j, is a pivot (one per column):
    row r becomes row_r - (S_rj / s) row_i, which clears column j and
    changes no other column of S, so i and j go and only R changes.  This
    repeats until no such row is left.  Every other row stays, even one
    left with no entry of S: it is then a row of the left kernel of S.
    ``_prune_singletons`` leaves each column at least two entries, and a
    pivot takes none from another column, so no column singleton appears.

    Returns the pivot count, the mask of the rows that stay, the log and
    the entries of S left.  Per round the log holds the pivot rows, their
    entries s, and the rows, column slots and values of the other entries
    of their columns; no pivot of a round meets another's column.

    No round rescans S: each row keeps the count of its entries left and
    the sum of their positions, which names the entry of a row left with
    one, and a round subtracts the entries of the columns it removes,
    found through a by-column order of the entries.
    """
    import numpy as np

    lead_cells = cols < lead
    rows, cols, values = rows[lead_cells], cols[lead_cells], residues[lead_cells]
    # float64 sums of positions are exact: each is below lead * rows.size
    left = np.bincount(rows, minlength=n)
    named = np.bincount(rows, np.arange(rows.size), n).astype(np.int64)
    by_column = np.argsort(cols, kind="stable")
    start = np.searchsorted(cols[by_column], np.arange(lead + 1))
    kept = np.ones(rows.size, dtype=bool)
    alive = np.ones(n, dtype=bool)
    count, steps = 0, []
    while True:
        alone = np.sort(named[left == 1])
        if alone.size == 0:
            break
        found, first = np.unique(cols[alone], return_index=True)
        pivots = rows[alone[first]]
        alive[pivots] = False
        count += found.size
        # the positions of the entries of the found columns, in order
        sizes = start[found + 1] - start[found]
        hit = np.sort(by_column[np.arange(sizes.sum()) + np.repeat(
            start[found] - np.cumsum(sizes) + sizes, sizes)])
        other = hit[alive[rows[hit]]]
        steps.append((pivots, values[alone[first]], rows[other],
                      np.searchsorted(found, cols[other]), values[other]))
        kept[hit] = False
        left -= np.bincount(rows[hit], minlength=n)
        named -= np.bincount(rows[hit], hit, n).astype(np.int64)
    return count, alive, steps, rows[kept], cols[kept], values[kept]


def _rank_panels(a: np.ndarray, p: int, width: int, reduced: bool = False,
                 rest: Callable[[], np.ndarray] | None = None
                 ) -> tuple[int, tuple[int, ...]]:
    """Row echelon form modulo p of the residues in ``a``, in place.

    Returns the rank and the pivot columns.  ``a`` holds residues in
    [0, p) as int32, and ``a[r:]`` the rows still to be reduced.  Each
    panel of ``width`` columns is row-reduced in int64 by ``_eliminate``
    on the rows of ``a[r:]`` that meet it, tracking each as a combination
    of the panel's t pivot rows.  One chunked float64 step,
    rows += coef @ pivot_rows (mod p), then applies the panel to the other
    rows (``_update``), and the pivot rows move to ``a[r:r+t]``.  Each
    term of that product is in [0, p), so it is exact when
    width*(p-1)**2 + p <= 2**53.

    In rank mode the step updates the rows below, right of the panel;
    the pivot rows are dropped, and the last panel is eliminated in one
    call.  In reduced mode pivots are 1 and cleared from the panel's
    earlier pivot rows, and the step, from the panel's first column on,
    also gives the pivot rows their reduced form and clears the panel's
    pivot columns from the r rows above: ``a[:r]`` ends as the reduced
    echelon form, and the rows below it as zero.

    Rank mode can defer columns: ``rest`` is a function returning them,
    as many rows as ``a``, which then holds only the lead ones.  Each
    panel stores its coefficients in place, in the columns left of the
    step below its pivots, which rank mode never reads again, and is
    logged.  Only when the lead columns leave the rank r below the row
    count is ``rest`` called; its columns get the logged steps and row
    moves, in order (``_replay``), and their rows ``[r:]`` are
    eliminated in turn.  Those rows are K R,
    where the rows of K span the left kernel of the lead columns S, so
    rank [S | R] = rank S + rank K R.  The replayed products are the
    ones the lead's steps take, with the same factors in [0, p) and the
    same width, so they are exact for the same primes, and ``_eliminate``
    keeps its bound of 2**59.  The last lead panel is first eliminated
    in one call, as without deferred columns, and again with tracking
    only when it leaves the rank below the row count.
    """
    import numpy as np

    log = None if reduced or rest is None else []
    nrows, ncols = a.shape
    r, pivots = 0, []
    for c0 in range(0, ncols, width):
        if r == nrows:
            break
        if ncols - c0 <= width and not reduced:
            last = _eliminate(a[r:, c0:].astype(np.int64), p)
            if log is None or r + len(last) == nrows:
                return r + len(last), tuple(pivots + [c0 + j for j in last])
        c1 = min(c0 + width, ncols)
        w = c1 - c0
        touched = r + np.flatnonzero(a[r:, c0:c1].any(axis=1))
        if touched.size == 0:
            continue
        block = np.zeros((touched.size, 2 * w), dtype=np.int64)
        block[:, :w] = a[touched, c0:c1]
        local = _eliminate(block, p, w, touched, reduced)
        t = len(local)
        chosen, front = touched[:t], np.arange(r, r + t)
        # row i becomes row_i + sum_j coef[i, j] * pivot_j, where block
        # column w+j records pivot row j as it was before the panel
        start, targets, coef = c1, touched[t:], block[t:, w:w + t] % p
        # the front rows that are not pivots, and the pivots not in front
        inside = chosen < r + t
        taken = np.zeros(t, dtype=bool)
        taken[chosen[inside] - r] = True
        moved, into = front[~taken], np.sort(chosen[~inside])
        if reduced:
            start = c0
            combos = block[:t, w:w + t] % p
            # minus the pivot columns of the rows above, in pivot rows
            above = (-a[:r, c0 + np.array(local)] % p).astype(np.float64)
            above = (above @ combos.astype(np.float64)).astype(np.int64) % p
            # a pivot row is replaced by its combination, not added to it
            combos[np.arange(t), np.arange(t)] -= 1
            targets = np.concatenate([np.arange(r), chosen, targets])
            coef = np.concatenate([above, combos % p, coef])
            moved = np.concatenate([chosen, moved])
            into = np.concatenate([front, into])
        elif log is not None:
            a[targets, c0:c0 + t] = coef
            log.append((c0, t, chosen, targets, moved, into))
        _update(a, targets, coef, a[chosen, start:], start, p)
        # move the rows that the pivots displace out of a[r:r+t] (and, when
        # reduced, the pivot rows into it)
        a[into, start:] = a[moved, start:]
        pivots += [c0 + j for j in local]
        r += t
    if log is not None and r < nrows:
        b = rest()
        if log:
            _replay(b, a, log, p)
        more, found = _rank_panels(b[r:], p, width)
        r, pivots = r + more, pivots + [ncols + j for j in found]
    return r, tuple(pivots)


def _update(a: np.ndarray, targets: np.ndarray, coef: np.ndarray,
            top: np.ndarray, start: int, p: int) -> None:
    """a[targets, start:] += coef @ top modulo p, as float64 products of
    about ``_CHUNK_CELLS`` cells each."""
    import numpy as np

    if targets.size == 0 or top.shape[1] == 0:
        return
    top = top.astype(np.float64)
    coef = coef.astype(np.float64)
    step = max(1, _CHUNK_CELLS // top.shape[1])
    for s in range(0, targets.size, step):
        rows = targets[s:s + step]
        update = (coef[s:s + step] @ top).astype(np.int64)
        update += a[rows, start:]
        np.remainder(update, p, out=update)
        a[rows, start:] = update


def _replay(b: np.ndarray, a: np.ndarray, log: list, p: int) -> None:
    """Give ``b`` the row operations logged while ``_rank_panels``
    eliminated ``a`` in rank mode: each panel's step, with the
    coefficients it stored in ``a``, then its row moves, in order."""
    for c0, t, chosen, targets, moved, into in log:
        _update(b, targets, a[targets, c0:c0 + t], b[chosen], 0, p)
        b[into] = b[moved]


def _eliminate(a: np.ndarray, p: int, width: int | None = None,
               order: np.ndarray | None = None,
               reduced: bool = False) -> list[int]:
    """Row-reduce the first ``width`` (at most 64) columns of ``a`` modulo p.

    Works in place and returns the pivot columns.  The pivot rows end up
    first, and ``order``, if given, is permuted along with the rows.
    When columns follow the first ``width``, column width+j of the j-th
    pivot row is set to 1 as it is chosen, so those columns record every
    row as a combination of the original pivot rows.  When ``reduced``,
    each pivot row is scaled so that its pivot is 1, and its pivot column
    is cleared from the earlier pivot rows as well as from the rows
    below.  Reduction modulo p is delayed: only a column about to be
    searched and a chosen pivot row are reduced.  Between reductions an
    entry takes at most one update below p**2 per pivot, so it stays
    below 2**59 in magnitude, and afterwards is correct only modulo p.
    """
    nrows = a.shape[0]
    if width is None:
        width = a.shape[1]
    track = width < a.shape[1]
    r, pivots = 0, []
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
        if reduced:
            a[r, c:end] = a[r, c:end] * pow(int(column[nz[0]]), p - 2, p) % p
            column[nz[0]] = 1
            a[:r, c:end] -= (a[:r, c] % p)[:, None] * a[r, c:end]
        if nz.size > 1:
            # after the swap the rows below r that meet column c are r + nz[1:]
            idx = r + nz[1:]
            factors = column[nz[1:]] * pow(int(column[nz[0]]), p - 2, p) % p
            a[idx, c + 1:end] -= factors[:, None] * a[r, c + 1:end]
        pivots.append(c)
        r += 1
    return pivots
