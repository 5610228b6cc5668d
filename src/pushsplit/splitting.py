"""Splitting types of pi_*(O_{P'}(lH')) for a degree-k endomorphism of P^n.

The pushforward of a line bundle under a finite flat cover of P^n splits
as (+)_d O(-dH)^{m_{l,d}}.  Two independent routes compute the
multiplicities m_{l,d}:

* ``splitting_universal``: closed form.  The splitting type of a sum of
  line bundles is determined by its Hilbert function, which depends only
  on (n, k, l); m_{l,d} is the number of exponent vectors
  a in {0..k-1}^(n+1) with |a| = l+kd, i.e. the coefficient of t^(l+kd)
  in ((1-t^k)/(1-t))^(n+1).

* ``splitting_from_endo``: exact linear algebra on a concrete
  endomorphism.  m_{l,d} is the corank of the multiplication matrix
  (+)_i V_{l,d-1} -> V_{l,d}, where V_{l,d} is the graded piece of
  degree l+kd in the source variables.  Every rank is decided by
  ``exactla.rank_verified``: a full rank modulo one prime is final, and
  a rank below full rests on primes that agree, or on a certified rank
  over Q when they disagree or ``exact`` is set.

The second route always cross-checks against the first; a mismatch is an
IntegrityError, never a silent preference for one side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .endomorphism import Endomorphism
from .errors import InputError, IntegrityError
from .exactla import DEFAULT_PRIMES, rank_verified
from .polyring import graded_dim, multiplication_matrix


def delta(n: int, k: int, l: int) -> int:
    """Largest twist in the splitting: n + 1 + floor(-(n+1+l)/k)."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    return n + 1 + (-(n + 1 + l)) // k


@dataclass(frozen=True)
class SplittingType:
    """Multiplicities d -> m_{l,d} of O(-dH) in pi_*(O(lH')), nonzero only."""

    n: int
    k: int
    l: int
    multiplicities: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ds = [d for d, _ in self.multiplicities]
        if any(b <= a for a, b in zip(ds, ds[1:])):
            raise InputError("multiplicities must be sorted by twist, one entry per twist")
        if any(m <= 0 for _, m in self.multiplicities):
            raise InputError("only nonzero multiplicities are stored")

    def as_dict(self) -> dict[int, int]:
        return dict(self.multiplicities)

    def multiplicity(self, d: int) -> int:
        return self.as_dict().get(d, 0)

    @property
    def rank(self) -> int:
        """Rank of the pushforward bundle; always k^n."""
        return sum(m for _, m in self.multiplicities)

    @property
    def support_min(self) -> int:
        return self.multiplicities[0][0]

    @property
    def support_max(self) -> int:
        return self.multiplicities[-1][0]


@lru_cache(maxsize=None)
def _box_counts(num_vars: int, k: int) -> tuple[int, ...]:
    """Coefficients of (1 + t + ... + t^(k-1))^num_vars."""
    coeffs = [1]
    for _ in range(num_vars):
        out = [0] * (len(coeffs) + k - 1)
        for i, c in enumerate(coeffs):
            for j in range(k):
                out[i + j] += c
        coeffs = out
    return tuple(coeffs)


def splitting_universal(n: int, k: int, l: int) -> SplittingType:
    """Closed-form multiplicities: m_{l,d} = #{a in {0..k-1}^(n+1), |a| = l+kd}."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    counts = _box_counts(n + 1, k)
    top = (k - 1) * (n + 1)
    pairs = []
    d = -(l // k)
    while l + k * d <= top:
        m = counts[l + k * d]
        if m:
            pairs.append((d, m))
        d += 1
    return SplittingType(n, k, l, tuple(pairs))


def splitting_from_endo(e: Endomorphism, l: int, primes=DEFAULT_PRIMES,
                        exact: bool = False) -> SplittingType:
    """Multiplicities by corank of multiplication matrices, cross-checked.

    For d from -floor(l/k) up to delta(n,k,l): m_{l,d} is
    dim V_{l,d} - rank of (g_i)_i |-> sum f_i g_i from (+)_i V_{l,d-1},
    stopping early at the first zero (zero multiplicities stay zero from
    then on).  Requires a FINITE certificate on ``e``.  The result is
    always compared with splitting_universal, and a mismatch raises
    IntegrityError carrying both values.
    """
    e.require_finite()
    n, k = e.n, e.k
    lower = -(l // k)
    upper = delta(n, k, l)
    pairs = []
    for d in range(lower, upper + 1):
        dim_target = graded_dim(n + 1, l + k * d)
        matrix = multiplication_matrix(e.forms, l + k * d - k)
        m = dim_target - rank_verified(matrix, primes, exact).value
        if m:
            pairs.append((d, m))
        elif d > lower:
            break
    computed = SplittingType(n, k, l, tuple(pairs))
    expected = splitting_universal(n, k, l)
    if computed.multiplicities != expected.multiplicities:
        raise IntegrityError(
            "splitting routes disagree for "
            f"(n={n}, k={k}, l={l}): linear algebra gave "
            f"{computed.as_dict()}, closed form gives {expected.as_dict()}",
            expected=expected, actual=computed)
    return computed


@dataclass(frozen=True)
class HilbertCheckReport:
    passed: bool
    e_range: tuple[int, int]
    first_failure: int | None = None
    lhs: int | None = None
    rhs: int | None = None


def hilbert_check(st: SplittingType, e_max: int) -> HilbertCheckReport:
    """Verify sum_d m_{l,d} * graded_dim(n+1, e-d) = graded_dim(n+1, l+ke).

    Checked for every e from -floor(l/k) to e_max; these all have
    l + ke >= 0, where the identity is asserted.  An e_max below
    -floor(l/k) would check nothing and is an InputError.
    """
    lower = -(st.l // st.k)
    if e_max < lower:
        raise InputError(
            f"hilbert check range is empty: e_max = {e_max} is below "
            f"-floor(l/k) = {lower}")
    for e in range(lower, e_max + 1):
        lhs = sum(m * graded_dim(st.n + 1, e - d)
                  for d, m in st.multiplicities)
        rhs = graded_dim(st.n + 1, st.l + st.k * e)
        if lhs != rhs:
            return HilbertCheckReport(False, (lower, e_max), e, lhs, rhs)
    return HilbertCheckReport(True, (lower, e_max))


def dual_multiplicities(st: SplittingType) -> dict[int, int]:
    """Multiplicities of the dualizing decomposition of pi_*(omega(-lH')).

    For 0 <= l < k the d-th summand is omega_X(dH) with the same
    multiplicity m_{l,d} (dualizing a sum of line bundles preserves
    dimensions).  Outside that range the decomposition is not stated.
    """
    if not 0 <= st.l < st.k:
        raise InputError(
            f"dualizing decomposition requires 0 <= l < k, got l={st.l}, k={st.k}")
    return st.as_dict()
