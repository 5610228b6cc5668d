"""Splitting types of pi_*(O_{P'}(lH')) for a degree-k endomorphism of P^n.

The pushforward of a line bundle under a finite flat cover of P^n splits
as (+)_d O(-dH)^{m_{l,d}}.  Two independent routes compute the
multiplicities m_{l,d}:

* ``splitting_universal``: closed form.  The splitting type of a sum of
  line bundles is determined by its Hilbert function, which depends only
  on (n, k, l); m_{l,d} is the number of exponent vectors
  a in {0..k-1}^(n+1) with |a| = l+kd, i.e. the coefficient of t^(l+kd)
  in ((1-t^k)/(1-t))^(n+1).  Those coefficients are P-recursive
  (Stanley, *Enumerative Combinatorics 2*, section 6.4) and come from a
  three-term recurrence, about (n+1)(k-1)/2 big-int steps per table.

* ``splitting_from_endo``: exact linear algebra on a concrete
  endomorphism.  m_{l,d} = HF(l+kd), where HF is the Hilbert function of
  S/(f_0, ..., f_n) (``endomorphism.hilbert_function``), the corank of
  the multiplication matrix (+)_i S_{l+kd-k} -> S_{l+kd}.  That rank is
  at most dim S_t - box(t), t = l+kd, where box(t) is the coefficient
  above: a rank modulo one prime that reaches this bound is final, and
  a finite map's ranks all reach it over Q.  A rank below its bound
  rests on primes that agree, or on a certified rank over Q when they
  disagree or ``exact`` is set (``exactla.rank_verified``).

The second route always cross-checks against the first; a mismatch is an
IntegrityError, never a silent preference for one side.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import InputError, IntegrityError
from .exactla import DEFAULT_PRIMES
from .polyring import graded_dim

if TYPE_CHECKING:
    from .endomorphism import Endomorphism


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


# Largest closed-form table: 2**20 coefficients, and 2**27 bytes of
# distinct big integers (a table is symmetric, so half of it is distinct).
MAX_BOX_COEFFS = 2 ** 20
MAX_BOX_BYTES = 2 ** 27


@lru_cache(maxsize=None)
def _box_counts(num_vars: int, k: int) -> tuple[int, ...]:
    """Coefficients q_0..q_top of ((1-t^k)/(1-t))^v, v = num_vars, top = v(k-1).

    Q = ((1-t^k)/(1-t))^v satisfies (1-t)(1-t^k)Q' = v((1-t^k) -
    k t^(k-1) (1-t))Q, so its coefficients are P-recursive (Stanley,
    *Enumerative Combinatorics 2*, section 6.4):

        m q_m = (m-1+v) q_{m-1} + (m-k-vk) q_{m-k} + (v(k-1)-m+k+1) q_{m-k-1}

    with q_0 = 1 and q_j = 0 for j < 0; the division by m is exact.  The
    table is symmetric, q_m = q_{top-m}, so the recurrence runs to top/2.
    """
    v = num_vars
    top = v * (k - 1)
    half = top // 2
    q = [1]
    for m in range(1, half + 1):
        s = (m - 1 + v) * q[m - 1]
        if m >= k:
            s += (m - k - v * k) * q[m - k]
            if m > k:
                s += (top - m + k + 1) * q[m - k - 1]
        q.append(s // m)
    return tuple(q + q[:top - half][::-1])


def _refuse_oversized(n: int, k: int) -> None:
    """Refuse a closed form too large to compute, hold or print.

    The table has (n+1)(k-1)+1 coefficients, each below k^(n+1), and
    every multiplicity it yields is at most the rank k^n, which must fit
    the interpreter's int-to-str digit limit (sys.get_int_max_str_digits,
    0 for none).
    """
    size = (n + 1) * (k - 1) + 1
    if size > MAX_BOX_COEFFS:
        raise InputError(
            f"closed form for n={n}, k={k} needs (n+1)(k-1)+1 = {size} "
            f"coefficients, above the limit 2**20 = {MAX_BOX_COEFFS}")
    digits = sys.get_int_max_str_digits()
    # the float estimate of log10(k^n) spares the exact test (and 10**digits)
    # to all but ranks within a digit of the limit
    if digits and n * math.log10(k) > digits - 1 and k ** n >= 10 ** digits:
        raise InputError(
            f"rank k^n = {k}^{n} has more than {digits} digits, the "
            "interpreter's limit for printing an integer "
            "(sys.set_int_max_str_digits)")
    table_bytes = (size // 2 + 1) * (n + 1) * math.log2(k) / 8
    if table_bytes > MAX_BOX_BYTES:
        raise InputError(
            f"closed form for n={n}, k={k} needs a table of about "
            f"{table_bytes / 2 ** 20:.0f} MB, above the limit of "
            f"{MAX_BOX_BYTES // 2 ** 20} MB")


def splitting_universal(n: int, k: int, l: int) -> SplittingType:
    """Closed-form multiplicities: m_{l,d} = #{a in {0..k-1}^(n+1), |a| = l+kd}.

    A table above MAX_BOX_COEFFS coefficients or MAX_BOX_BYTES bytes, or
    a rank k^n with more digits than the interpreter prints, is an
    InputError raised before any work.
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    _refuse_oversized(n, k)
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
    """Multiplicities m_{l,d} = HF(l+kd) of a finite map, cross-checked.

    HF is read for d from -floor(l/k) up to delta(n,k,l).  A map that
    ``validate_finite`` does not show finite is an InputError.  The result
    is always compared with splitting_universal, and a mismatch raises
    IntegrityError carrying both values.
    """
    # endomorphism reads the box counts from here, so it is imported late
    from .endomorphism import hilbert_function, validate_finite

    report = validate_finite(e, primes, exact)
    if not report.is_finite:
        raise InputError(
            f"endomorphism is not finite: the socle-degree test has rank "
            f"{report.rank.value}, below the required {report.required_rank}")
    n, k = e.n, e.k
    pairs = []
    for d in range(-(l // k), delta(n, k, l) + 1):
        m = hilbert_function(e, l + k * d, primes, exact)[0]
        if m:
            pairs.append((d, m))
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

    graded_dim(n+1, t) = C(t+n, n) is a polynomial of degree n in t for
    t >= -n.  So from e0 = max(-floor(l/k), support_max - n,
    -floor((n+l)/k)) on, both sides are polynomials of degree n in e,
    and n+1 agreeing values from e0 make them equal everywhere beyond:
    e up to min(e_max, e0 + n) decides the whole range, and gives the
    same first failure, whatever e_max is.
    """
    n, k, l = st.n, st.k, st.l
    lower = -(l // k)
    if e_max < lower:
        raise InputError(
            f"hilbert check range is empty: e_max = {e_max} is below "
            f"-floor(l/k) = {lower}")
    e0 = max(lower, -((n + l) // k), *(d - n for d, _ in st.multiplicities))
    for e in range(lower, min(e_max, e0 + n) + 1):
        lhs = sum(m * graded_dim(n + 1, e - d)
                  for d, m in st.multiplicities)
        rhs = graded_dim(n + 1, l + k * e)
        if lhs != rhs:
            return HilbertCheckReport(False, (lower, e_max), e, lhs, rhs)
    return HilbertCheckReport(True, (lower, e_max))
