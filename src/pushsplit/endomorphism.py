"""Finite endomorphisms of projective space given by n+1 degree-k forms.

The linear algebra on a map computes one function, the Hilbert function
HF(t) of S/(f_0, ..., f_n) (``hilbert_function``).  HF(t) is never below
box(t), the Hilbert function of the power map (``splitting._box_counts``),
so each rank has the known upper bound dim S_t - box(t).  Macaulay's
columns, one per degree-t monomial divisible by some y_i^k, are ranked
first modulo one prime; when they fall short of the bound, the whole
matrix is ranked by ``exactla.rank_verified``.  The forms have no common
projective zero (are a regular sequence) exactly when HF vanishes past
the socle degree (n+1)(k-1), so the map is finite iff HF(D) = 0 at
D = (n+1)(k-1)+1 (``validate_finite``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .exactla import DEFAULT_PRIMES, ExactMatrix, RankResult, rank_mod, \
    rank_verified
from .polyring import HomogPoly, graded_dim, monomial_array, \
    monomials_of_degree, multiplication_matrix, parse_form
from .splitting import _box_counts

FINITE = "FINITE"
NOT_FINITE = "NOT_FINITE"


@dataclass(frozen=True)
class FinitenessReport:
    """Evidence behind a FINITE / NOT_FINITE verdict.

    ``test_degree`` is D = (n+1)(k-1)+1, ``required_rank`` the dimension
    of S'_D, and ``rank`` the RankResult of the socle-degree test: the
    map is FINITE iff its rank reaches ``required_rank``.
    """

    test_degree: int
    required_rank: int
    rank: RankResult

    @property
    def is_finite(self) -> bool:
        return self.rank.value == self.required_rank

    @property
    def verdict(self) -> str:
        return FINITE if self.is_finite else NOT_FINITE


@dataclass(frozen=True)
class Endomorphism:
    """pi: P^n -> P^n given by forms (f_0, ..., f_n) of common degree k."""

    n: int
    k: int
    forms: tuple[HomogPoly, ...]
    _finiteness: list = field(default_factory=list, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"n must be >= 1, got {self.n}")
        if self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        if len(self.forms) != self.n + 1:
            raise InputError(
                f"expected {self.n + 1} forms, got {len(self.forms)}")
        for i, f in enumerate(self.forms):
            if f.num_vars != self.n + 1:
                raise InputError(
                    f"form f{i} uses {f.num_vars} variables, expected {self.n + 1}")
            if f.degree != self.k:
                raise InputError(
                    f"form f{i} has degree {f.degree}, expected {self.k}")
            if f.is_zero():
                raise InputError(f"form f{i} is zero")


def power_map(n: int, k: int) -> Endomorphism:
    """The coordinate-power map (y_0^k, ..., y_n^k)."""
    forms = tuple(
        HomogPoly.monomial(tuple(k if j == i else 0 for j in range(n + 1)))
        for i in range(n + 1))
    return Endomorphism(n, k, forms)


def hilbert_function(e: Endomorphism, t: int, primes=DEFAULT_PRIMES,
                     exact: bool = False) -> tuple[int, RankResult]:
    """HF(t) = dim S_t - rank of (g_i)_i |-> sum f_i g_i from (+)_i S_{t-k},
    the Hilbert function of S/(f_0, ..., f_n), and the RankResult it rests
    on.

    Over Q the rank is at most bound = dim S_t - box(t): rank is lower
    semicontinuous in the coefficients, so no map exceeds the generic
    rank, which the power map attains (Froeberg, Math. Scand. 56, 1985).
    A modular rank never exceeds the rational one, so a modular rank that
    reaches the bound is certified.  Macaulay's columns
    (``_macaulay_columns``) are ranked first modulo ``primes[0]``; when
    they reach the bound, so does the whole matrix, and that is the rank.
    Otherwise the whole matrix is ranked by ``exactla.rank_verified``
    with that bound.  Either way the (prime, rank) pairs reported are
    those ``rank_verified`` gives on the whole matrix.
    """
    v, k = e.n + 1, e.k
    dim = graded_dim(v, t)
    box = _box_counts(v, k)
    bound = dim - (box[t] if 0 <= t < len(box) else 0)
    m = multiplication_matrix(e.forms, t - k)
    if bound > 0 and primes:
        keep = _macaulay_columns(v, k, t)
        number = np.cumsum(keep) - 1
        cells = keep[m.col_index]
        macaulay = ExactMatrix(m.rows, bound, m.row_index[cells],
                               number[m.col_index[cells]], m.values[cells])
        if rank_mod(macaulay, primes[0]) == bound:
            return dim - bound, RankResult(((primes[0], bound),))
    rank = rank_verified(m, primes, exact, bound)
    return dim - rank.value, rank


def _macaulay_columns(num_vars: int, k: int, t: int) -> np.ndarray:
    """The mask of Macaulay's columns in multiplication_matrix(forms, t-k).

    Column (i, b) is kept when b_j < k for every j < i.  Then a = b + k*e_i
    is a degree-t monomial divisible by y_i^k and by no y_j^k with j < i,
    so the kept columns correspond one to one to the degree-t monomials
    divisible by some y_i^k: there are dim S_t - box(t) of them
    (Macaulay 1902; Cox, Little and O'Shea, *Using Algebraic Geometry*,
    ch. 3 section 4).
    """
    source = monomial_array(num_vars, t - k)
    below = np.logical_and.accumulate(source < k, axis=1)
    return np.concatenate([np.ones(len(source), dtype=bool),
                           below[:, :-1].T.ravel()])


def validate_finite(e: Endomorphism, primes=DEFAULT_PRIMES,
                    exact: bool = False) -> FinitenessReport:
    """FINITE iff HF(D) = 0 at the test degree D = (n+1)(k-1)+1.

    FINITE as soon as one prime shows full row rank (that alone is a
    certificate).  When no prime does, the rank is computed in rational
    arithmetic if ``exact`` is set or the primes disagree, and decides the
    verdict.  Otherwise the verdict is NOT_FINITE, resting on primes that
    agree and can only err by under-reporting rank.

    A FINITE report is cached on ``e`` and returned whatever a later call's
    ``primes`` or ``exact``: a full rank modulo any prime certifies it.  A
    NOT_FINITE report is computed afresh by every call.
    """
    if e._finiteness:
        return e._finiteness[0]
    degree = (e.n + 1) * (e.k - 1) + 1
    report = FinitenessReport(degree, graded_dim(e.n + 1, degree),
                              hilbert_function(e, degree, primes, exact)[1])
    if report.is_finite:
        e._finiteness.append(report)
    return report


_RANDOM_DRAWS = 25


def random_endomorphism(n: int, k: int, rng: random.Random,
                        primes=DEFAULT_PRIMES,
                        exact: bool = False) -> Endomorphism:
    """A validated finite endomorphism: power map plus a small perturbation.

    Each form is y_i^k plus a sparse random degree-k form with coefficients
    in [-2, 2]; finiteness holds with high probability and is validated,
    drawing up to 25 times.
    """
    monos = monomials_of_degree(n + 1, k)
    for _ in range(_RANDOM_DRAWS):
        forms = []
        for i in range(n + 1):
            coeffs = {tuple(k if j == i else 0 for j in range(n + 1)): 1}
            for mono in monos:
                if rng.random() < 0.4:
                    c = rng.randint(-2, 2)
                    if c:
                        coeffs[mono] = coeffs.get(mono, 0) + c
            poly = HomogPoly.from_dict(n + 1, k, coeffs)
            forms.append(poly if not poly.is_zero()
                         else HomogPoly.monomial(
                             tuple(k if j == i else 0 for j in range(n + 1))))
        e = Endomorphism(n, k, tuple(forms))
        if validate_finite(e, primes=primes, exact=exact).is_finite:
            return e
    raise InputError(
        f"no finite endomorphism found in {_RANDOM_DRAWS} random draws")


def parse_endomorphism(text: str, source: str = "<string>") -> Endomorphism:
    """Parse the endomorphism file format.

    One ``key = value`` statement per line, '#' starts a comment, blank
    lines ignored.  Required statements: n, k, and all of f0..fn.  Errors
    carry the offending line number.
    """
    statements: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(
                f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in statements:
            raise InputError(f"{source}:{lineno}: duplicate statement {key!r}")
        statements[key] = (value, lineno)

    def natural(key: str) -> int:
        if key not in statements:
            raise InputError(f"{source}: missing required statement '{key} = ...'")
        value, lineno = statements[key]
        try:
            parsed = int(value)
        except ValueError:
            raise InputError(
                f"{source}:{lineno}: {key} must be an integer, got {value!r}") from None
        if parsed < 1:
            raise InputError(f"{source}:{lineno}: {key} must be >= 1")
        return parsed

    n = natural("n")
    k = natural("k")
    # every form must be present before any is parsed: parse_form builds
    # lists of n + 1 exponents, so an n beyond the file's length is refused
    missing = next((i for i in range(n + 1) if f"f{i}" not in statements), None)
    if missing is not None:
        raise InputError(f"{source}: missing required statement 'f{missing} = ...'")
    forms = []
    for i in range(n + 1):
        key = f"f{i}"
        value, lineno = statements[key]
        try:
            form = parse_form(value, n + 1)
        except InputError as exc:
            raise InputError(f"{source}:{lineno}: {key}: {exc}") from None
        if form.degree != k:
            raise InputError(
                f"{source}:{lineno}: {key} has degree {form.degree}, expected k={k}")
        forms.append(form)
    extra = set(statements) - {"n", "k"} - {f"f{i}" for i in range(n + 1)}
    if extra:
        key = sorted(extra)[0]
        raise InputError(
            f"{source}:{statements[key][1]}: unexpected statement {key!r}")
    return Endomorphism(n, k, tuple(forms))


def load_endomorphism(path: str) -> Endomorphism:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read endomorphism file: {exc}") from None
    return parse_endomorphism(text, source=path)
