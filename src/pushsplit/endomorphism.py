"""Finite endomorphisms of projective space given by n+1 degree-k forms.

The linear algebra on a map is one rank.  The forms have no common
projective zero (are a regular sequence) exactly when the Hilbert
function of S/(f_0, ..., f_n) vanishes past the socle degree
(n+1)(k-1), so the map is finite iff HF(D) = 0 at D = (n+1)(k-1)+1, that
is, iff the multiplication map (g_i)_i |-> sum f_i g_i from
(+)_i S_{D-k} onto S_D has full row rank (``validate_finite``).  That
rank is one elimination modulo each prime tried
(``exactla.rank_verified``), led by Macaulay's columns, one per degree-D
monomial, all of which are divisible by some y_i^k; the other columns
are brought in only when those fall short of the row count.  The
verdict depends only on the map's value and the rank policy (the primes
and ``exact``), so each process decides it once per key, in one bounded
cache (``_finiteness_report``, FINITENESS_CACHE_SIZE kept).  Likewise
each process parses a map's text once (``_parse``, MAP_CACHE_SIZE kept,
keyed by the text alone): a file is read again on every load, so an
edited file is seen, but the same text returns the same Endomorphism,
which that cache then finds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import InputError, read_input_file
from .exactla import DEFAULT_PRIMES, ExactMatrix, RankResult, rank_verified
from .polyring import HomogPoly, monomial_array, multiplication_matrix, \
    parse_form

# Each function that uses numpy imports it, so that commands which never
# build a matrix (the closed-form ones) never load it.
if TYPE_CHECKING:
    import numpy as np

FINITE = "FINITE"
NOT_FINITE = "NOT_FINITE"
# Reports kept by _finiteness_report; each holds its map and a few ranks.
FINITENESS_CACHE_SIZE = 64
# Maps kept by _parse; each holds its text and forms.
MAP_CACHE_SIZE = 64


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


def _macaulay_columns(num_vars: int, k: int, t: int) -> np.ndarray:
    """The mask of Macaulay's columns in multiplication_matrix(forms, t-k).

    Column (i, b) is kept when b_j < k for every j < i.  Then a = b + k*e_i
    is a degree-t monomial divisible by y_i^k and by no y_j^k with j < i,
    so the kept columns correspond one to one to the degree-t monomials
    divisible by some y_i^k: there are dim S_t - box(t) of them
    (Macaulay 1902; Cox, Little and O'Shea, *Using Algebraic Geometry*,
    ch. 3 section 4).
    """
    import numpy as np

    source = monomial_array(num_vars, t - k)
    below = np.logical_and.accumulate(source < k, axis=1)
    return np.concatenate([np.ones(len(source), dtype=bool),
                           below[:, :-1].T.ravel()])


def validate_finite(e: Endomorphism, primes=DEFAULT_PRIMES,
                    exact: bool = False) -> FinitenessReport:
    """FINITE iff HF(D) = 0 at the test degree D = (n+1)(k-1)+1.

    HF(D) = dim S_D - the rank of (g_i)_i |-> sum f_i g_i from
    (+)_i S_{D-k}, so the map is FINITE iff that matrix has full row
    rank.  It is ranked by ``exactla.rank_verified``, its columns
    renumbered so that Macaulay's (``_macaulay_columns``), one per row,
    come first and lead each modular elimination.  FINITE as soon as one
    prime shows full row rank (that alone is a certificate).  When no
    prime does, the rank is computed in rational arithmetic if ``exact``
    is set or the primes disagree, and decides the verdict.  Otherwise
    the verdict is NOT_FINITE, resting on primes that agree and can only
    err by under-reporting rank.

    The report is computed once per process for each key: the map's
    value (n, k and its forms) with the whole rank policy (the primes, in
    order, and ``exact``), the FINITENESS_CACHE_SIZE most recently used
    kept.  Both verdicts are cached, and a cached report is the one a
    fresh process computes for the same key.
    """
    return _finiteness_report(e, tuple(primes), bool(exact))


@lru_cache(maxsize=FINITENESS_CACHE_SIZE)
def _finiteness_report(e: Endomorphism, primes: tuple[int, ...],
                       exact: bool) -> FinitenessReport:
    import numpy as np

    v, k = e.n + 1, e.k
    degree = v * (k - 1) + 1
    m = multiplication_matrix(e.forms, degree - k)
    keep = _macaulay_columns(v, k, degree)
    number = np.where(keep, np.cumsum(keep), m.rows + np.cumsum(~keep)) - 1
    m = ExactMatrix(m.rows, m.cols, m.row_index, number[m.col_index],
                    m.values)
    return FinitenessReport(degree, m.rows, rank_verified(m, primes, exact))


_RANDOM_DRAWS = 25


def random_endomorphism(n: int, k: int, rng: random.Random,
                        primes=DEFAULT_PRIMES) -> Endomorphism:
    """A validated finite endomorphism: power map plus a small perturbation.

    Each form is y_i^k plus a sparse random degree-k form with coefficients
    in [-2, 2]; finiteness holds with high probability and is validated
    modulo ``primes``, drawing up to 25 times.  Only a FINITE draw is
    kept, and a full modular rank certifies that alone, so a rank over Q
    would only be spent on draws that are thrown away.
    """
    monos = [tuple(mono) for mono in monomial_array(n + 1, k).tolist()]
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
        if validate_finite(e, primes=primes).is_finite:
            return e
    raise InputError(
        f"no finite endomorphism found in {_RANDOM_DRAWS} random draws")


def parse_endomorphism(text: str, source: str = "<string>") -> Endomorphism:
    """Parse the endomorphism file format.

    One ``key = value`` statement per line, '#' starts a comment, blank
    lines ignored.  Required statements: n, k, and all of f0..fn.  Errors
    name ``source`` and carry the offending line number.

    Each process parses a text once: the map is kept in one bounded cache
    keyed by the text alone (``_parse``, the MAP_CACHE_SIZE most recently
    used kept), so the same text returns the same immutable Endomorphism
    whatever its source.  Errors are raised, never cached.
    """
    try:
        return _parse(text)
    except _ParseError as exc:
        raise InputError(f"{source}{exc}") from None


class _ParseError(InputError):
    """An error in a map's text; its message follows the source's name."""


@lru_cache(maxsize=MAP_CACHE_SIZE)
def _parse(text: str) -> Endomorphism:
    statements: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _ParseError(
                f":{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in statements:
            raise _ParseError(f":{lineno}: duplicate statement {key!r}")
        statements[key] = (value, lineno)

    def natural(key: str) -> int:
        if key not in statements:
            raise _ParseError(f": missing required statement '{key} = ...'")
        value, lineno = statements[key]
        try:
            parsed = int(value)
        except ValueError:
            raise _ParseError(
                f":{lineno}: {key} must be an integer, got {value!r}") from None
        if parsed < 1:
            raise _ParseError(f":{lineno}: {key} must be >= 1")
        return parsed

    n = natural("n")
    k = natural("k")
    # every form must be present before any is parsed: parse_form builds
    # lists of n + 1 exponents, so an n beyond the file's length is refused
    missing = next((i for i in range(n + 1) if f"f{i}" not in statements), None)
    if missing is not None:
        raise _ParseError(f": missing required statement 'f{missing} = ...'")
    forms = []
    for i in range(n + 1):
        key = f"f{i}"
        value, lineno = statements[key]
        try:
            form = parse_form(value, n + 1)
        except InputError as exc:
            raise _ParseError(f":{lineno}: {key}: {exc}") from None
        if form.degree != k:
            raise _ParseError(
                f":{lineno}: {key} has degree {form.degree}, expected k={k}")
        forms.append(form)
    extra = set(statements) - {"n", "k"} - {f"f{i}" for i in range(n + 1)}
    if extra:
        key = sorted(extra)[0]
        raise _ParseError(
            f":{statements[key][1]}: unexpected statement {key!r}")
    return Endomorphism(n, k, tuple(forms))


def load_endomorphism(path: str) -> Endomorphism:
    return parse_endomorphism(read_input_file(path, "endomorphism"),
                              source=path)
