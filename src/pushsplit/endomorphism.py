"""Finite endomorphisms of projective space given by n+1 degree-k forms.

Finiteness (no common projective zero) is decided by one rank computation:
n+1 forms of degree k in n+1 variables are a regular sequence exactly when
the quotient ring vanishes past the socle degree (n+1)(k-1), so it
suffices that every monomial of degree D = (n+1)(k-1)+1 lies in the ideal,
i.e. that the multiplication matrix (+)_i S'_{D-k} -> S'_D has full row
rank, decided by ``exactla.rank_verified``: full rank modulo a single
prime already certifies FINITE (modular rank never exceeds rational
rank); without full rank, primes that disagree escalate to a rational
rank, and so does an explicit request.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import InputError
from .exactla import DEFAULT_PRIMES, rank_verified
from .polyring import HomogPoly, graded_dim, monomials_of_degree, \
    multiplication_matrix, parse_form

FINITE = "FINITE"
NOT_FINITE = "NOT_FINITE"


@dataclass(frozen=True)
class FinitenessReport:
    """Evidence behind a FINITE / NOT_FINITE verdict.

    ``test_degree`` is D = (n+1)(k-1)+1 and ``required_rank`` the dimension
    of S'_D; ``modular_ranks`` maps prime -> computed rank; ``rational_rank``
    is set when an exact confirmation pass ran.  ``certificate`` names how
    the verdict was reached.
    """

    verdict: str
    test_degree: int
    required_rank: int
    modular_ranks: tuple[tuple[int, int], ...] = ()
    rational_rank: int | None = None
    certificate: str = "rank-test"

    @property
    def is_finite(self) -> bool:
        return self.verdict == FINITE


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

    @property
    def finiteness(self) -> FinitenessReport | None:
        """Cached verdict from validate_finite, or None if not yet run."""
        return self._finiteness[0] if self._finiteness else None

    def require_finite(self):
        report = self.finiteness
        if report is None:
            raise InputError(
                "endomorphism not validated; run validate_finite first")
        if not report.is_finite:
            raise InputError("endomorphism is not finite")


def power_map(n: int, k: int) -> Endomorphism:
    """The coordinate-power map (y_0^k, ..., y_n^k).

    Its forms are a regular sequence for every k >= 1, so the finiteness
    certificate is attached analytically, without a rank computation.
    """
    forms = tuple(
        HomogPoly.monomial(tuple(k if j == i else 0 for j in range(n + 1)))
        for i in range(n + 1))
    e = Endomorphism(n, k, forms)
    degree = (n + 1) * (k - 1) + 1
    e._finiteness.append(FinitenessReport(
        verdict=FINITE,
        test_degree=degree,
        required_rank=graded_dim(n + 1, degree),
        certificate="regular-sequence"))
    return e


def validate_finite(e: Endomorphism, primes=DEFAULT_PRIMES,
                    exact: bool = False) -> FinitenessReport:
    """Decide finiteness by the socle-degree rank test and cache the result.

    FINITE as soon as one prime shows full row rank (that alone is a
    certificate).  When no prime does, the rank is computed in rational
    arithmetic if ``exact`` is set or the primes disagree, and decides the
    verdict.  Otherwise the verdict is NOT_FINITE, resting on primes that
    agree and can only err by under-reporting rank.
    """
    if e.finiteness is not None:
        return e.finiteness
    degree = (e.n + 1) * (e.k - 1) + 1
    required = graded_dim(e.n + 1, degree)
    matrix = multiplication_matrix(e.forms, degree - e.k)
    # the matrix has ``required`` rows and at least as many columns, so
    # full rank is full row rank
    rank = rank_verified(matrix, primes, exact)
    report = FinitenessReport(
        verdict=FINITE if rank.value == required else NOT_FINITE,
        test_degree=degree,
        required_rank=required,
        modular_ranks=rank.modular,
        rational_rank=rank.rational)
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
            form = parse_form(value, n + 1, letter="y")
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
