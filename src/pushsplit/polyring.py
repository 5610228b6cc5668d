"""Homogeneous polynomials over Z, graded pieces, and multiplication matrices.

A monomial is an exponent tuple of fixed length (the number of variables).
The canonical monomial order is descending lexicographic on exponent
tuples; within a fixed degree this agrees with graded-lex with
y0 > y1 > ... and it is fixed once so every matrix layout is reproducible
byte for byte.

Each graded basis is one cached (BASIS_CACHE_SIZE kept), read-only
``int64`` array (``monomial_array``), built without recursion, so any
number of variables works.

The one piece of linear algebra built here is ``multiplication_matrix``:
the matrix of (g_0,...,g_m) |-> sum_i f_i * g_i between graded pieces,
which drives both the splitting computation and the finiteness test.  It
is built in one pass over the terms of all forms together.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import FormSyntaxError, InputError
from .exactla import ExactMatrix, value_array

# Each function that uses numpy imports it, so that commands which never
# build a matrix (the closed-form ones) never load it.
if TYPE_CHECKING:
    import numpy as np

Monomial = tuple[int, ...]
BASIS_CACHE_SIZE = 128  # bases kept by monomial_array


def graded_dim(num_vars: int, degree: int) -> int:
    """Dimension of the degree-``degree`` piece of Z[y_0..y_{num_vars-1}].

    C(degree + num_vars - 1, num_vars - 1) for degree >= 0, else 0.
    """
    if num_vars < 1:
        raise InputError(f"num_vars must be >= 1, got {num_vars}")
    if degree < 0:
        return 0
    return math.comb(degree + num_vars - 1, num_vars - 1)


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def monomial_array(num_vars: int, degree: int) -> np.ndarray:
    """The degree-``degree`` monomials as rows of a read-only int64 array,
    in canonical order.

    Stars and bars: a monomial is a choice of num_vars - 1 bar positions
    among degree + num_vars - 1 slots, and its exponents are the gaps
    between bars.  ``itertools.combinations`` yields the bar positions in
    ascending lex order, which is ascending lex order on exponents, so the
    rows are taken in reverse.
    """
    import numpy as np

    if num_vars < 1:
        raise InputError(f"num_vars must be >= 1, got {num_vars}")
    count = graded_dim(num_vars, degree)
    bars = np.fromiter(itertools.chain.from_iterable(itertools.combinations(
        range(degree + num_vars - 1), num_vars - 1)),
        dtype=np.int64, count=count * (num_vars - 1))
    fenced = np.empty((count, num_vars + 1), dtype=np.int64)
    fenced[:, 0] = -1
    fenced[:, 1:-1] = bars.reshape(count, num_vars - 1)[::-1]
    fenced[:, -1] = degree + num_vars - 1
    out = np.diff(fenced, axis=1) - 1
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class HomogPoly:
    """Homogeneous polynomial with integer coefficients.

    ``terms`` maps monomials (all of degree ``degree``) to nonzero
    coefficients, stored sorted in canonical monomial order.  The zero
    polynomial keeps its declared degree and has no terms.
    """

    num_vars: int
    degree: int
    terms: tuple[tuple[Monomial, int], ...]

    def __post_init__(self):
        for mono, coeff in self.terms:
            if len(mono) != self.num_vars:
                raise InputError(f"monomial {mono} has wrong variable count")
            if sum(mono) != self.degree:
                raise InputError(
                    f"monomial {mono} has degree {sum(mono)}, expected {self.degree}"
                )
            if coeff == 0:
                raise InputError("zero coefficient stored")

    @classmethod
    def from_dict(cls, num_vars: int, degree: int, coeffs: dict) -> "HomogPoly":
        items = tuple(sorted(
            ((m, c) for m, c in coeffs.items() if c != 0),
            key=lambda mc: mc[0], reverse=True))
        return cls(num_vars, degree, items)

    @classmethod
    def monomial(cls, exponents: Monomial, coeff: int = 1) -> "HomogPoly":
        if coeff == 0:
            return cls(len(exponents), sum(exponents), ())
        return cls(len(exponents), sum(exponents), ((tuple(exponents), coeff),))

    def is_zero(self) -> bool:
        return not self.terms

    def text(self) -> str:
        """Render in the input grammar (round-trips through parse_form)."""
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.terms:
            factors = []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(f"y{i}")
                elif e > 1:
                    factors.append(f"y{i}^{e}")
            mag = abs(coeff)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            piece = "*".join(factors)
            parts.append(("- " if coeff < 0 else "+ ") + piece)
        head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])


def multiplication_matrix(forms, source_degree: int) -> ExactMatrix:
    """Matrix of (g_i)_i |-> sum_i forms[i]*g_i between graded pieces.

    Rows: canonical monomials of degree source_degree + k.  Columns:
    pairs (i, canonical monomial of degree source_degree), i outermost.
    Degrees below zero give empty graded pieces, hence zero columns.
    Built as COO arrays in one pass over the terms of all forms: one
    triple per (source monomial, term of some forms[i]).
    """
    import numpy as np

    forms = tuple(forms)
    if not forms:
        raise InputError("at least one form required")
    k = forms[0].degree
    v = forms[0].num_vars
    for f in forms:
        if f.degree != k or f.num_vars != v:
            raise InputError("forms must share degree and variable count")
    source = monomial_array(v, source_degree)
    terms = [term for f in forms for term in f.terms]
    exps = np.array([mono for mono, _ in terms], dtype=np.int64).reshape(-1, v)
    owner = np.repeat(np.arange(len(forms)), [len(f.terms) for f in forms])
    # one triple per (source monomial, term), source monomial outermost
    cols = owner[None, :] * len(source) + np.arange(len(source))[:, None]
    rows = _product_rank(source, exps, source_degree + k)
    return ExactMatrix(graded_dim(v, source_degree + k),
                       len(forms) * len(source), rows.ravel(), cols.ravel(),
                       np.tile(value_array(c for _, c in terms), len(source)))


def _product_rank(source: np.ndarray, exps: np.ndarray,
                  degree: int) -> np.ndarray:
    """Row of each product source[j] + exps[t] in
    monomial_array(v, degree), as an array of shape
    (len(source), len(exps)).

    In descending lex order, the monomials before (e_0, ..., e_{v-1}) are,
    for each position i < v-1, those that agree with it before i and have
    a larger exponent at i.  There are graded_dim(v - i, d_i - e_i - 1) of
    them, where d_i = degree - e_0 - ... - e_{i-1}.  The prefix sums of a
    product are those of its factors added, so the products themselves
    are never formed.
    """
    import numpy as np

    v = source.shape[1]
    # counts[u, s] = graded_dim(u, s - 1): monomials of degree s-1 in u variables
    counts = np.array([[0] * (degree + 1)] + [
        [graded_dim(u, s - 1) for s in range(degree + 1)] for u in range(1, v + 1)],
        dtype=np.int64)
    left = degree - np.cumsum(source[:, :-1], axis=1)
    right = np.cumsum(exps[:, :-1], axis=1)
    out = np.zeros((len(source), len(exps)), dtype=np.int64)
    # one column at a time: numpy is slow along a short last axis
    for i in range(v - 1):
        out += counts[v - i][left[:, i, None] - right[None, :, i]]
    return out


# ---------------------------------------------------------------------------
# parser
#
# form    := ['+'|'-'] term (('+' | '-') term)*
# term    := [natural '*'] factor ('*' factor)*
# factor  := variable ['^' natural]
# variable := 'y' natural
#
# Whitespace insignificant.  No parentheses, no implicit multiplication;
# constants appear only as leading coefficients of a term.
#
# _TOKEN reads one token and the whitespace before it: a whole factor
# (index and optional exponent), a natural, or any other single
# character.  A 'y' or '^' left as a character token is a factor missing
# its number.  ``\s`` and ``\d`` match exactly the characters that
# str.isspace and str.isdecimal accept.

_TOKEN = re.compile(r"\s*(?:y\s*(\d+)(?:\s*\^\s*(\d+))?|(\d+)|(\S))")


def parse_form(text: str, num_vars: int) -> HomogPoly:
    """Parse an integer-coefficient homogeneous form.

    Raises FormSyntaxError (with character position) on bad syntax, a
    variable index >= num_vars or a number with more digits than
    ``int()`` reads (sys.get_int_max_str_digits, 0 for no limit),
    InputError if the terms are not all of one degree.  The position is
    that of the first offending token (of the number's first digit for a
    long number), the end of the text when the form stops short, and one
    past the end of a form with no token at all.
    """
    # (index, exponent, natural, character), '' where absent; token
    # ``end`` is an all-empty sentinel
    tokens = _TOKEN.findall(text)
    end = len(tokens)
    if not end:
        raise FormSyntaxError("expected variable 'y<index>'", len(text) + 1)
    tokens.append(("", "", "", ""))
    coeffs: dict[Monomial, int] = {}
    degrees = set()
    sign, i = 1, 0
    if tokens[0][3] in ("+", "-"):
        sign, i = (-1 if tokens[0][3] == "-" else 1), 1
    try:
        while True:
            coeff = sign
            if tokens[i][2]:
                coeff *= int(tokens[i][2])
                i += 1
                if tokens[i][3] != "*":
                    raise FormSyntaxError("expected '*' after coefficient",
                                          _position(text, i))
                i += 1
            mono = [0] * num_vars
            while True:
                index, exp, _, char = tokens[i]
                if not index:
                    if char != "y":
                        raise FormSyntaxError("expected variable 'y<index>'",
                                              _position(text, i))
                    raise FormSyntaxError("expected a number",
                                          _position(text, i + 1))
                idx = int(index)
                if idx >= num_vars:
                    raise FormSyntaxError(f"variable index {idx} out of range "
                                          f"(num_vars={num_vars})",
                                          _position(text, i))
                if exp:
                    mono[idx] += int(exp)
                elif tokens[i + 1][3] == "^":
                    raise FormSyntaxError("expected a number",
                                          _position(text, i + 2))
                else:
                    mono[idx] += 1
                i += 1
                if tokens[i][3] != "*":
                    break
                i += 1
            mono_t = tuple(mono)
            degrees.add(sum(mono_t))
            coeffs[mono_t] = coeffs.get(mono_t, 0) + coeff
            if i == end:
                break
            char = tokens[i][3]
            if char not in ("+", "-"):
                raise FormSyntaxError("expected '+', '-' or end of form",
                                      _position(text, i))
            sign, i = (-1 if char == "-" else 1), i + 1
    except ValueError:
        # int() refuses only a natural longer than the interpreter's limit;
        # token i holds the first one read: an index, exponent or natural
        digits = sys.get_int_max_str_digits()
        group = next(g for g in (1, 2, 3) if len(tokens[i][g - 1]) > digits)
        raise FormSyntaxError(
            f"number with more than {digits} digits, the interpreter's limit "
            "for reading an integer (sys.set_int_max_str_digits)",
            list(_TOKEN.finditer(text))[i].start(group)) from None

    if len(degrees) > 1:
        raise InputError(
            f"form is not homogeneous: term degrees {sorted(degrees)}")
    degree = degrees.pop()
    poly = HomogPoly.from_dict(num_vars, degree, coeffs)
    if poly.is_zero():
        raise InputError("form cancels to zero")
    return poly


def _position(text: str, i: int) -> int:
    """Where token ``i`` of ``text`` starts, or the end of ``text``."""
    starts = [m.end() - len(m.group().lstrip()) for m in _TOKEN.finditer(text)]
    return starts[i] if i < len(starts) else len(text)
