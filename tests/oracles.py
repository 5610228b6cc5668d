"""Reference implementations that the tests compare the package against.

None of them is used by the package itself: ``rank_bareiss`` is the
oracle of the certified rational rank, ``matrix`` builds an ExactMatrix
from dense rows, ``multiply`` is the polynomial product behind
``multiplication_matrix``, ``monomials_by_recursion`` enumerates the
graded basis that ``monomial_array`` holds, ``parse_form_by_scanner``
reads a form one character at a time, as ``parse_form`` must agree with,
``prune_lead_by_rescans`` rescans every entry left in each round, as
``exactla._prune_lead`` must agree with, pivot for pivot,
``ci_h0_by_subsets`` walks every subset of the defining degrees, as
the grouped Koszul terms of ``KoszulTable`` must agree with,
``hilbert_function`` ranks a map's multiplication matrix in any degree,
not only the socle degree that ``validate_finite`` ranks,
``splitting_by_ranks`` reads a map's splitting off that Hilbert
function degree by degree, as the closed form must agree with on every
finite map, and ``h1_witness_by_sums`` sums h^1(I_{X'}(l)) twist by
twist, as the ``h1_vanishing`` witness derived in ``pullback`` must
agree with.
"""

import sys
from itertools import combinations

import numpy as np

from pushsplit.errors import FormSyntaxError, InputError, TableRangeError
from pushsplit.exactla import ExactMatrix, rank_verified, value_array
from pushsplit.polyring import HomogPoly, Monomial, graded_dim, \
    multiplication_matrix
from pushsplit.splitting import delta, splitting_universal


def rank_bareiss(rows: list[list[int]]) -> int:
    """Bareiss elimination over Z; divisions are exact (entries are minors)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, nrows):
            row_i, row_r = rows[i], rows[r]
            f = row_i[c]
            for j in range(c + 1, ncols):
                row_i[j] = (pivot * row_i[j] - f * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        r += 1
    return r


def prune_lead_by_rescans(rows, cols, residues, n: int, lead: int):
    """``exactla._prune_lead`` recounting each row's entries of S, and
    filtering them, in every round."""
    lead_cells = cols < lead
    rows, cols, values = rows[lead_cells], cols[lead_cells], residues[lead_cells]
    alive = np.ones(n, dtype=bool)
    count, steps = 0, []
    while rows.size:
        alone = np.flatnonzero(np.bincount(rows, minlength=n)[rows] == 1)
        if alone.size == 0:
            break
        found, first = np.unique(cols[alone], return_index=True)
        pivots = rows[alone[first]]
        alive[pivots] = False
        count += found.size
        hit = np.zeros(lead, dtype=bool)
        hit[found] = True
        hit = hit[cols]
        other = hit & alive[rows]
        steps.append((pivots, values[alone[first]], rows[other],
                      np.searchsorted(found, cols[other]), values[other]))
        keep = ~hit
        rows, cols, values = rows[keep], cols[keep], values[keep]
    return count, alive, steps, rows, cols, values


def matrix(rows_list, cols: int | None = None) -> ExactMatrix:
    """The ExactMatrix of dense rows; ``cols`` fixes the width of an empty one."""
    rows = len(rows_list)
    if rows:
        if cols is not None and cols != len(rows_list[0]):
            raise ValueError("cols does not match row length")
        cols = len(rows_list[0])
    else:
        cols = cols or 0
    for row in rows_list:
        if len(row) != cols:
            raise ValueError("ragged rows")
    kept = [(r, c, x) for r, row in enumerate(rows_list)
            for c, x in enumerate(row) if x != 0]
    return ExactMatrix(rows, cols,
                       np.array([r for r, _, _ in kept], dtype=np.int64),
                       np.array([c for _, c, _ in kept], dtype=np.int64),
                       value_array(x for _, _, x in kept))


def multiply(p: HomogPoly, q: HomogPoly) -> HomogPoly:
    """Product of homogeneous polynomials; degrees add, zero terms pruned."""
    if p.num_vars != q.num_vars:
        raise InputError("product of forms in different variable counts")
    coeffs: dict[Monomial, int] = {}
    for mp, cp in p.terms:
        for mq, cq in q.terms:
            mono = tuple(a + b for a, b in zip(mp, mq))
            coeffs[mono] = coeffs.get(mono, 0) + cp * cq
    return HomogPoly.from_dict(p.num_vars, p.degree + q.degree, coeffs)


def monomials_by_recursion(num_vars: int, degree: int) -> tuple[Monomial, ...]:
    """Exponent tuples of one degree in descending lex order, the first
    exponent outermost; recurses once per variable."""
    if degree < 0:
        return ()
    if num_vars == 1:
        return ((degree,),)
    return tuple((e0,) + rest for e0 in range(degree, -1, -1)
                 for rest in monomials_by_recursion(num_vars - 1, degree - e0))


def ci_h0_by_subsets(n: int, degrees, t: int) -> int:
    """The truncated Koszul sum sum_S (-1)^|S| graded_dim(n+1, t - sum(S))
    over every subset S of the defining degrees, one term per subset."""
    total = 0
    for size in range(len(degrees) + 1):
        for subset in combinations(degrees, size):
            total += (-1) ** size * graded_dim(n + 1, t - sum(subset))
    return total


def hilbert_function(e, t: int) -> int:
    """HF(t) of S/(f_0, ..., f_n): dim S_t minus the ``rank_verified``
    rank of (g_i)_i |-> sum f_i g_i from (+)_i S_{t-k}."""
    m = multiplication_matrix(e.forms, t - e.k)
    return graded_dim(e.n + 1, t) - rank_verified(m).value


def splitting_by_ranks(e, l: int) -> dict[int, int]:
    """The nonzero multiplicities m_{l,d} = HF(l+kd) of the map ``e``,
    one ``hilbert_function`` rank per twist d from -floor(l/k) to
    delta(n, k, l); no finiteness test."""
    counts = {}
    for d in range(-(l // e.k), delta(e.n, e.k, l) + 1):
        m = hilbert_function(e, l + e.k * d)
        if m:
            counts[d] = m
    return counts


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def natural(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise FormSyntaxError("expected a number", start)
        digits = sys.get_int_max_str_digits()
        if digits and self.pos - start > digits:
            raise FormSyntaxError(
                f"number with more than {digits} digits, the interpreter's "
                "limit for reading an integer (sys.set_int_max_str_digits)",
                start)
        return int(self.text[start:self.pos])


def parse_form_by_scanner(text: str, num_vars: int) -> HomogPoly:
    """``parse_form`` by recursive descent over single characters: the
    same forms, errors, messages and positions."""
    sc = _Scanner(text)
    coeffs: dict[Monomial, int] = {}
    degrees = set()

    def parse_factor() -> tuple[int, int]:
        sc.skip_ws()
        at = sc.pos
        if sc.peek() != "y":
            raise FormSyntaxError("expected variable 'y<index>'", at)
        sc.take()
        idx = sc.natural()
        if idx >= num_vars:
            raise FormSyntaxError(
                f"variable index {idx} out of range (num_vars={num_vars})", at)
        exp = 1
        if sc.peek() == "^":
            sc.take()
            exp = sc.natural()
        return idx, exp

    def parse_term(sign: int):
        coeff = sign
        if sc.peek().isdecimal():
            coeff *= sc.natural()
            sc.skip_ws()
            at = sc.pos
            if sc.take() != "*":
                raise FormSyntaxError("expected '*' after coefficient", at)
        mono = [0] * num_vars
        idx, exp = parse_factor()
        mono[idx] += exp
        while sc.peek() == "*":
            sc.take()
            idx, exp = parse_factor()
            mono[idx] += exp
        mono_t = tuple(mono)
        degrees.add(sum(mono_t))
        coeffs[mono_t] = coeffs.get(mono_t, 0) + coeff

    sign = 1
    if sc.peek() in "+-":
        sign = -1 if sc.take() == "-" else 1
    parse_term(sign)
    while True:
        ch = sc.peek()
        if ch == "":
            break
        at = sc.pos
        if ch not in "+-":
            raise FormSyntaxError("expected '+', '-' or end of form", at)
        sc.take()
        parse_term(-1 if ch == "-" else 1)

    if len(degrees) > 1:
        raise InputError(
            f"form is not homogeneous: term degrees {sorted(degrees)}")
    degree = degrees.pop()
    poly = HomogPoly.from_dict(num_vars, degree, coeffs)
    if poly.is_zero():
        raise InputError("form cancels to zero")
    return poly


def h1_witness_by_sums(m, k: int, l_top: int):
    """The twists 0..l_top whose sum h^1(I_{X'}(l)) = sum_d m_{l,d} *
    h^1(I_X(-d)) the table of model ``m`` answers, summed twist by twist
    until the first that leaves its range, as [0, last] or [], and the
    (l, value) of every nonzero sum among them."""
    checked, nonzero = [], []
    for l in range(l_top + 1):
        try:
            value = sum(mult * m.table.hI(1, -d) for d, mult
                        in splitting_universal(m.n, k, l).multiplicities)
        except TableRangeError:
            break
        checked.append(l)
        if value:
            nonzero.append((l, value))
    return ([0, checked[-1]] if checked else []), nonzero
