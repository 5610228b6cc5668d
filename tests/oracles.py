"""Reference implementations that the tests compare the package against.

None of them is used by the package itself: ``rank_bareiss`` is the
oracle of the certified rational rank, ``matrix`` builds an ExactMatrix
from dense rows, ``multiply`` is the polynomial product behind
``multiplication_matrix``, and ``monomials_by_recursion`` enumerates the
graded basis that ``monomial_array`` holds.
"""

from pushsplit.errors import InputError
from pushsplit.exactla import ExactMatrix
from pushsplit.polyring import HomogPoly, Monomial


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
    return ExactMatrix.from_coo(rows, cols, ((r, c, x)
                                             for r, row in enumerate(rows_list)
                                             for c, x in enumerate(row)))


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
