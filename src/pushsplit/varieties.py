"""Model varieties X in P^n with exact cohomology tables.

Three model classes cover everything downstream: the ambient space P^n,
complete intersections (cohomology in closed form via the Koszul
resolution and Serre duality), and explicit user-supplied tables over a
bounded twist range.  Tables answer three queries: h^i(O_X(t)), ideal
cohomology h^i(I_X(t)), and dualizing cohomology h^i(omega_X(t)) when the
table declares the model subcanonical (omega_X = O_X(e)).

Explicit tables never extrapolate: a query outside the declared range
raises TableRangeError, because a silent zero would corrupt the
decomposition sums built on top.

Each process parses a table's text once (``_parse_table``,
TABLE_CACHE_SIZE kept, keyed by the text alone): ``load_custom_table``
reads its file again on every call, so an edited file is seen, and the
same text returns the same read-only table.  Errors are raised, never
cached, and name the source they were given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError, MissingDataError, TableRangeError, \
    read_input_file
from .polyring import graded_dim

# Tables kept by _parse_table; each holds its text and rows.
TABLE_CACHE_SIZE = 64


def _koszul_terms(degrees: tuple) -> tuple[tuple[int, int], ...]:
    """prod_i (1 - t^{d_i}) as (shift, coefficient) pairs.

    Subsets with equal degree sums are grouped into one term, zero
    coefficients are dropped, and the shifts ascend.
    """
    poly = {0: 1}
    for d in degrees:
        product = dict(poly)
        for shift, coef in poly.items():
            product[shift + d] = product.get(shift + d, 0) - coef
        poly = product
    return tuple((shift, coef) for shift, coef in sorted(poly.items()) if coef)


def _koszul_sum(n: int, terms: tuple, t: int) -> int:
    """sum_s c_s graded_dim(n+1, t - s) over the grouped Koszul terms."""
    total = 0
    for shift, coef in terms:
        if shift > t:
            break
        total += coef * graded_dim(n + 1, t - shift)
    return total


class KoszulTable:
    """Cohomology of a complete intersection (or of P^n itself).

    h^0 is the truncated Koszul sum over the grouped terms of
    prod_i (1 - t^{d_i}), expanded once when the table is built and
    evaluated at most once per twist t on each table.  The top row comes
    from Serre duality with the subcanonical twist
    e = sum(degrees) - n - 1, and middle cohomology vanishes.
    Zero-dimensional intersections are the one
    special case: h^0(O_X(t)) equals the degree for every t (line bundles
    on a finite scheme have no condition), while the truncated sum still
    gives the graded dimensions used by the ideal rows.

    Ideal cohomology comes from 0 -> I_X -> O_P -> O_X -> 0; for X = P^n
    the ideal sheaf is zero and every ideal row is 0.  Every row answers
    every twist: ``trange`` is unbounded and ``ideal_indices`` is 0..n.
    """

    trange = (-math.inf, math.inf)

    def __init__(self, n: int, degrees=()):
        degrees = tuple(degrees)
        if n < 1:
            raise InputError(f"n must be >= 1, got {n}")
        if len(degrees) > n:
            raise InputError(f"at most {n} defining degrees allowed in "
                             f"P^{n}, got {len(degrees)}")
        if any(d < 1 for d in degrees):
            raise InputError(f"defining degrees must be >= 1, got {degrees}")
        self.n = n
        self.degrees = degrees
        self.dim = n - len(degrees)
        self.degree = 1
        for d in degrees:
            self.degree *= d
        self.omega_twist = sum(degrees) - n - 1
        self.ideal_indices = tuple(range(n + 1))
        self._terms = _koszul_terms(degrees)
        self._truncated_at: dict[int, int] = {}

    def _truncated(self, t: int) -> int:
        value = self._truncated_at.get(t)
        if value is None:
            value = self._truncated_at[t] = _koszul_sum(self.n, self._terms, t)
        return value

    def h(self, i: int, t: int) -> int:
        if i < 0 or i > self.dim:
            return 0
        if self.dim == 0:
            return self.degree
        if i == 0:
            return self._truncated(t)
        if i == self.dim:
            return self._truncated(self.omega_twist - t)
        return 0

    def hI(self, i: int, t: int) -> int:
        n = self.n
        if not self.degrees:
            return 0
        if i < 0 or i > n:
            return 0
        if i == 0:
            return graded_dim(n + 1, t) - self._truncated(t)
        surplus = self.h(0, t) - self._truncated(t)
        if i == 1:
            extra = graded_dim(n + 1, -n - 1 - t) if n == 1 else 0
            return surplus + extra
        if i < n:
            return self.h(i - 1, t)
        return self.h(n - 1, t) + graded_dim(n + 1, -n - 1 - t)

    def h_omega(self, i: int, t: int) -> int:
        return self.h(i, self.omega_twist + t)


class ExplicitTable:
    """Bounded cohomology table backed by explicit rows.

    ``rows`` maps (i, t) -> h^i(O_X(t)) and must cover every i in
    [0, dim], t in [lo, hi].  ``ideal_rows`` maps (i, t) -> h^i(I_X(t))
    for whichever i the table declares (full t coverage per declared i);
    ``ideal_indices`` lists those i in ascending order.
    ``omega_twist`` set means the model is subcanonical with
    omega_X = O_X(omega_twist).
    """

    def __init__(self, n: int, dim: int, degree: int, trange: tuple[int, int],
                 rows: dict, ideal_rows: dict | None = None,
                 omega_twist: int | None = None):
        if not 0 <= dim <= n:
            raise InputError(f"dim must lie in [0, {n}], got {dim}")
        if degree < 1:
            raise InputError(f"degree must be >= 1, got {degree}")
        lo, hi = trange
        if lo > hi:
            raise InputError(f"empty twist range {lo}..{hi}")
        for i in range(dim + 1):
            for t in range(lo, hi + 1):
                if (i, t) not in rows:
                    raise InputError(f"missing table row h {i} {t}")
        for (i, t), value in rows.items():
            if not 0 <= i <= dim:
                raise InputError(f"row h {i} {t}: i outside [0, {dim}]")
            if not lo <= t <= hi:
                raise InputError(f"row h {i} {t}: t outside {lo}..{hi}")
            if value < 0:
                raise InputError(f"row h {i} {t}: negative value")
        ideal_rows = dict(ideal_rows or {})
        declared = {i for i, _ in ideal_rows}
        for (i, t), value in ideal_rows.items():
            if not 0 <= i <= n:
                raise InputError(f"row hI {i} {t}: i outside [0, {n}]")
            if not lo <= t <= hi:
                raise InputError(f"row hI {i} {t}: t outside {lo}..{hi}")
            if value < 0:
                raise InputError(f"row hI {i} {t}: negative value")
        for i in declared:
            for t in range(lo, hi + 1):
                if (i, t) not in ideal_rows:
                    raise InputError(f"missing table row hI {i} {t}")
        self.n = n
        self.dim = dim
        self.degree = degree
        self.trange = (lo, hi)
        self.omega_twist = omega_twist
        self._rows = dict(rows)
        self._ideal_rows = ideal_rows
        self.ideal_indices = tuple(sorted(declared))

    def _check_range(self, t: int, what: str):
        lo, hi = self.trange
        if not lo <= t <= hi:
            raise TableRangeError(
                f"{what} twist {t} outside declared range {lo}..{hi}")

    def h(self, i: int, t: int) -> int:
        if i < 0 or i > self.dim:
            return 0
        self._check_range(t, f"h^{i}")
        return self._rows[(i, t)]

    def hI(self, i: int, t: int) -> int:
        if i < 0 or i > self.n:
            return 0
        if not self.ideal_indices:
            raise MissingDataError("table declares no ideal cohomology rows")
        if i not in self.ideal_indices:
            raise MissingDataError(
                f"table declares no ideal cohomology rows for i={i}")
        self._check_range(t, f"h^{i}(I)")
        return self._ideal_rows[(i, t)]

    def h_omega(self, i: int, t: int) -> int:
        if self.omega_twist is None:
            raise MissingDataError(
                "table declares no dualizing data (omega_twist=none)")
        return self.h(i, self.omega_twist + t)


@dataclass(frozen=True)
class ModelVariety:
    """A variety X in P^n: a name, its cohomology table and one flag.

    The table is the only source of the model's numbers: ``n``, ``dim``,
    ``degree``, ``codim``, ``subcanonical_twist`` (the e with
    omega_X = O_X(e), or None) and ``is_linear_pm`` are read from it.
    ``smooth_general_position`` is a user assertion, never computed;
    verdict operations echo it.
    """

    name: str
    table: KoszulTable | ExplicitTable
    smooth_general_position: bool = False

    @property
    def is_linear_pm(self) -> bool:
        """X is a linear P^m (the excluded pair (P^m, O(1))): degree 1."""
        return self.table.degree == 1

    @property
    def n(self) -> int:
        return self.table.n

    @property
    def dim(self) -> int:
        return self.table.dim

    @property
    def degree(self) -> int:
        return self.table.degree

    @property
    def codim(self) -> int:
        return self.table.n - self.table.dim

    @property
    def subcanonical_twist(self) -> int | None:
        return self.table.omega_twist

    @property
    def has_dualizing(self) -> bool:
        return self.table.omega_twist is not None


def projective_space(n: int, smooth_general_position: bool = True) -> ModelVariety:
    return ModelVariety(f"p{n}", KoszulTable(n, ()), smooth_general_position)


def complete_intersection(n: int, degrees,
                          smooth_general_position: bool = True) -> ModelVariety:
    degrees = tuple(degrees)
    if not degrees:
        raise InputError("a complete intersection needs at least one degree")
    name = "ci:" + ",".join(str(d) for d in degrees) + f"@{n}"
    return ModelVariety(name, KoszulTable(n, degrees), smooth_general_position)


PLANE_TRANGE = (-60, 60)


def plane_in_p4(smooth_general_position: bool = True) -> ModelVariety:
    """The 2-plane in P^4 as an explicit bounded table.

    Values are those of the linear section P^2 in P^4 (degree 1,
    omega = O(-3)).  Every call shares one table, built once per process;
    nothing writes to a table after it is built.
    """
    return ModelVariety("plane@4", _plane_table(), smooth_general_position)


@lru_cache(maxsize=None)
def _plane_table() -> ExplicitTable:
    reference = KoszulTable(4, (1, 1))
    lo, hi = PLANE_TRANGE
    rows = {(i, t): reference.h(i, t)
            for i in range(3) for t in range(lo, hi + 1)}
    ideal_rows = {(i, t): reference.hI(i, t)
                  for i in range(5) for t in range(lo, hi + 1)}
    return ExplicitTable(4, 2, 1, PLANE_TRANGE, rows, ideal_rows,
                         omega_twist=-3)


# ---------------------------------------------------------------------------
# table file format
#
# Header statements (one per line): n=, dim=, degree=, omega_twist=<int|none>,
# trange=<a>..<b>, and optional flags general_position=<bool> and
# linear_pm=<bool>, which must be true exactly when degree=1.
# Then one row per line: 'h <i> <t> <value>' or 'hI <i> <t> <value>'.
# '#' starts a comment.  Every (i, t) with 0 <= i <= dim, t in trange must be
# present; hI coverage is per declared i.


def parse_table(text: str, source: str = "<string>") -> tuple[ExplicitTable, dict]:
    """The table and flags a table text declares; errors name ``source``.

    Each text is parsed once per process and its table shared, the
    TABLE_CACHE_SIZE most recently used kept (``_parse_table``, keyed by
    the text alone).  Errors are raised, never cached.
    """
    try:
        table, general_position = _parse_table(text)
    except _ParseError as exc:
        raise InputError(f"{source}{exc}") from None
    return table, {"general_position": general_position}


class _ParseError(InputError):
    """An error in a table's text; its message follows the source's name."""


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _parse_table(text: str) -> tuple[ExplicitTable, bool]:
    headers: dict[str, str] = {}
    rows: dict[tuple[int, int], int] = {}
    ideal_rows: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] in ("h", "hI"):
            if len(fields) != 4:
                raise _ParseError(
                    f":{lineno}: expected '{fields[0]} <i> <t> <value>'")
            try:
                i, t, value = (int(x) for x in fields[1:])
            except ValueError:
                raise _ParseError(
                    f":{lineno}: non-integer row entry") from None
            target = rows if fields[0] == "h" else ideal_rows
            if (i, t) in target:
                raise _ParseError(f":{lineno}: duplicate row {line!r}")
            target[(i, t)] = value
        elif "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            if key in headers:
                raise _ParseError(f":{lineno}: duplicate header {key!r}")
            headers[key] = value
        else:
            raise _ParseError(f":{lineno}: unrecognized line {line!r}")

    def header_int(key: str) -> int:
        if key not in headers:
            raise _ParseError(f": missing header '{key}='")
        try:
            return int(headers[key])
        except ValueError:
            raise _ParseError(
                f": header {key}={headers[key]!r} is not an integer") from None

    def header_bool(key: str) -> bool:
        value = headers.get(key, "false").lower()
        if value not in ("true", "false"):
            raise _ParseError(f": header {key}= must be true or false")
        return value == "true"

    n = header_int("n")
    dim = header_int("dim")
    degree = header_int("degree")
    if "omega_twist" not in headers:
        raise _ParseError(": missing header 'omega_twist='")
    omega_raw = headers["omega_twist"]
    try:
        omega_twist = None if omega_raw == "none" else int(omega_raw)
    except ValueError:
        raise _ParseError(f": header omega_twist={omega_raw!r} is "
                          "neither an integer nor 'none'") from None
    if "trange" not in headers:
        raise _ParseError(": missing header 'trange='")
    trange_raw = headers["trange"]
    if ".." not in trange_raw:
        raise _ParseError(": trange must look like '<a>..<b>'")
    lo_text, hi_text = trange_raw.split("..", 1)
    try:
        trange = (int(lo_text), int(hi_text))
    except ValueError:
        raise _ParseError(": trange must look like '<a>..<b>'") from None
    known = {"n", "dim", "degree", "omega_twist", "trange",
             "linear_pm", "general_position"}
    unknown = set(headers) - known
    if unknown:
        raise _ParseError(f": unknown header {sorted(unknown)[0]!r}")
    try:
        table = ExplicitTable(n, dim, degree, trange, rows, ideal_rows,
                              omega_twist)
    except InputError as exc:
        raise _ParseError(f": {exc}") from None
    if "linear_pm" in headers and header_bool("linear_pm") != (degree == 1):
        raise _ParseError(
            f": header linear_pm={headers['linear_pm']} contradicts "
            f"degree={degree}: a linear P^m is exactly a degree-1 table")
    return table, header_bool("general_position")


def load_custom_table(path: str) -> ModelVariety:
    table, flags = parse_table(read_input_file(path, "table"), source=path)
    return ModelVariety(f"table:{path}", table,
                        smooth_general_position=flags["general_position"])
