"""Invariants and verdicts for the inverse image X' of a model variety.

For a degree-k endomorphism pi of P^n and X in P^n, every cohomology group
of X' = pi^{-1}(X) is a direct sum over the splitting type:

    h^i(O_{X'}(l)) = sum_d m_{l,d} * h^i(O_X(-d)),

and likewise with I_X (flat pullback of the ideal sheaf) and, for
0 <= l < k, with the dualizing sheaf where the d-th summand is twisted by
+d.  Everything here is a finite exact integer sum against the model's
table; no geometry is recomputed.  The sum is written once (``_Sums``),
and only the two reports build one: ``build_pullback_report`` here and
``adjunction.surface_adjunction``.  Each hands it to its verdicts, so a
report fetches the closed-form table once, reads m_{l,d} off it, and
reads each model table value once.

Verdicts are records with provenance: they echo the hypotheses they
consumed (k >= 2, the user-asserted general-position flag, the
connectedness witness h^0(O_X)) because most of the statements they
implement are conditional.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from .errors import InputError, IntegrityError, TableRangeError
from .splitting import _closed_form_box, delta
from .varieties import KoszulTable, ModelVariety

NOT_APPLICABLE = "NOT_APPLICABLE"
LINEARLY_COMPLETE = "LINEARLY_COMPLETE"
NOT_LINEARLY_COMPLETE = "NOT_LINEARLY_COMPLETE"
NONDEGENERATE = "NONDEGENERATE"
VERIFIED = "VERIFIED"
K_GE_2_REASON = "requires k >= 2 (the covering must not be an automorphism)"
MAX_TWISTS = 2 ** 16  # most twists in one report, the default -k..3k too


def pullback_degree(m: ModelVariety, k: int) -> int:
    """deg X' = deg X * k^codim."""
    return m.degree * k ** m.codim


class _Sums:
    """The sums sum_d m_{l,d} * row(i, -+d) over one model and one k.

    ``row`` names the query of the model's table: ``h`` and ``hI`` are
    read at -d, ``h_omega`` at +d.  ``totals`` gives the sums at one
    twist l for several i, ``total`` the sum for one.  The first sum
    fetches the closed-form table (``splitting._closed_form_box``, which
    refuses an oversized (n, k)), and every sum reads m_{l,d} = box[l+kd]
    off it.  Each table value is read once, when a sum first needs it.
    A read that raises keeps nothing, so the sums raise the same first
    error, in the same order, as reading the table every time.
    """

    def __init__(self, m: ModelVariety, k: int):
        self.m = m
        self.k = k
        self._box: tuple[int, ...] | None = None
        self._rows: defaultdict[tuple[str, int], dict[int, int]] = \
            defaultdict(dict)

    def value(self, row: str, i: int, t: int) -> int:
        values = self._rows[row, i]
        value = values.get(t)
        if value is None:
            value = values[t] = getattr(self.m.table, row)(i, t)
        return value

    def total(self, row: str, i: int, l: int) -> int:
        return self.totals(row, l, (i,))[0]

    def totals(self, row: str, l: int, indices) -> list[int]:
        """The sum at twist l for each i of ``indices``, in that order."""
        box, k = self._box, self.k
        if box is None:
            box = self._box = _closed_form_box(self.m.n, k)
        support = range(-(l // k), (len(box) - 1 - l) // k + 1)
        sign = 1 if row == "h_omega" else -1
        read = getattr(self.m.table, row)
        totals = []
        for i in indices:
            values = self._rows[row, i]
            total = 0
            for d in support:
                value = values.get(sign * d)
                if value is None:
                    value = values[sign * d] = read(i, sign * d)
                total += box[l + k * d] * value
            totals.append(total)
        return totals


@dataclass(frozen=True)
class Verdict:
    """A named outcome plus the evidence and hypotheses behind it.

    ``holds`` is None exactly when status is NOT_APPLICABLE.  ``witness``
    holds the numeric evidence; ``assumptions`` echoes consumed
    hypotheses.
    """

    name: str
    status: str
    holds: bool | None
    reason: str = ""
    witness: dict = field(default_factory=dict)
    assumptions: dict = field(default_factory=dict)


def _base_assumptions(m: ModelVariety, k: int, h0_x: int) -> dict:
    return {
        "k": k,
        "k_ge_2": k >= 2,
        "smooth_general_position": m.smooth_general_position,
        "h0_X": h0_x,
    }


@dataclass(frozen=True)
class CompletenessVerdict:
    nondegenerate: Verdict
    linearly_complete: Verdict
    h1_vanishing: Verdict


def _detect_s(sums: _Sums) -> tuple[str, int | None, tuple[int, int] | None]:
    """Largest s with h^1(I_X(d)) = 0 for all d < s, as far as the table shows.

    Returns (kind, value, scanned_range): kind 'infinite' (no failure
    anywhere the table answers), 'finite' (first failure at d = value,
    zeros below it within the scanned range), 'none' (failures extend
    to the bottom of what is known, so no vanishing range exists), or
    'unknown' (the table declares no h^1 ideal row).

    A KoszulTable answers every twist (its trange is unbounded) and is
    decided by its dimension: P^n, of dimension n >= 1, has ideal sheaf
    0, and for a complete intersection of dim >= 1 the table's
    h^0(O_X(d)) is the truncated Koszul sum, the dimension of the image
    of H^0(O_P(d)), so h^1(I_X(d)) = 0 for every d (``KoszulTable.hI``
    computes exactly this 0).  A zero-dimensional one has
    h^0(O_X(d)) = degree, and h^1(I_X(d)) > 0 for every d < 0.
    """
    m, table = sums.m, sums.m.table
    if 1 not in table.ideal_indices:
        return "unknown", None, None
    lo, hi = table.trange
    if lo == -math.inf:
        return ("infinite" if m.dim >= 1 else "none"), None, None
    failures = [d for d in range(lo, hi + 1)
                if sums.value("hI", 1, d) != 0]
    if not failures:
        return "infinite", None, (lo, hi)
    first = failures[0]
    if first == lo:
        return "none", None, (lo, hi)
    return "finite", first, (lo, hi)


def _completeness(sums: _Sums, assumptions: dict) -> CompletenessVerdict:
    """Nondegeneracy, linear completeness, and the ideal-h^1 vanishing bound.

    X' is nondegenerate for every k >= 2; it is linearly complete exactly
    when h^0(O_X) = 1, witnessed by h^0(O_{X'}(1)) = n+1.  If the model
    shows h^1(I_X(d)) = 0 for all d < s, then h^1(I_{X'}(l)) = 0 for all
    l < sk.  The witness ``verified_l_range`` is the twists 0..top,
    top = sk - 1 (3k when s is infinite), whose sums the table answers:
    the sum at l reads h^1(I_X(t)) for -delta(n, k, l) <= t <= floor(l/k)
    < s, every one 0 by ``_detect_s``, so each such sum is 0 and none is
    summed.  -delta(n, k, l) grows with l, so the range ends where
    floor(l/k) leaves the table, and is empty when l = 0 already reads
    below it.  A KoszulTable answers every twist and gets 0..top.  The
    value at l = sk is summed and reported when the table reaches it.
    """
    m, k = sums.m, sums.k
    if k < 2:
        return CompletenessVerdict(
            nondegenerate=Verdict("nondegenerate", NOT_APPLICABLE, None,
                                  K_GE_2_REASON, assumptions=assumptions),
            linearly_complete=Verdict("linearly_complete", NOT_APPLICABLE,
                                      None, K_GE_2_REASON,
                                      assumptions=assumptions),
            h1_vanishing=Verdict("h1_vanishing", NOT_APPLICABLE, None,
                                 K_GE_2_REASON, assumptions=assumptions))
    h0_x = sums.value("h", 0, 0)
    h0_prime_1 = sums.total("h", 0, 1)
    nondegenerate = Verdict(
        name="nondegenerate", status=NONDEGENERATE, holds=True,
        reason="X' spans its ambient space; asserted for every finite "
               "non-automorphism covering, with the dimension count as witness",
        witness={"h0_Xprime_1": h0_prime_1,
                 "expected_(n+1)*h0_X": (m.n + 1) * h0_x,
                 "consistent": h0_prime_1 == (m.n + 1) * h0_x},
        assumptions=assumptions)
    complete = h0_x == 1
    linearly_complete = Verdict(
        name="linearly_complete",
        status=LINEARLY_COMPLETE if complete else NOT_LINEARLY_COMPLETE,
        holds=complete,
        reason="linear completeness holds exactly when h^0(O_X) = 1; "
               f"here h^0(O_X) = {h0_x}",
        witness={"h0_Xprime_1": h0_prime_1, "n_plus_1": m.n + 1},
        assumptions=assumptions)

    kind, s_value, scanned = _detect_s(sums)
    witness: dict = {"s_kind": kind}
    if scanned is not None:
        witness["scanned_trange"] = list(scanned)
    if kind == "unknown":
        h1 = Verdict("h1_vanishing", NOT_APPLICABLE, None,
                     "model table declares no h^1 ideal rows",
                     witness=witness, assumptions=assumptions)
        return CompletenessVerdict(nondegenerate, linearly_complete, h1)
    if kind == "none":
        h1 = Verdict("h1_vanishing", NOT_APPLICABLE, None,
                     "h^1(I_X) never vanishes below a bound, "
                     "so no vanishing range for X' is claimed",
                     witness=witness, assumptions=assumptions)
        return CompletenessVerdict(nondegenerate, linearly_complete, h1)

    if kind == "finite":
        witness["s"] = s_value
        witness["vanishing_bound_sk"] = s_value * k
        l_top = s_value * k - 1
    else:
        witness["s"] = "infinity"
        l_top = 3 * k
    lo, hi = m.table.trange
    top = min(l_top, (hi + 1) * k - 1)
    witness["verified_l_range"] = \
        [0, top] if top >= 0 and -delta(m.n, k, 0) >= lo else []
    if kind == "finite":
        try:
            witness["value_at_sk"] = sums.total("hI", 1, s_value * k)
        except TableRangeError:
            pass
    h1 = Verdict(
        name="h1_vanishing",
        status=VERIFIED, holds=True,
        reason="h^1(I_X(d)) = 0 for d < s forces h^1(I_{X'}(l)) = 0 "
               "for l < s*k",
        witness=witness, assumptions=assumptions)
    return CompletenessVerdict(nondegenerate, linearly_complete, h1)


def _hyperplane_section(sums: _Sums, assumptions: dict) -> Verdict:
    """Linear completeness of the section Y' = X' and a hyperplane.

    Needs dim X >= 2, the general-position assertion, and k >= 2.  The
    numeric consequence is h^0(O_{Y'}(1)) = h^0(O_{X'}(1)) - h^0(O_{X'});
    the verdict covers every hyperplane meeting X' properly.
    """
    m, k = sums.m, sums.k
    if k < 2:
        return Verdict("hyperplane_section", NOT_APPLICABLE, None,
                       K_GE_2_REASON, assumptions=assumptions)
    if m.dim < 2:
        return Verdict("hyperplane_section", NOT_APPLICABLE, None,
                       f"requires dim X >= 2, got dim = {m.dim}",
                       assumptions=assumptions)
    if not m.smooth_general_position:
        return Verdict("hyperplane_section", NOT_APPLICABLE, None,
                       "general position not asserted",
                       assumptions=assumptions)
    h0_1 = sums.total("h", 0, 1)
    h0_0 = sums.total("h", 0, 0)
    return Verdict(
        name="hyperplane_section", status=LINEARLY_COMPLETE, holds=True,
        reason="the section of X' by any hyperplane meeting it properly "
               "is linearly complete",
        witness={"h0_Yprime_1": h0_1 - h0_0,
                 "h0_Xprime_1": h0_1, "h0_Xprime": h0_0},
        assumptions=assumptions)


@dataclass(frozen=True)
class PullbackReport:
    """Cohomology rows and verdicts for X' over a twist range.

    ``h_rows`` maps (i, l) to h^i(O_{X'}(l)); ``ideal_rows`` likewise for
    I_{X'} (only the i the model can answer); ``dualizing_rows`` maps
    (i, l) with 0 <= l < k to h^i(omega_{X'}(-l)) when dualizing data is
    available.  ``euler`` maps l to chi(O_{X'}(l)).
    """

    model: str
    n: int
    k: int
    dim: int
    degree: int
    degree_prime: int
    lrange: tuple[int, int]
    assumptions: dict
    h_rows: dict
    euler: dict
    completeness: CompletenessVerdict
    hyperplane: Verdict
    ideal_rows: dict | None = None
    dualizing_rows: dict | None = None


def _check_against_pulled_back_ci(table: KoszulTable, k: int,
                                  h_by_twist: dict) -> None:
    """Compare the summed rows, twist by twist, with X' computed directly.

    When X is the complete intersection of degrees d_i in P^n, X' is the
    one of degrees k*d_i, whose own Koszul table must give every row.
    """
    direct = KoszulTable(table.n, tuple(k * d for d in table.degrees))
    for l, row in h_by_twist.items():
        for i, value in enumerate(row):
            expected = direct.h(i, l)
            if value != expected:
                raise IntegrityError(
                    f"h^{i}(O_X'({l})) is {value} summed over the splitting "
                    f"type, but {expected} for the complete intersection of "
                    f"degrees {direct.degrees}", expected=expected,
                    actual=value)


def _by_row(by_twist: dict, indices) -> dict:
    """{(i, l): value} from each twist's values over ``indices``, row by
    row: the order in which a report prints them."""
    return {(i, l): row[j] for j, i in enumerate(indices)
            for l, row in by_twist.items()}


def build_pullback_report(m: ModelVariety, k: int,
                          lrange: tuple[int, int] | None = None) -> PullbackReport:
    """Assemble the full report.

    For a complete-intersection model every cohomology row is checked
    against the Koszul table of X' (IntegrityError on a mismatch).  A
    k < 1, an empty twist range or more than MAX_TWISTS twists is an
    InputError, raised before any sum.  Every row and verdict is summed
    by one ``_Sums``, so the closed-form table is fetched once and each
    model table value read once.  Twist by twist, the h rows come first
    and then the ideal rows the table declares (``ideal_indices``).
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if lrange is None:
        lrange = (-k, 3 * k)
    lo, hi = lrange
    if lo > hi:
        raise InputError(f"empty twist range {lo}..{hi}")
    if hi - lo + 1 > MAX_TWISTS:
        raise InputError(
            f"twist range {lo}..{hi} has {hi - lo + 1} twists, above the "
            f"limit 2**16 = {MAX_TWISTS}; choose a narrower --lrange")
    sums = _Sums(m, k)
    columns = range(m.dim + 1)
    declared = m.table.ideal_indices
    h_by_twist, ideal_by_twist = {}, {}
    for l in range(lo, hi + 1):
        h_by_twist[l] = sums.totals("h", l, columns)
        ideal_by_twist[l] = sums.totals("hI", l, declared)
    if isinstance(m.table, KoszulTable):
        _check_against_pulled_back_ci(m.table, k, h_by_twist)
    dualizing_rows = None
    if m.has_dualizing:
        dualizing_rows = _by_row(
            {l: sums.totals("h_omega", l, columns) for l in range(0, k)},
            columns)
    assumptions = _base_assumptions(m, k, sums.value("h", 0, 0))
    return PullbackReport(
        model=m.name, n=m.n, k=k, dim=m.dim, degree=m.degree,
        degree_prime=pullback_degree(m, k), lrange=(lo, hi),
        assumptions=assumptions,
        h_rows=_by_row(h_by_twist, columns),
        euler={l: sum((-1) ** i * value for i, value in enumerate(row))
               for l, row in h_by_twist.items()},
        completeness=_completeness(sums, assumptions),
        hyperplane=_hyperplane_section(sums, assumptions),
        ideal_rows=_by_row(ideal_by_twist, declared) or None,
        dualizing_rows=dualizing_rows)
