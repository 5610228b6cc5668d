"""Invariants and verdicts for the inverse image X' of a model variety.

For a degree-k endomorphism pi of P^n and X in P^n, every cohomology group
of X' = pi^{-1}(X) is a direct sum over the splitting type:

    h^i(O_{X'}(l)) = sum_d m_{l,d} * h^i(O_X(-d)),

and likewise with I_X (flat pullback of the ideal sheaf) and, for
0 <= l < k, with the dualizing sheaf where the d-th summand is twisted by
+d.  Everything here is a finite exact integer sum against the model's
table; no geometry is recomputed.

Verdicts are records with provenance: they echo the hypotheses they
consumed (k >= 2, the user-asserted general-position flag, the
connectedness witness h^0(O_X)) because most of the statements they
implement are conditional.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError, IntegrityError, MissingDataError, \
    TableRangeError
from .splitting import delta, splitting_universal
from .varieties import KoszulTable, ModelVariety

NOT_APPLICABLE = "NOT_APPLICABLE"
LINEARLY_COMPLETE = "LINEARLY_COMPLETE"
NOT_LINEARLY_COMPLETE = "NOT_LINEARLY_COMPLETE"
NONDEGENERATE = "NONDEGENERATE"
HYPOTHESIS_HOLDS = "HYPOTHESIS_HOLDS"
HYPOTHESIS_FAILS = "HYPOTHESIS_FAILS"
VERIFIED = "VERIFIED"
K_GE_2_REASON = "requires k >= 2 (the covering must not be an automorphism)"


def pullback_degree(m: ModelVariety, k: int) -> int:
    """deg X' = deg X * k^codim."""
    return m.degree * k ** m.codim


def pushforward_cohomology(m: ModelVariety, k: int, l: int, i: int) -> int:
    """h^i(O_{X'}(l)) = sum_d m_{l,d} * h^i(O_X(-d))."""
    st = splitting_universal(m.n, k, l)
    return sum(mult * m.h(i, -d) for d, mult in st.multiplicities)


def ideal_pushforward_cohomology(m: ModelVariety, k: int, l: int, i: int) -> int:
    """h^i(I_{X'}(l)) = sum_d m_{l,d} * h^i(I_X(-d))."""
    st = splitting_universal(m.n, k, l)
    return sum(mult * m.hI(i, -d) for d, mult in st.multiplicities)


def dualizing_cohomology(m: ModelVariety, k: int, l: int, i: int) -> int:
    """h^i(omega_{X'}(-l)) = sum_{d=0}^{delta_l} m_{l,d} * h^i(omega_X(d)).

    Stated for 0 <= l < k only (an InputError otherwise); the d-th dual
    summand is omega_X(dH), with multiplicity m_{l,d}.
    """
    if not m.has_dualizing:
        raise MissingDataError(
            f"model {m.name} has no dualizing data; "
            "dualizing cohomology unavailable")
    if not 0 <= l < k:
        raise InputError(
            f"dualizing decomposition requires 0 <= l < k, got l={l}, k={k}")
    st = splitting_universal(m.n, k, l)
    return sum(mult * m.h_omega(i, d) for d, mult in st.multiplicities)


def euler_characteristic(m: ModelVariety, k: int, l: int) -> int:
    """chi(O_{X'}(l)) = sum_i (-1)^i h^i(O_{X'}(l))."""
    return sum((-1) ** i * pushforward_cohomology(m, k, l, i)
               for i in range(m.dim + 1))


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


def _base_assumptions(m: ModelVariety, k: int) -> dict:
    return {
        "k": k,
        "k_ge_2": k >= 2,
        "smooth_general_position": m.smooth_general_position,
        "h0_X": m.h(0, 0),
    }


@dataclass(frozen=True)
class CompletenessVerdict:
    nondegenerate: Verdict
    linearly_complete: Verdict
    h1_vanishing: Verdict


def _detect_s(m: ModelVariety) -> tuple[str, int | None, tuple[int, int] | None]:
    """Largest s with h^1(I_X(d)) = 0 for all d < s, as far as the table shows.

    Returns (kind, value, scanned_range): kind 'infinite' (no failure
    anywhere the table answers), 'finite' (first failure at d = value,
    zeros below it within the scanned range), 'none' (failures extend
    to the bottom of what is known, so no vanishing range exists), or
    'unknown' (the table declares no h^1 ideal rows).
    """
    table = m.table
    if isinstance(table, KoszulTable):
        if not table.degrees:
            return "infinite", None, None
        if m.dim >= 1:
            return "infinite", None, None
        return "none", None, None
    lo, hi = table.trange
    try:
        failures = [d for d in range(lo, hi + 1) if m.hI(1, d) != 0]
    except MissingDataError:
        return "unknown", None, None
    if not failures:
        return "infinite", None, (lo, hi)
    first = failures[0]
    if first == lo:
        return "none", None, (lo, hi)
    return "finite", first, (lo, hi)


def completeness_verdict(m: ModelVariety, k: int) -> CompletenessVerdict:
    """Nondegeneracy, linear completeness, and the ideal-h^1 vanishing bound.

    X' is nondegenerate for every k >= 2; it is linearly complete exactly
    when h^0(O_X) = 1, witnessed by h^0(O_{X'}(1)) = n+1.  If the model
    shows h^1(I_X(d)) = 0 for all d < s, then h^1(I_{X'}(l)) = 0 for all
    l < sk; the claim is re-verified numerically on the range the table
    supports, and the value at l = sk is reported when reachable.
    """
    assumptions = _base_assumptions(m, k)
    if k < 2:
        return CompletenessVerdict(
            nondegenerate=Verdict("nondegenerate", NOT_APPLICABLE, None,
                                  K_GE_2_REASON, assumptions=assumptions),
            linearly_complete=Verdict("linearly_complete", NOT_APPLICABLE,
                                      None, K_GE_2_REASON,
                                      assumptions=assumptions),
            h1_vanishing=Verdict("h1_vanishing", NOT_APPLICABLE, None,
                                 K_GE_2_REASON, assumptions=assumptions))
    h0_x = m.h(0, 0)
    h0_prime_1 = pushforward_cohomology(m, k, 1, 0)
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

    kind, s_value, scanned = _detect_s(m)
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
    checked = []
    all_zero = True
    first_nonzero = None
    for l in range(0, l_top + 1):
        try:
            value = ideal_pushforward_cohomology(m, k, l, 1)
        except TableRangeError:
            break
        checked.append(l)
        if value != 0:
            all_zero = False
            if first_nonzero is None:
                first_nonzero = (l, value)
    witness["verified_l_range"] = [0, checked[-1]] if checked else []
    if first_nonzero is not None:
        witness["first_nonzero"] = list(first_nonzero)
    if kind == "finite":
        try:
            witness["value_at_sk"] = ideal_pushforward_cohomology(
                m, k, s_value * k, 1)
        except TableRangeError:
            pass
    h1 = Verdict(
        name="h1_vanishing",
        status=VERIFIED if all_zero else HYPOTHESIS_FAILS,
        holds=all_zero,
        reason="h^1(I_X(d)) = 0 for d < s forces h^1(I_{X'}(l)) = 0 "
               "for l < s*k",
        witness=witness, assumptions=assumptions)
    return CompletenessVerdict(nondegenerate, linearly_complete, h1)


def hyperplane_section_verdict(m: ModelVariety, k: int) -> Verdict:
    """Linear completeness of the section Y' = X' and a hyperplane.

    Needs dim X >= 2, the general-position assertion, and k >= 2.  The
    numeric consequence is h^0(O_{Y'}(1)) = h^0(O_{X'}(1)) - h^0(O_{X'});
    the verdict covers every hyperplane meeting X' properly.
    """
    assumptions = _base_assumptions(m, k)
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
    h0_1 = pushforward_cohomology(m, k, 1, 0)
    h0_0 = pushforward_cohomology(m, k, 0, 0)
    return Verdict(
        name="hyperplane_section", status=LINEARLY_COMPLETE, holds=True,
        reason="the section of X' by any hyperplane meeting it properly "
               "is linearly complete",
        witness={"h0_Yprime_1": h0_1 - h0_0,
                 "h0_Xprime_1": h0_1, "h0_Xprime": h0_0},
        assumptions=assumptions)


def injectivity_hypothesis_check(m: ModelVariety, k: int, j: int) -> Verdict:
    """Check h^i(O_X(-d)) = 0 for i < j and 0 < d <= delta(n,k,0).

    When it holds, restriction to a proper hyperplane section is
    injective on cohomology in degrees below j.
    """
    assumptions = _base_assumptions(m, k)
    bound = delta(m.n, k, 0)
    for i in range(j):
        for d in range(1, bound + 1):
            value = m.h(i, -d)
            if value != 0:
                return Verdict(
                    name="injectivity_hypothesis", status=HYPOTHESIS_FAILS,
                    holds=False,
                    reason=f"h^{i}(O_X({-d})) = {value} != 0",
                    witness={"i": i, "d": d, "value": value,
                             "delta0": bound, "j": j},
                    assumptions=assumptions)
    return Verdict(
        name="injectivity_hypothesis", status=HYPOTHESIS_HOLDS, holds=True,
        reason=f"h^i(O_X(-d)) = 0 for all i < {j}, 0 < d <= {bound}; "
               f"restriction maps are injective on H^i for i < {j}",
        witness={"delta0": bound, "j": j},
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


def _check_against_pulled_back_ci(table: KoszulTable, k: int, h_rows: dict) -> None:
    """Compare the summed rows with X' computed directly.

    When X is the complete intersection of degrees d_i in P^n, X' is the
    one of degrees k*d_i, whose own Koszul table must give every row.
    """
    direct = KoszulTable(table.n, tuple(k * d for d in table.degrees))
    for (i, l), value in h_rows.items():
        expected = direct.h(i, l)
        if value != expected:
            raise IntegrityError(
                f"h^{i}(O_X'({l})) is {value} summed over the splitting type, "
                f"but {expected} for the complete intersection of degrees "
                f"{direct.degrees}", expected=expected, actual=value)


def build_pullback_report(m: ModelVariety, k: int,
                          lrange: tuple[int, int] | None = None) -> PullbackReport:
    """Assemble the full report.

    For a complete-intersection model every cohomology row is checked
    against the Koszul table of X' (IntegrityError on a mismatch).
    """
    if lrange is None:
        lrange = (-k, 3 * k)
    lo, hi = lrange
    h_rows = {}
    euler = {}
    for l in range(lo, hi + 1):
        for i in range(m.dim + 1):
            h_rows[(i, l)] = pushforward_cohomology(m, k, l, i)
        euler[l] = sum((-1) ** i * h_rows[(i, l)] for i in range(m.dim + 1))
    if isinstance(m.table, KoszulTable):
        _check_against_pulled_back_ci(m.table, k, h_rows)
    ideal_rows: dict | None = {}
    for i in range(m.n + 1):
        try:
            for l in range(lo, hi + 1):
                ideal_rows[(i, l)] = ideal_pushforward_cohomology(m, k, l, i)
        except MissingDataError:
            ideal_rows = {key: value for key, value in ideal_rows.items()
                          if key[0] != i}
    if not ideal_rows:
        ideal_rows = None
    dualizing_rows = None
    if m.has_dualizing:
        dualizing_rows = {}
        for l in range(0, k):
            for i in range(m.dim + 1):
                dualizing_rows[(i, l)] = dualizing_cohomology(m, k, l, i)
    return PullbackReport(
        model=m.name, n=m.n, k=k, dim=m.dim, degree=m.degree,
        degree_prime=pullback_degree(m, k), lrange=(lo, hi),
        assumptions=_base_assumptions(m, k),
        h_rows=h_rows, euler=euler,
        completeness=completeness_verdict(m, k),
        hyperplane=hyperplane_section_verdict(m, k),
        ideal_rows=ideal_rows, dualizing_rows=dualizing_rows)
