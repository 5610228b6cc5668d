"""Adjunction invariants of X' and canonical-map verdicts.

For a subcanonical model (omega_X = O_X(eH)) the dualizing sheaf of the
inverse image is again a twist of the hyperplane class; for a surface S
in P^4 the twist is e' = ke + 5k - 5, which packages omega_{S'} =
pi^*(omega_S(3H)) (x) O_{S'}((2k-5)H').  All numeric invariants (K.H',
K^2, sectional genus) follow from e' and deg S' = k^2 deg S.

The one exception in scope: the inverse image of a 2-plane under a
degree-2 covering is a quartic Del Pezzo surface (e' = -1); every other
surface model here has very ample canonical bundle.  Plane detection is
numeric (dim 2, degree 1), so it also catches the plane entered as the
intersection of two hyperplanes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, IntegrityError
from .pullback import K_GE_2_REASON, NOT_APPLICABLE, Verdict, \
    _base_assumptions, dualizing_cohomology
from .splitting import delta
from .varieties import ModelVariety

CANONICAL_BIRATIONAL = "CANONICAL_BIRATIONAL"
VERY_AMPLE = "VERY_AMPLE"
DEL_PEZZO = "DEL_PEZZO_EXCEPTION"


@dataclass(frozen=True)
class BoundCheckReport:
    """Result of checking 0 < delta_l < n+1 for every l in [0, k)."""

    n: int
    k: int
    passed: bool
    values: tuple[tuple[int, int], ...]
    first_failure: int | None = None


def delta_l_bound_check(n: int, k: int) -> BoundCheckReport:
    """Check the twist bounds of the dualizing decomposition.

    For n >= 2 the bounds are strict: 0 < delta_l < n+1 for every l in
    [0, k).  For n = 1 the lower bound degenerates (delta_{k-1} = 0, a
    single dual summand) and only 0 <= delta_l < n+1 is required.
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if k < 2:
        raise InputError(f"bound check requires k >= 2, got {k}")
    lower = 1 if n >= 2 else 0
    values = tuple((l, delta(n, k, l)) for l in range(k))
    for l, value in values:
        if not lower <= value < n + 1:
            return BoundCheckReport(n, k, False, values, first_failure=l)
    return BoundCheckReport(n, k, True, values)


def _is_plane(m: ModelVariety) -> bool:
    return m.dim == 2 and m.is_linear_pm


def canonical_birationality_verdict(m: ModelVariety, k: int) -> Verdict:
    """Birationality of the canonical map of X' via a section of omega_{X'}(-H').

    Applicable when delta_1 >= dim X and (X, O(1)) is not a linearly
    embedded projective space; then h^0(omega_{X'}(-H')) must be positive
    and the canonical map of X' is birational.  A computed zero where the
    criterion promises positivity raises IntegrityError.
    """
    assumptions = _base_assumptions(m, k)
    if k < 2:
        return Verdict("canonical_birational", NOT_APPLICABLE, None,
                       K_GE_2_REASON, assumptions=assumptions)
    if not m.smooth_general_position:
        return Verdict("canonical_birational", NOT_APPLICABLE, None,
                       "general position not asserted",
                       assumptions=assumptions)
    if not m.has_dualizing:
        return Verdict("canonical_birational", NOT_APPLICABLE, None,
                       "model has no dualizing data",
                       assumptions=assumptions)
    if m.is_linear_pm:
        return Verdict("canonical_birational", NOT_APPLICABLE, None,
                       "(P^m, O(1)) is the excluded pair for the "
                       "generated-by-sections step", assumptions=assumptions)
    delta_1 = delta(m.n, k, 1)
    if delta_1 < m.dim:
        return Verdict("canonical_birational", NOT_APPLICABLE, None,
                       f"requires delta_1 >= dim X, got delta_1 = {delta_1} "
                       f"< {m.dim}", assumptions=assumptions)
    h0 = dualizing_cohomology(m, k, 1, 0)
    if h0 <= 0:
        raise IntegrityError(
            "canonical-birationality criterion promises "
            f"h^0(omega_X'(-H')) > 0 for model {m.name} with k={k}, "
            f"but the dualizing sum gives {h0}",
            expected="> 0", actual=h0)
    return Verdict(
        name="canonical_birational", status=CANONICAL_BIRATIONAL, holds=True,
        reason="a nonzero section of omega_{X'}(-H') separates the fibers "
               "of the canonical map",
        witness={"h0_omega_Xprime_minus_H": h0, "delta_1": delta_1},
        assumptions=assumptions)


@dataclass(frozen=True)
class CanonicalSystemReport:
    """Dimensions of both canonical systems and the projection inequality.

    The canonical map of X' factors through pi followed by the
    delta_0-adjoint map of X; the factoring projection is witnessed here
    only by h^0(omega_{X'}) >= h^0(omega_X(delta_0 H)).
    """

    h0_omega_xprime: int
    h0_omega_x_delta0: int
    delta_0: int
    inequality_holds: bool


def canonical_system_dimensions(m: ModelVariety, k: int) -> CanonicalSystemReport:
    if not m.has_dualizing:
        raise InputError(
            f"model {m.name} has no dualizing data; canonical system "
            "dimensions unavailable")
    delta_0 = delta(m.n, k, 0)
    big = dualizing_cohomology(m, k, 0, 0)
    small = m.h_omega(0, delta_0)
    return CanonicalSystemReport(
        h0_omega_xprime=big, h0_omega_x_delta0=small, delta_0=delta_0,
        inequality_holds=big >= small)


@dataclass(frozen=True)
class AdjunctionReport:
    """Adjunction data of the inverse image S' of a surface S in P^4."""

    model: str
    n: int
    k: int
    delta_l: tuple[tuple[int, int], ...]
    e_source: int
    e_prime: int
    degree: int
    degree_prime: int
    k_dot_h: int
    k_squared: int
    sectional_genus: int
    h0_omega: int
    h0_omega_minus_h: int
    general_type: bool
    canonical_very_ample: Verdict
    del_pezzo_exception: Verdict
    canonical_birational: Verdict
    assumptions: dict


def surface_adjunction(m: ModelVariety, k: int) -> AdjunctionReport:
    """Adjunction report for a subcanonical surface in P^4.

    omega_{S'} = O_{S'}(e') with e' = ke + 5k - 5; K.H' = e' deg',
    K^2 = e'^2 deg', and the sectional genus g solves
    2g - 2 = (e'+1) deg'.  The canonical bundle of S' is very ample
    except when S is a plane and k = 2, in which case S' is a quartic
    Del Pezzo surface.
    """
    if m.n != 4:
        raise InputError(
            f"surface adjunction requires a model in P^4, got n = {m.n}")
    if m.dim != 2:
        raise InputError(
            f"surface adjunction requires a surface, got dim = {m.dim}")
    if m.subcanonical_twist is None:
        raise InputError(
            f"model {m.name} is not subcanonical; adjunction numbers "
            "need omega_S = O_S(e)")
    if k < 2:
        raise InputError(f"surface adjunction {K_GE_2_REASON}")
    if not m.smooth_general_position:
        raise InputError(
            "surface adjunction requires the general-position assertion "
            "on the model")
    e = m.subcanonical_twist
    e_prime = k * e + 5 * k - 5
    degree_prime = m.degree * k * k
    k_dot_h = e_prime * degree_prime
    k_squared = e_prime * e_prime * degree_prime
    twice_g_minus_2 = (e_prime + 1) * degree_prime
    if twice_g_minus_2 % 2 != 0:
        raise IntegrityError(
            f"sectional genus is not an integer for model {m.name}: "
            f"(e'+1)*deg' = {twice_g_minus_2} is odd",
            expected="even", actual=twice_g_minus_2)
    genus = twice_g_minus_2 // 2 + 1
    exception = _is_plane(m) and k == 2
    assumptions = _base_assumptions(m, k)
    very_ample = Verdict(
        name="canonical_very_ample",
        status=DEL_PEZZO if exception else VERY_AMPLE,
        holds=not exception,
        reason="the canonical bundle of S' is very ample unless S is a "
               "plane and k = 2",
        witness={"e_prime": e_prime, "plane": _is_plane(m)},
        assumptions=assumptions)
    del_pezzo = Verdict(
        name="del_pezzo_exception",
        status=DEL_PEZZO if exception else VERY_AMPLE,
        holds=exception,
        reason="the inverse image of a plane under a degree-2 covering "
               "is a quartic Del Pezzo surface" if exception else
               "model is not the (plane, k=2) exception",
        witness={"e_prime": e_prime, "degree_prime": degree_prime},
        assumptions=assumptions)
    return AdjunctionReport(
        model=m.name, n=m.n, k=k,
        delta_l=tuple((l, delta(m.n, k, l)) for l in range(k)),
        e_source=e, e_prime=e_prime,
        degree=m.degree, degree_prime=degree_prime,
        k_dot_h=k_dot_h, k_squared=k_squared, sectional_genus=genus,
        h0_omega=dualizing_cohomology(m, k, 0, 0),
        h0_omega_minus_h=dualizing_cohomology(m, k, 1, 0),
        general_type=e_prime > 0,
        canonical_very_ample=very_ample,
        del_pezzo_exception=del_pezzo,
        canonical_birational=canonical_birationality_verdict(m, k),
        assumptions=assumptions)
