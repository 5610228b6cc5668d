"""Adjunction invariants of X' and canonical-map verdicts.

For a subcanonical model (omega_X = O_X(eH)) the dualizing sheaf of the
inverse image is again a twist of the hyperplane class; for a surface S
in P^4 the twist is e' = ke + 5k - 5, which packages omega_{S'} =
pi^*(omega_S(3H)) (x) O_{S'}((2k-5)H').  All numeric invariants (K.H',
K^2, sectional genus) follow from e' and deg S' = k^2 deg S
(``pullback_degree``).  h^0(O_S), h^0(omega_{S'}) and h^0(omega_{S'}(-H'))
are read from one ``pullback._Sums``, each summed once, so the
closed-form table is fetched once; the canonical-birationality verdict
is handed h^0(omega_{S'}(-H')).

The one exception in scope: the inverse image of a 2-plane under a
degree-2 covering is a quartic Del Pezzo surface (e' = -1); every other
surface model here has very ample canonical bundle.  Plane detection is
numeric (degree 1, on a model already required to be a surface), so it
also catches the plane entered as the intersection of two hyperplanes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, IntegrityError
from .pullback import K_GE_2_REASON, NOT_APPLICABLE, Verdict, _Sums, \
    _base_assumptions, pullback_degree
from .splitting import delta
from .varieties import ModelVariety

CANONICAL_BIRATIONAL = "CANONICAL_BIRATIONAL"
VERY_AMPLE = "VERY_AMPLE"
DEL_PEZZO = "DEL_PEZZO_EXCEPTION"


def _canonical_birational(m: ModelVariety, k: int, h0: int,
                          assumptions: dict) -> Verdict:
    """Birationality of the canonical map of X' via a section of omega_{X'}(-H').

    Applicable when delta_1 >= dim X and (X, O(1)) is not a linearly
    embedded projective space; then ``h0`` = h^0(omega_{X'}(-H')) must be
    positive and the canonical map of X' is birational.  A computed zero
    where the criterion promises positivity raises IntegrityError.  The
    caller sums ``h0`` before the verdict, and has
    already required a surface in P^4, k >= 2, the general-position
    assertion and dualizing data.  So delta_1 >= dim X always holds:
    delta(4, k, 1) = 5 + floor(-6/k) >= 2 for every k >= 2.
    """
    if m.is_linear_pm:
        return Verdict("canonical_birational", NOT_APPLICABLE, None,
                       "(P^m, O(1)) is the excluded pair for the "
                       "generated-by-sections step", assumptions=assumptions)
    delta_1 = delta(m.n, k, 1)
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
    degree_prime = pullback_degree(m, k)
    k_dot_h = e_prime * degree_prime
    k_squared = e_prime * e_prime * degree_prime
    twice_g_minus_2 = (e_prime + 1) * degree_prime
    if twice_g_minus_2 % 2 != 0:
        raise IntegrityError(
            f"sectional genus is not an integer for model {m.name}: "
            f"(e'+1)*deg' = {twice_g_minus_2} is odd",
            expected="even", actual=twice_g_minus_2)
    genus = twice_g_minus_2 // 2 + 1
    exception = m.is_linear_pm and k == 2
    sums = _Sums(m, k)
    assumptions = _base_assumptions(m, k, sums.value("h", 0, 0))
    very_ample = Verdict(
        name="canonical_very_ample",
        status=DEL_PEZZO if exception else VERY_AMPLE,
        holds=not exception,
        reason="the canonical bundle of S' is very ample unless S is a "
               "plane and k = 2",
        witness={"e_prime": e_prime, "plane": m.is_linear_pm},
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
    # these sums refuse an oversized k before k delta_l pairs are built
    h0_omega = sums.total("h_omega", 0, 0)
    h0_omega_minus_h = sums.total("h_omega", 0, 1)
    return AdjunctionReport(
        model=m.name, n=m.n, k=k,
        delta_l=tuple((l, delta(m.n, k, l)) for l in range(k)),
        e_source=e, e_prime=e_prime,
        degree=m.degree, degree_prime=degree_prime,
        k_dot_h=k_dot_h, k_squared=k_squared, sectional_genus=genus,
        h0_omega=h0_omega, h0_omega_minus_h=h0_omega_minus_h,
        general_type=e_prime > 0,
        canonical_very_ample=very_ample,
        del_pezzo_exception=del_pezzo,
        canonical_birational=_canonical_birational(
            m, k, h0_omega_minus_h, assumptions),
        assumptions=assumptions)
