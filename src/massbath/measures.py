"""Concurrence and negativity of X states, birth/death events and lifetimes.

For X-form states both measures reduce to closed expressions in the block
entries. The candidate branch values are kept alongside the clipped measures
(fields k1/k2 for concurrence, n1/n2 for negativity) because sign changes of
the dominant branch are what birth and death events track.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolatedError,
    FrozenDynamicsError,
    LambdaSingularError,
    NotAStateError,
)
from .xstate import POP_TOL, PSD_TOL, Trajectory, XState

# Cutoffs below which a measure counts as "no entanglement" when locating
# generation regions; CONCURRENCE_CUTOFF is the default of generation_reach,
# enlargement_factor and thermal_generation_threshold.
CONCURRENCE_CUTOFF = 1e-3
NEGATIVITY_CUTOFF = 1e-5

# Radicands more negative than this signal an unphysical state instead of
# roundoff and raise; anything in (-tol, 0) is clipped to zero. A state that
# XState accepts stays above it: pop_g*pop_e >= -POP_TOL*(1 + 3*POP_TOL), and
# (a+s)^2 - 4 re(coh_as)^2 >= (a-s)^2 - 4*PSD_TOL.
RADICAND_TOL = 4.0 * PSD_TOL + 2.0 * POP_TOL

# The branch formulas below carry 1/(1 - lam^2) and are evaluated only where
# |lam| stays this far from 1.
_LAMBDA_BAND = 1e-6

__all__ = [
    "EntanglementValue",
    "EntanglementEvents",
    "entanglement",
    "concurrence",
    "negativity",
    "closed_form_concurrence",
    "closed_form_negativity",
    "sudden_death_condition",
    "lifetime",
    "detect_events",
    "CONCURRENCE_CUTOFF",
    "NEGATIVITY_CUTOFF",
]


@dataclass(frozen=True)
class EntanglementValue:
    """Both entanglement monotones of one state plus their branch values."""

    concurrence: float
    negativity: float
    k1: float
    k2: float
    n1: float
    n2: float


def _safe_sqrt(value: float) -> float:
    if value < 0.0:
        if value < -RADICAND_TOL:
            raise NotAStateError(f"radicand {value} is negative beyond roundoff")
        return 0.0
    return math.sqrt(value)


def _clipped_sqrt(values):
    return np.sqrt(np.maximum(values, 0.0))


def _branches(pop_g, pop_a, pop_s, pop_e, coh_ge, coh_as, root):
    """Branch values (k1, k2, n1, n2) of scalars or of arrays of X states.

    Concurrence is max(0, k1, k2) (Wootters); negativity is -2 times the sum
    of the negative ones of n1, n2, the smaller eigenvalues of the two blocks
    of the partial transpose (Vidal & Werner). `root` takes the square root
    of the radicands that roundoff can push below zero.
    """
    im_as = np.imag(coh_as)
    re_as = np.real(coh_as)
    abs_ge = np.abs(coh_ge)
    diff = pop_a - pop_s
    total = pop_a + pop_s
    gap = pop_g - pop_e
    k1 = np.hypot(diff, 2.0 * im_as) - 2.0 * root(pop_g * pop_e)
    k2 = 2.0 * abs_ge - root(total * total - 4.0 * re_as * re_as)
    n1 = 0.5 * (pop_g + pop_e - np.sqrt(diff * diff + 4.0 * im_as * im_as + gap * gap))
    n2 = 0.5 * (total - 2.0 * np.hypot(abs_ge, re_as))
    return k1, k2, n1, n2


def _clip(k1, k2, n1, n2):
    """(concurrence, negativity) from the branch values."""
    # 0.0 - x, not -x: a zero comes out +0.0, never -0.0.
    neg = 0.0 - 2.0 * (np.minimum(n1, 0.0) + np.minimum(n2, 0.0))
    return np.maximum(0.0, np.maximum(k1, k2)), neg


def _state_branches(state: XState):
    return _branches(
        state.pop_g, state.pop_a, state.pop_s, state.pop_e,
        state.coh_ge, state.coh_as, _safe_sqrt,
    )


def entanglement(state: XState) -> EntanglementValue:
    """Concurrence and negativity of an X state with their branch values.

    Raises NotAStateError for a radicand below -RADICAND_TOL.
    """
    branches = _state_branches(state)
    return EntanglementValue(*map(float, _clip(*branches) + branches))


def concurrence(state: XState) -> float:
    return float(_clip(*_state_branches(state))[0])


def negativity(state: XState) -> float:
    return float(_clip(*_state_branches(state))[1])


def _measures_arrays(pop_g, pop_a, pop_s, pop_e, coh_ge, coh_as):
    """Vectorized (concurrence, negativity) over population/coherence arrays.

    Roundoff-negative radicands are clipped; inputs are trusted to come from
    a propagator.
    """
    return _clip(*_branches(pop_g, pop_a, pop_s, pop_e, coh_ge, coh_as, _clipped_sqrt))


def _state_arrays(states) -> tuple[np.ndarray, ...]:
    """(pop_g, pop_a, pop_s, pop_e, coh_ge, coh_as) arrays of a state sequence.

    Built field by field: a tuple per state would fill the garbage
    collector's generations and set off full collections.
    """
    fields = ("pop_g", "pop_a", "pop_s", "pop_e", "coh_ge", "coh_as")
    return tuple(np.array([getattr(s, name) for s in states]) for name in fields)


def _closed_form_helpers(initial: XState, lam: float, xi):
    e0 = initial.pop_e
    f_a = ((1.0 - lam) / (1.0 + lam) * e0 + initial.pop_a) * xi ** (-lam)
    f_s = ((1.0 + lam) / (1.0 - lam) * e0 + initial.pop_s) * xi ** (lam)
    return f_a - f_s, f_a + f_s


def _check_closed_form_args(initial: XState, lam: float) -> None:
    if abs(initial.coh_as) > 1e-12:
        raise AssumptionViolatedError(
            "closed-form measure terms require a vanishing A-S coherence"
        )
    if abs(lam) > 1.0 - _LAMBDA_BAND:
        raise LambdaSingularError(f"|lam| = {abs(lam)} is within {_LAMBDA_BAND} of 1")


def closed_form_concurrence(initial: XState, lam: float, xi) -> tuple:
    """Concurrence branch values (k1, k2) at decay scale xi, without
    propagating the state. Requires coh_as(0) = 0; xi may be an array.
    """
    _check_closed_form_args(initial, lam)
    e0 = initial.pop_e
    one = 1.0 - lam * lam
    g_fn, h_fn = _closed_form_helpers(initial, lam, xi)
    radicand = xi * xi * (1.0 + 3.0 * lam * lam) / one * e0 * e0 + (
        1.0 - xi * h_fn
    ) * e0
    k1 = xi * np.abs(xi * 4.0 * lam / one * e0 + g_fn) - 2.0 * xi * np.sqrt(
        np.maximum(radicand, 0.0)
    )
    k2 = xi * (
        2.0 * abs(initial.coh_ge) + 2.0 * xi * (1.0 + lam * lam) / one * e0 - h_fn
    )
    return k1, k2


def closed_form_negativity(initial: XState, lam: float, xi) -> tuple:
    """Negativity branch values (n1, n2) at decay scale xi; coh_as(0) = 0."""
    _check_closed_form_args(initial, lam)
    e0 = initial.pop_e
    one = 1.0 - lam * lam
    g_fn, h_fn = _closed_form_helpers(initial, lam, xi)
    xi2 = xi * xi
    residue = 1.0 - xi * h_fn
    n1 = (
        xi2 * (1.0 + lam * lam) / one * e0
        + 0.5 * residue
        - 0.5
        * np.sqrt(
            (xi2 * 4.0 * lam / one * e0 + xi * g_fn) ** 2
            + (xi2 * 4.0 * lam * lam / one * e0 + residue) ** 2
        )
    )
    n2 = (
        0.5
        * xi
        * (h_fn - 2.0 * xi * (1.0 + lam * lam) / one * e0 - 2.0 * abs(initial.coh_ge))
    )
    return n1, n2


def _check_diagonal_weights(e: float, g: float, a: float, s: float) -> None:
    if min(e, g, a, s) < -1e-12:
        raise ValueError(f"populations must be >= 0, got {(e, g, a, s)}")
    if abs(e + g + a + s - 1.0) > 1e-9:
        raise ValueError(f"populations must sum to 1, got {e + g + a + s}")


def sudden_death_condition(e: float, g: float, a: float, s: float) -> bool:
    """Whether a diagonal initial state (independent baths) disentangles at a
    finite time: 4*e*g < (a - s)^2 < 4*e, both strictly.
    """
    _check_diagonal_weights(e, g, a, s)
    gap2 = (a - s) ** 2
    return 4.0 * e * g < gap2 and gap2 < 4.0 * e


def lifetime(
    e: float, g: float, a: float, s: float, gray: float, g0: float
) -> float:
    """Time at which a diagonal initial state disentangles (independent baths).

    Returns 0.0 when the state is never entangled, math.inf when it is
    entangled but only decays asymptotically, and otherwise

        ln[2e (sqrt(2(a+e)^2 + 2(e+s)^2 - 4e) + a + 2e + s) / (4e - (a-s)^2)]
        / (gray * Gamma0).

    Raises FrozenDynamicsError for an entangled state with gray == 0.
    """
    _check_diagonal_weights(e, g, a, s)
    if g0 <= 0.0:
        raise ValueError(f"gamma0 must be > 0, got {g0}")
    if not 0.0 <= gray <= 1.0:
        raise ValueError(f"gray factor must lie in [0, 1], got {gray}")
    gap2 = (a - s) ** 2
    if gap2 <= 4.0 * e * g:
        return 0.0
    if gray == 0.0:
        raise FrozenDynamicsError(
            "entangled state with vanishing rates keeps its entanglement forever"
        )
    if gap2 >= 4.0 * e:
        return math.inf
    root = _safe_sqrt(2.0 * (a + e) ** 2 + 2.0 * (e + s) ** 2 - 4.0 * e)
    numerator = 2.0 * e * (root + a + 2.0 * e + s)
    return math.log(numerator / (4.0 * e - gap2)) / (gray * g0)


@dataclass(frozen=True)
class EntanglementEvents:
    """Threshold crossings of a measure along a trajectory."""

    birth_times: tuple[float, ...]
    death_times: tuple[float, ...]
    final_value: float


def detect_events(
    trajectory: Trajectory,
    measure: str = "concurrence",
    threshold: float = 0.0,
) -> EntanglementEvents:
    """Locate births (measure rising through threshold) and deaths (falling).

    The samples are measured in one array call. Crossings are bracketed on
    them and refined by bisection on the trajectory's exact point-evaluator;
    without an evaluator the bracket midpoint sets the resolution.
    """
    if threshold < 0.0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if measure == "concurrence":
        fn, which = concurrence, 0
    elif measure == "negativity":
        fn, which = negativity, 1
    else:
        raise ValueError(f"unknown measure {measure!r}")
    values = _measures_arrays(*_state_arrays(trajectory.states))[which]
    alive = (values > threshold).tolist()

    def refine(t_lo: float, t_hi: float) -> float:
        if trajectory.evaluate is None:
            return 0.5 * (t_lo + t_hi)
        lo_alive = fn(trajectory.evaluate(t_lo)) > threshold
        while t_hi - t_lo > 1e-9:
            mid = 0.5 * (t_lo + t_hi)
            if (fn(trajectory.evaluate(mid)) > threshold) == lo_alive:
                t_lo = mid
            else:
                t_hi = mid
        return 0.5 * (t_lo + t_hi)

    births = []
    deaths = []
    for i in range(1, len(trajectory)):
        if alive[i] == alive[i - 1]:
            continue
        crossing = refine(trajectory.taus[i - 1], trajectory.taus[i])
        if alive[i]:
            births.append(crossing)
        else:
            deaths.append(crossing)
    return EntanglementEvents(
        birth_times=tuple(births),
        death_times=tuple(deaths),
        final_value=float(values[-1]),
    )
