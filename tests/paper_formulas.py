"""The paper's closed-form measure branch formulas, kept as a test reference.

For the vacuum bath and an initial state with coh_as = 0, these give the
concurrence branches (k1, k2) and negativity branches (n1, n2) at decay scale
xi = exp(-gray*Gamma0*tau) directly from the initial state, without
propagating it. They carry 1/(1 - lam^2), so they are evaluated only where
|lam| stays _LAMBDA_BAND away from 1. The library propagates and then
measures instead; tests/test_measures.py checks the two routes agree.

scalar_lifetime_by_bisection is the one-state bisection that the library's
array lifetime_by_bisection must reproduce entry by entry, bit for bit, and
scalar_crossing the one-bracket bisection that detect_events' array
refinement must reproduce bracket by bracket.
"""

import math

import numpy as np

from massbath import XState

_LAMBDA_BAND = 1e-6


class LambdaSingularError(ValueError):
    """Branch formulas requested at |spatial factor| ~ 1, where their
    removable 1/(1 - lambda^2) singularity is numerically unstable."""


class AssumptionViolatedError(ValueError):
    """Branch formulas used with a nonzero A-S coherence."""


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


def scalar_lifetime_by_bisection(e, g, a, s, gray: float, g0: float) -> float:
    """Disentanglement time of one diagonal state: bisection of the sign of
    the dominant concurrence branch in xi, one float at a time."""
    h_val = a + s + 2.0 * e
    gap = abs(a - s)

    def entangled(xi: float) -> bool:
        radicand = e * (xi * xi * e - xi * h_val + 1.0)
        return gap > 2.0 * math.sqrt(max(radicand, 0.0))

    if not entangled(1.0):
        return 0.0
    lo, hi = 0.0, 1.0  # entangled at hi, disentangled at lo (xi -> 0)
    if entangled(lo):
        return math.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if entangled(mid):
            hi = mid
        else:
            lo = mid
    return -math.log(0.5 * (lo + hi)) / (gray * g0)


def scalar_crossing(state_at, measure, threshold: float, t_lo: float, t_hi: float) -> float:
    """Threshold crossing of measure(state_at(t)) inside [t_lo, t_hi], one
    scalar state per step, halving the bracket until it is at most 1e-9 wide
    or its ends are adjacent floats."""
    lo_alive = measure(state_at(t_lo)) > threshold
    while t_hi - t_lo > 1e-9:
        mid = 0.5 * (t_lo + t_hi)
        if mid in (t_lo, t_hi):
            break
        if (measure(state_at(mid)) > threshold) == lo_alive:
            t_lo = mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)
