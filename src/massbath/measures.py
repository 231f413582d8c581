"""Concurrence and negativity of X states, birth/death events and lifetimes.

For X-form states both measures reduce to closed expressions in the block
entries, each clipped from two branch values that `entanglement` reports
alongside: concurrence = max(0, k1, k2) and negativity = -2 times the sum of
the negative ones of n1, n2. Birth and death events track where a measure's
value rises above a threshold (value > threshold) or falls back to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrozenDynamicsError, NotAStateError
from .xstate import POP_TOL, PSD_TOL, Trajectory, XState

# The cutoff below which a measure counts as "no entanglement" when locating
# generation regions: the default of generation_reach (for either measure),
# enlargement_factor and thermal_generation_threshold.
CONCURRENCE_CUTOFF = 1e-3

# Radicands more negative than this signal an unphysical state instead of
# roundoff and raise; anything in (-tol, 0) is clipped to zero. A state that
# XState accepts stays above it: pop_g*pop_e >= -POP_TOL*(1 + 3*POP_TOL), and
# (a+s)^2 - 4 re(coh_as)^2 >= (a-s)^2 - 4*PSD_TOL.
RADICAND_TOL = 4.0 * PSD_TOL + 2.0 * POP_TOL

__all__ = [
    "EntanglementValue",
    "EntanglementEvents",
    "entanglement",
    "concurrence",
    "negativity",
    "sudden_death_condition",
    "lifetime",
    "detect_events",
    "CONCURRENCE_CUTOFF",
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


def _clipped_sqrt(values, out=None):
    return np.sqrt(np.maximum(values, 0.0, out=out), out=out)


def _times(x, y, out):
    """x * y, into out if y is an array: a zero coherence stays a scalar."""
    return np.multiply(x, y, out=out) if isinstance(y, np.ndarray) else x * y


def _scalar_zero(x) -> bool:
    """Whether x is a scalar +-0, as a coherence part that starts at zero stays."""
    return not isinstance(x, np.ndarray) and x == 0.0


def _hypot(x, y, out=None):
    """hypot(x, y), into out if given; |x| or |y| where the other is a scalar
    +-0, as C99 defines it. Same bits as np.hypot but for the sign of a NaN,
    which glibc's hypot keeps and abs clears."""
    if _scalar_zero(y):
        return np.abs(x, out=out)
    if _scalar_zero(x):
        return np.abs(y, out=out)
    return np.hypot(x, y, out=out)


# The branch kernels, each formula once for values and bounds: into buffers one
# (result) and tmp when given, in the steps and bits of the allocating call.
def _k1(diff, im_as, root, one=None, tmp=None):
    """k1 = hypot(diff, 2 im coh_as) - 2 root, diff = pa - ps, root = sqrt(pg pe)."""
    norm = _hypot(diff, _times(2.0, im_as, tmp), one)
    return np.subtract(norm, np.multiply(2.0, root, out=tmp), out=one)


def _k2(total, abs_ge, re_as, one=None, tmp=None):
    """k2 = 2|coh_ge| - sqrt(max(total^2 - 4 re(coh_as)^2, 0)), total = pa + ps."""
    square = _times(_times(4.0, re_as, tmp), re_as, tmp)
    radicand = np.subtract(np.multiply(total, total, out=one), square, out=one)
    return np.subtract(_times(2.0, abs_ge, tmp), _clipped_sqrt(radicand, one), out=one)


def _n1(pop_g, pop_e, diff, gap, im_as, one=None, tmp=None):
    """n1 = (pg + pe - sqrt(diff^2 + 4 im(coh_as)^2 + gap^2)) / 2, gap = pg - pe."""
    square = _times(_times(4.0, im_as, tmp), im_as, tmp)
    radicand = np.add(np.multiply(diff, diff, out=one), square, out=one)
    radicand = np.add(radicand, np.multiply(gap, gap, out=tmp), out=one)
    n1 = np.subtract(np.add(pop_g, pop_e, out=tmp), np.sqrt(radicand, out=one), out=one)
    return np.multiply(0.5, n1, out=one)


def _n2(total, abs_ge, re_as, one=None, tmp=None):
    """n2 = (total - 2 hypot(|coh_ge|, re coh_as)) / 2."""
    arrays = isinstance(abs_ge, np.ndarray) or isinstance(re_as, np.ndarray)
    norm = _times(2.0, _hypot(abs_ge, re_as, tmp if arrays else None), tmp)
    return np.multiply(0.5, np.subtract(total, norm, out=one), out=one)


def _concurrence_of(k1, k2, out=None):
    return np.maximum(0.0, np.maximum(k1, k2, out=out), out=out)


def _negativity_of(n1, n2, out=(None, None)):
    """Buffers out = (result, spare); spare may be n2 itself."""
    result, spare = out
    low = np.add(np.minimum(n1, 0.0, out=result), np.minimum(n2, 0.0, out=spare), out=result)
    # 0.0 - x, not -x: a zero comes out +0.0, never -0.0.
    return np.subtract(0.0, np.multiply(2.0, low, out=result), out=result)


def _concurrence(pop_g, pop_a, pop_s, pop_e, abs_ge, re_as, im_as, out):
    """max(0, k1, k2) into out[0] (Wootters). Where |coh_ge| is a scalar +0,
    k2 = +0 - sqrt(.) <= +0 is skipped: max(0, k1) has the same bits, since
    no branch is -0.0 (abs gives +0, x - x is +0) and np.maximum(0.0, -0.0)
    would be -0.0 (a tie returns the second operand). Only entries no
    propagator gives make k2 NaN where k1 is not: a NaN or infinite re
    coh_as, or pa = -ps = +-inf."""
    one, two, tmp = out
    root = _clipped_sqrt(np.multiply(pop_g, pop_e, out=tmp), tmp)
    k1 = _k1(np.subtract(pop_a, pop_s, out=one), im_as, root, one, two)
    if _scalar_zero(abs_ge) and math.copysign(1.0, abs_ge) > 0.0:
        return np.maximum(0.0, k1, out=one)
    return _concurrence_of(k1, _k2(np.add(pop_a, pop_s, out=two), abs_ge, re_as, two, tmp), one)


def _negativity(pop_g, pop_a, pop_s, pop_e, abs_ge, re_as, im_as, out):
    """-2 (min(n1, 0) + min(n2, 0)) into out[0] (Vidal & Werner)."""
    one, two, tmp = out
    gap = np.subtract(pop_g, pop_e, out=tmp)
    n1 = _n1(pop_g, pop_e, np.subtract(pop_a, pop_s, out=one), gap, im_as, one, two)
    n2 = _n2(np.add(pop_a, pop_s, out=two), abs_ge, re_as, two, tmp)
    return _negativity_of(n1, n2, out=(one, two))


# Every measure by name, as a function of the entries (pop_g, pop_a, pop_s,
# pop_e, |coh_ge|, re coh_as, im coh_as) and buffers (result, two spares) or
# three Nones. A selector is a tuple of names.
_MEASURES = {"concurrence": _concurrence, "negativity": _negativity}
BOTH = tuple(_MEASURES)


def _measure_bounds(diff, total, gap, low_g, low_e, abs_ge, re_as, im_as, select=BOTH):
    """(len(select), ...) bounds of the measures named by `select` over the
    states with |pa - ps| <= diff, pa + ps >= total, |pg - pe| <= gap, pg >=
    low_g, pe >= low_e and coherence parts no larger than |abs_ge|, |re_as|,
    |im_as|: the measure of the branch kernels at those ends, each widened by
    1e-12 for roundoff (branch bounds below 0 bound it by exactly 0); only select's."""
    def bound(name):
        if name == "concurrence":
            k1 = _k1(diff, im_as, _clipped_sqrt(low_g) * _clipped_sqrt(low_e))
            k2 = _k2(np.maximum(total, 0.0), abs_ge, re_as)
            return _concurrence_of(k1 + 1e-12, k2 + 1e-12)
        n1, n2 = _n1(low_g, low_e, diff, gap, im_as), _n2(total, abs_ge, re_as)
        return _negativity_of(n1 - 0.5e-12, n2 - 0.5e-12)
    return np.array([bound(name) for name in select])


def _selector(measure: str) -> tuple[str]:
    """The selector of one measure; ValueError for an unknown name."""
    if measure not in _MEASURES:
        raise ValueError(f"unknown measure {measure!r}, expected one of {BOTH}")
    return (measure,)


def _coherence_parts(coh_ge, coh_as):
    """(|coh_ge|, re coh_as, im coh_as): all the measures read of the coherences."""
    return np.abs(coh_ge), np.real(coh_as), np.imag(coh_as)


def _state_entries(state: XState):
    return (
        state.pop_g, state.pop_a, state.pop_s, state.pop_e,
        *_coherence_parts(state.coh_ge, state.coh_as),
    )


def entanglement(state: XState) -> EntanglementValue:
    """Concurrence and negativity of an X state with their branch values."""
    pop_g, pop_a, pop_s, pop_e, abs_ge, re_as, im_as = _state_entries(state)
    diff, total = pop_a - pop_s, pop_a + pop_s
    k1, k2 = _k1(diff, im_as, _clipped_sqrt(pop_g * pop_e)), _k2(total, abs_ge, re_as)
    n1, n2 = _n1(pop_g, pop_e, diff, pop_g - pop_e, im_as), _n2(total, abs_ge, re_as)
    values = (_concurrence_of(k1, k2), _negativity_of(n1, n2), k1, k2, n1, n2)
    return EntanglementValue(*map(float, values))


def concurrence(state: XState) -> float:
    return float(_measures_arrays(*_state_entries(state), select=("concurrence",))[0])


def negativity(state: XState) -> float:
    return float(_measures_arrays(*_state_entries(state), select=("negativity",))[0])


def _measures_arrays(pop_g, pop_a, pop_s, pop_e, abs_ge, re_as, im_as, select=BOTH,
                     out=None, spare=None):
    """Vectorized measures named by `select`, one array each, from population
    and coherence-part arrays (see _coherence_parts); scalars broadcast.
    With buffers, measure i is written into out[i], the two planes of spare
    its temporaries, with the bits of the allocating call.

    Roundoff-negative radicands are clipped; inputs are trusted to come from
    a propagator.
    """
    entries = (pop_g, pop_a, pop_s, pop_e, abs_ge, re_as, im_as)
    buffers = [(None,) * 3] * len(select) if out is None else [(row, *spare) for row in out]
    return tuple(_MEASURES[name](*entries, out=b) for name, b in zip(select, buffers))


def _check_diagonal_weights(e: float, g: float, a: float, s: float) -> None:
    if not all(map(math.isfinite, (e, g, a, s))):
        raise ValueError(f"populations must be finite, got {(e, g, a, s)}")
    if min(e, g, a, s) < -1e-12:
        raise ValueError(f"populations must be >= 0, got {(e, g, a, s)}")
    if abs(e + g + a + s - 1.0) > 1e-9:
        raise ValueError(f"populations must sum to 1, got {e + g + a + s}")


def _check_decay(gray: float, g0: float, frozen_ok: bool) -> None:
    """ValueError unless g0 is finite and > 0 and gray lies in [0, 1], or
    in (0, 1] when frozen dynamics (gray == 0) are not ok."""
    if not (math.isfinite(g0) and g0 > 0.0):
        raise ValueError(f"gamma0 must be finite and > 0, got {g0}")
    if not (0.0 <= gray <= 1.0 and (frozen_ok or gray > 0.0)):
        span = "[0, 1]" if frozen_ok else "(0, 1]"
        raise ValueError(f"gray factor must lie in {span}, got {gray}")


def sudden_death_condition(e: float, g: float, a: float, s: float) -> bool:
    """Whether a diagonal initial state (independent baths) disentangles at a
    finite time: 4*e*g < (a - s)^2 < 4*e, both strictly.
    """
    _check_diagonal_weights(e, g, a, s)
    gap2 = (a - s) * (a - s)
    return 4.0 * e * g < gap2 and gap2 < 4.0 * e


def lifetime(
    e: float, g: float, a: float, s: float, gray: float, g0: float
) -> float:
    """Time at which a diagonal initial state disentangles (independent baths).

    Returns 0.0 when the state is never entangled, math.inf when it is
    entangled but only decays asymptotically, and otherwise

        ln[2e (sqrt(2(a+e)^2 + 2(e+s)^2 - 4e) + a + 2e + s) / (4e - (a-s)^2)]
        / (gray * Gamma0).

    Raises FrozenDynamicsError for an entangled state with gray == 0, and
    ValueError unless g0 is finite and > 0 and gray lies in [0, 1].
    """
    _check_diagonal_weights(e, g, a, s)
    _check_decay(gray, g0, frozen_ok=True)
    gap2 = (a - s) * (a - s)
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


def _bisect(moves_hi, lo, hi, done):
    """The brackets [lo, hi] (1-D float arrays) bisected together: each level
    calls moves_hi(mid, k) once, on the midpoints of the open brackets k, and
    moves hi to mid where it holds, else lo. A bracket closes once done(lo, hi)
    holds, its midpoint equals an end, or after 200 halvings. Returns (lo, hi)."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        open_ = np.flatnonzero(~done(lo, hi) & (mid != lo) & (mid != hi))
        if not open_.size:
            break
        mid = mid[open_]
        to_hi = moves_hi(mid, open_)
        hi[open_[to_hi]] = mid[to_hi]
        lo[open_[~to_hi]] = mid[~to_hi]
    return lo, hi


def detect_events(
    trajectory: Trajectory,
    measure: str = "concurrence",
    threshold: float = 0.0,
) -> EntanglementEvents:
    """Births (measure rising above a finite threshold >= 0) and deaths
    (falling back to it), bracketed on the samples. With the trajectory's
    evaluator `at`, one array bisection refines every bracket, one evaluation
    and one measure call per level, to 1e-9 or adjacent floats; without it,
    the bracket midpoint sets the resolution.
    """
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    select = _selector(measure)

    def values(pops, coh_ge, coh_as):
        return _measures_arrays(*pops.T, *_coherence_parts(coh_ge, coh_as), select=select)[0]

    samples = values(trajectory.populations, trajectory.coh_ge, trajectory.coh_as)
    alive = samples > threshold
    edges = np.flatnonzero(alive[1:] != alive[:-1])
    taus = np.array(trajectory.taus)
    lo, hi, births = taus[edges], taus[edges + 1], alive[edges + 1]
    if trajectory.at is not None:
        # A birth's bracket keeps a dead lo and a living hi; a death's the reverse.
        lo, hi = _bisect(lambda mid, k: (values(*trajectory.at(mid)) > threshold) == births[k],
                         lo, hi, lambda lo, hi: hi - lo <= 1e-9)
    crossings = 0.5 * (lo + hi)
    return EntanglementEvents(
        birth_times=tuple(crossings[births].tolist()),
        death_times=tuple(crossings[~births].tolist()),
        final_value=float(samples[-1]),
    )
