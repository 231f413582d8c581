"""Sweep engine and verification harness.

Grids are specified in the dimensionless axes (Gamma0*tau, omega*L) for time
sweeps and (T/omega, omega*L) for temperature sweeps; all cells are evaluated
through :func:`massbath.field_bath.FieldBathConfig.from_ratios`, i.e. with
Gamma0 = omega = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoGenerationError,
    NonConvergedMaxError,
    SweepCellError,
)
from .field_bath import (
    FieldBathConfig,
    _weights,
    coefficients,
    gray_factor,
    spatial_factor,
    spectral_density,
)
from .measures import (
    BOTH,
    CONCURRENCE_CUTOFF,
    _bisect,
    _check_decay,
    _check_diagonal_weights,
    _coherence_parts,
    _measure_bounds,
    _measures_arrays,
    _selector,
    _state_entries,
    lifetime,
)
from .xstate import (
    FROZEN,
    EigenPropagator,
    RateStack,
    XState,
    _generators,
    _rate_fault,
    _vacuum_rates,
    _carve,
    _xstates,
    integrate_ode_many,
    random_xstate,
)

__all__ = [
    "SweepResult",
    "evolve_scan",
    "thermal_scan",
    "scaling_check",
    "generation_reach",
    "enlargement_factor",
    "verify_coefficients",
    "CoefficientCheck",
    "thermal_generation_threshold",
    "lifetime_by_bisection",
    "SuiteResult",
    "run_verification",
]

# Samples per array pass ((tau, sep) cells of a time-sep map, cells x points
# of a max-over-time search); max-over-time passes per cell (the horizon
# doubles after each) and points per refinement (in time; in log-separation
# for the thermal threshold's search over separations).
MAP_BLOCK = 1 << 16
MAX_DOUBLINGS = 40
ZOOM_POINTS = 33
SEP_ZOOM_POINTS = 8


@dataclass(frozen=True)
class SweepResult:
    """Grid of measure values; rows follow axis1, columns axis2 (omega*L)."""

    axis1: np.ndarray
    axis2: np.ndarray
    concurrence: np.ndarray
    negativity: np.ndarray
    method: np.ndarray


def _positive(name: str, values, allow_zero: bool = False) -> np.ndarray:
    """values as a 1-D float array (a scalar is one entry). Raises ValueError
    naming `name` unless it is non-empty and at most 1-D, and one naming its
    first bad entry unless every entry is finite and > 0 (>= 0 if allow_zero)."""
    array = np.atleast_1d(np.asarray(values, dtype=float))
    if array.ndim != 1 or not array.size:
        raise ValueError(f"{name} must be a non-empty 1-D grid, got shape {array.shape}")
    bad = ~np.isfinite(array) | (array < 0.0 if allow_zero else array <= 0.0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"{name} must be finite and {'>=' if allow_zero else '>'} 0, "
                         f"got {array[k]} at entry {k}")
    return array


def _per_value(fn, values: np.ndarray) -> np.ndarray:
    """fn at each distinct entry of values, spread back over values."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([fn(value) for value in distinct.tolist()])[inverse]


def _cell_rates(mass_ratio: float, seps: np.ndarray, temps=None) -> RateStack:
    """Rates of the grid cells at omega*L = seps (N,), as arrays. temps holds
    each cell's T/omega (N,), or is the bath of time-sep columns: one T/omega,
    or None for the vacuum. coth(omega/2T) and lam are computed once per
    distinct value, as thermal_coefficients computes them, and the rest goes
    through the weights, generator assembly and rule checks of
    thermal_coefficients and build_rate_matrix. The first failing cell in grid
    order raises SweepCellError carrying its grid coordinates."""
    gray = gray_factor(mass_ratio, 1.0)
    same = 0.25 * gray * FieldBathConfig.from_ratios(mass_ratio, 0.0).gamma0
    lam = _per_value(lambda sep: spatial_factor(1.0, sep, gray), seps)
    coth = 1.0  # the vacuum's a1 = b1
    if temps is not None:
        cell_temps = np.broadcast_to(temps, seps.shape)
        coth = _per_value(lambda temp: 1.0 / math.tanh(0.5 / temp), cell_temps)
    with np.errstate(invalid="ignore", over="ignore"):
        gens, rate = _generators(*_weights(same, lam, coth))
    rates = RateStack(gens, *np.broadcast_arrays(rate, rate, lam)[:2])
    fault = _rate_fault(*rates)
    if fault is not None:
        k, message = fault
        temp, sep = None if np.ndim(temps) == 0 else float(temps[k]), float(seps[k])
        where = f"separation {sep}" if temp is None else f"(T/omega={temp}, omega*L={sep})"
        raise SweepCellError(f"sweep failed at {where}: {message}",
                             axis1=temp, axis2=sep) from ValueError(message)
    return rates


def evolve_scan(mass_ratio: float, initial: XState, temp_ratio: float | None,
                taus, seps) -> SweepResult:
    """Instantaneous measure values over the grids taus (Gamma0*tau) and seps
    (omega*L), in a vacuum (temp_ratio None) or a bath at one T/omega. A bath
    or grid entry no cell could take raises ValueError before any cell runs.
    One propagator, measured by _scan on taus shared by every separation."""
    FieldBathConfig.from_ratios(mass_ratio, 0.0, temp_ratio)
    seps = _positive("seps (omega*L)", seps, allow_zero=True)
    taus = _positive("taus (Gamma0*tau)", taus, allow_zero=True)
    prop = EigenPropagator(_cell_rates(mass_ratio, seps, temp_ratio))
    out = _scan(initial, prop, np.broadcast_to(taus, (seps.size, taus.size)))
    return SweepResult(taus, seps, out[0].T, out[1].T, np.tile(prop.routes, (taus.size, 1)))


def _scan(initial: XState, prop: EigenPropagator, rows: np.ndarray) -> np.ndarray:
    """(2, N, K) concurrence and negativity of the N cells of prop from initial,
    each on its own time row of rows (N, K; a shared grid is a broadcast view):
    one measure call per block in one workspace, at most MAP_BLOCK samples or one cell."""
    cells, points = rows.shape
    width = max(1, MAP_BLOCK // points)
    work = _workspace(2, min(width, cells) * points)
    out = np.empty((2, cells, points))
    for chunk, block in _chunks(prop, width):
        out[:, chunk] = _propagated_measures(initial, block, BOTH, work)(rows[chunk, None])
    return out


def _zoom(evaluate, best: np.ndarray, lo: np.ndarray, hi: np.ndarray,
          points: int = ZOOM_POINTS) -> np.ndarray:
    """Largest of `best` and the values sampled by two calls of `evaluate` in
    each bracket [lo, hi] (arrays of best's shape): evaluate(g) on `points`
    equally spaced points (g: best.shape + (points,)), then at the vertex of
    the parabola through the best of those and its neighbours (the interior
    ones at an end), one step of successive parabolic interpolation (Brent,
    1973). A bracket not strictly concave there, or whose vertex is not
    inside it, keeps its best sample: a repeat would differ by roundoff alone."""
    cells = np.indices(np.shape(best), sparse=True)
    step = (hi - lo) / (points - 1)
    level = lo[..., None] + np.arange(points) * step[..., None]  # np.linspace's arithmetic
    level[..., -1] = hi
    values = evaluate(level)
    top = values.max(axis=-1)  # before the second call, which may reuse values' memory
    mid = np.minimum(np.maximum(np.argmax(values, axis=-1), 1), points - 2)
    left, centre, right = (values[(*cells, mid + k)] for k in (-1, 0, 1))
    curve = left - 2.0 * centre + right
    shift = 0.5 * (left - right) / np.where(curve < 0.0, curve, -1.0)
    vertex = lo + (mid + shift) * step
    moves = (curve < 0.0) & (lo < vertex) & (vertex < hi)
    at_vertex = evaluate(np.where(moves, vertex, lo)[..., None])[..., 0]
    return np.maximum(best, np.maximum(top, np.where(moves, at_vertex, -np.inf)))


# perfbench/tracing.py times the refinement stage under its former name.
_golden_max = _zoom


def _faded_coherences(initial: XState, decay_ge, decay_as, taus, out=(None,) * 3):
    """(|coh_ge|, re coh_as, im coh_as) at taus, in real arithmetic, into out
    if given. A coherence that starts at zero stays a scalar zero."""
    abs_ge, re_as, im_as = _coherence_parts(initial.coh_ge, initial.coh_as)
    if abs_ge:
        fade = np.exp(np.multiply(-decay_ge, taus, out=out[0]), out=out[0])
        abs_ge = np.multiply(abs_ge, fade, out=out[0])
    if re_as or im_as:
        fade = np.exp(np.multiply(-decay_as, taus, out=out[2]), out=out[2])
        re_as, im_as = np.multiply(re_as, fade, out=out[1]), np.multiply(im_as, fade, out=out[2])
    return abs_ge, re_as, im_as


def _workspace(count: int, samples: int) -> tuple[np.ndarray, ...]:
    """The workspace of _propagated_measures for `count` measures of up to
    `samples` (cell, time) points: flat float buffers for the measure rows,
    the population planes and two scratch chunks of four planes. Each stays
    below numpy's 4 MiB huge-page size, so only the planes a pass touches
    are resident."""
    return tuple(np.empty(planes * samples) for planes in (count, 4, 4, 4))


def _propagated_measures(initial: XState, prop: EigenPropagator, select: tuple[str, ...],
                         work: tuple[np.ndarray, ...]):
    """measures(taus) -> (M, N, K): the M measures of `select` of the N cells
    of an EigenPropagator on a RateStack at per-cell times taus of shape
    (N, S, K), from one propagation. One row (S = 1) is measured for every
    selected measure; otherwise (S = M, a zoom's brackets) row s is measured
    for select[s] only. A call returns a view of work, a _workspace for
    taus.size samples or more, valid until the next call."""
    pops0, rates = initial.populations(), prop.rates
    decay_ge, decay_as = rates.decay_ge[:, None], rates.decay_as[:, None]

    def measures(taus: np.ndarray) -> np.ndarray:
        cells, rows, points = taus.shape
        values = _carve(work[0], (len(select), cells, points))
        pops = prop._planes(pops0, taus, _carve(work[1], (4,) + taus.shape), work[2:])
        spare, faded = _carve(work[2], (2, cells, points)), _carve(work[3], (3, cells, points))
        names = [select] if rows == 1 else [(name,) for name in select]
        for s, row in enumerate(names):
            coherences = _faded_coherences(initial, decay_ge, decay_as, taus[:, s], faded)
            _measures_arrays(*pops[:, :, s], *coherences, select=row,
                             out=values[s:s + len(row)], spare=spare)
        return values

    return measures


_TAIL_WEIGHTS = np.array([[0, 1, -1, 0], [0, 1, 1, 0], [1, 0, 0, -1], [1, 0, 0, 0], [0, 0, 0, 1.0]])


def _propagated_bounds(initial: XState, prop: EigenPropagator, select, tau: float) -> np.ndarray:
    """(M, N) bounds of the M measures of `select` of the N cells of an
    EigenPropagator at all times >= tau (inf where a cell has none): tail,
    from initial's populations, on the _TAIL_WEIGHTS rows pa - ps, pa + ps,
    pg - pe, pg and pe, and the coherences at tau."""
    center, radius = prop.tail(initial.populations(), tau, _TAIL_WEIGHTS)
    low, size = (center - radius).T, (np.abs(center) + radius).T  # size: the largest |w·p|
    coherences = _faded_coherences(initial, prop.rates.decay_ge, prop.rates.decay_as, tau)
    return _measure_bounds(size[0], low[1], size[2], low[3], low[4], *coherences, select=select)


def _search(initial: XState, prop: EigenPropagator, cells: list[tuple], horizon: float,
            points: int, select) -> np.ndarray:
    """The max-over-time search: (len(select), N) maxima over time of the
    measures named by `select` for the N cells of an EigenPropagator, from
    initial; cells holds each cell's (T/omega, or None in the vacuum,
    omega*L), used to name a cell that fails.

    Frozen cells keep the initial values. The others are open. The first
    pass samples [0, horizon] on `points` points; each later pass doubles
    the horizon and samples only its new half, at the doubled spacing. A
    pass takes its open cells from prop once and samples them in chunks of
    MAP_BLOCK // points, through _propagated_measures in the search's one
    _workspace, keeping each measure's best sample and the grid times on
    either side (clipped at the row's ends); one _zoom (chunked only past
    MAP_BLOCK samples) then refines each between them: three propagation
    calls a pass. A cell retires on the first pass that raised none of its
    maxima by tol or more, or certified them all: every bound of the pass's
    one _propagated_bounds call at or below its maximum (expm cells have none).
    A certified maximum cannot rise later: the search that would confirm it
    on the next horizon returns the same bits. A cell still open after
    MAX_DOUBLINGS passes raises NonConvergedMaxError, the first in grid order.
    """
    tol, count = 1e-6, len(select)
    best = np.full((count, len(cells)), -np.inf)
    frozen = prop.routes == FROZEN
    best[:, frozen] = np.array(_measures_arrays(*_state_entries(initial), select=select))[:, None]
    previous, last = np.full_like(best, np.nan), np.full_like(best, np.nan)
    active = np.flatnonzero(~frozen)
    width, zoom_width = max(1, MAP_BLOCK // points), max(1, MAP_BLOCK // (count * ZOOM_POINTS))
    work = _workspace(count, max(min(width, active.size) * points,
                                 min(zoom_width, active.size) * count * ZOOM_POINTS))
    taus, tau_max = np.linspace(0.0, horizon, points), horizon
    for _ in range(MAX_DOUBLINGS):
        part = prop.take(active)
        peak, at = np.empty((count, active.size)), np.empty((count, active.size), int)
        for chunk, block in _chunks(part, width):
            grid = np.broadcast_to(taus, (len(block.routes), 1, taus.size))
            values = _propagated_measures(initial, block, select, work)(grid)
            at[:, chunk] = np.argmax(values, axis=-1)
            peak[:, chunk] = np.take_along_axis(values, at[:, chunk, None], axis=-1)[..., 0]
        lo, hi = taus[np.maximum(at - 1, 0)], taus[np.minimum(at + 1, taus.size - 1)]
        new = np.empty(at.shape)
        for chunk, block in _chunks(part, zoom_width):
            measures = _propagated_measures(initial, block, select, work)
            new[:, chunk] = _zoom(lambda g: measures(np.swapaxes(g, 0, 1)),
                                  peak[:, chunk], lo[:, chunk], hi[:, chunk])
        stable = np.all(new - best[:, active] < tol, axis=0)
        best[:, active] = np.maximum(best[:, active], new)
        previous[:, active], last[:, active] = last[:, active], new
        active = active[~stable]
        if active.size:  # the bounds of the cells still open
            bounds = _propagated_bounds(initial, part, select, tau_max)[:, ~stable]
            active = active[~np.all(bounds <= best[:, active], axis=0)]
        if not active.size:
            return best
        taus = np.linspace(tau_max, 2.0 * tau_max, points // 2 + 1)
        tau_max *= 2.0
    k = int(active[0])
    axis1, axis2 = cells[k]
    where = f"omega*L={axis2}" if axis1 is None else f"(T/omega={axis1}, omega*L={axis2})"
    raise NonConvergedMaxError(
        f"max-over-time did not stabilize below {tol} at {where}",
        axis1=axis1,
        axis2=axis2,
        doublings=MAX_DOUBLINGS,
        maxima={name: (float(previous[i, k]), float(last[i, k]))
                for i, name in enumerate(select)},
    )


def _chunks(prop: EigenPropagator, width: int):
    """(slice, propagator) of each run of `width` cells of prop (prop itself if one run)."""
    for chunk in (slice(i, i + width) for i in range(0, len(prop.routes), width)):
        yield chunk, prop.take(chunk)


def _max_over_time(initial: XState, rates: RateStack, gray: float, cells: list[tuple],
                   select: tuple[str, ...] = BOTH) -> tuple[np.ndarray, np.ndarray]:
    """(len(select), N) maxima over Gamma0*tau of the measures named by
    `select` for the N cells of a RateStack, with grid coordinates `cells`
    for errors, and the N propagation routes: _search on the stack's one
    EigenPropagator, 1201 points from Gamma0*tau = 20/gray."""
    prop = EigenPropagator(rates)
    horizon = 20.0 / gray if gray > 0.0 else 20.0
    return _search(initial, prop, cells, horizon, 1201, select), prop.routes


def thermal_scan(mass_ratio: float, initial: XState, temps, seps) -> SweepResult:
    """Max-over-time measure values over the grids temps (T/omega) and seps (omega*L).

    Both measures are always computed. Raises ValueError for a bad mass or
    grid entry before any cell runs; a failing cell raises SweepCellError
    or NonConvergedMaxError carrying its (T/omega, omega*L).
    """
    FieldBathConfig.from_ratios(mass_ratio, 0.0)
    seps = _positive("seps (omega*L)", seps, allow_zero=True)
    temps = _positive("temps (T/omega)", temps)
    gray = gray_factor(mass_ratio, 1.0)
    cell_temps, cell_seps = np.repeat(temps, seps.size), np.tile(seps, temps.size)
    cells = list(zip(cell_temps.tolist(), cell_seps.tolist()))
    rates = _cell_rates(mass_ratio, cell_seps, cell_temps)
    peaks, routes = _max_over_time(initial, rates, gray, cells)
    shape = (temps.size, seps.size)
    conc, neg = peaks.reshape((2,) + shape)
    return SweepResult(temps, seps, conc, neg, routes.reshape(shape))


def _worst(deviations) -> float:
    """The largest of some deviations, NaN if any is NaN: Python's max drops
    a NaN that does not come first, so a broken check would read as a pass."""
    values = list(deviations)
    return math.nan if any(map(math.isnan, values)) else float(max(values))


def scaling_check(mass_ratio: float, initial: XState, temp_ratio: float | None,
                  taus, seps) -> float:
    """Max deviation of the mass-rescaling identity over the grids of
    evolve_scan.

    Compares both measures of the massive system at (L, tau) against the
    massless one at (gray*L, gray*tau), in one stack (_rescaling_deviations);
    the identity holds exactly, so the returned deviation is pure numerical noise.
    """
    if not 0.0 <= mass_ratio < 1.0:
        raise ValueError(f"mass_ratio must lie in [0, 1), got {mass_ratio}")
    FieldBathConfig.from_ratios(mass_ratio, 0.0, temp_ratio)
    seps = _positive("seps (omega*L)", seps, allow_zero=True)
    taus = _positive("taus (Gamma0*tau)", taus, allow_zero=True)
    return float(_rescaling_deviations([initial], [(mass_ratio, temp_ratio)], taus, seps)[0, 0])


def _rescaling_deviations(initials, baths, taus: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """(len(initials), len(baths)) max |difference| of both measures, NaN if any
    is NaN, between each bath's (mass_ratio, T/omega or None) massive cells at
    (L, tau) on the grids taus x seps and its massless ones at (gray*L, gray*tau).
    All cells share one EigenPropagator, each on its own time row: one _scan per initial."""
    stacks, grids = [], []
    for mass, temp in baths:
        gray = gray_factor(mass, 1.0)
        stacks += [_cell_rates(mass, seps, temp), _cell_rates(0.0, gray * seps, temp)]
        grids += [taus, gray * taus]
    prop = EigenPropagator(RateStack(*map(np.concatenate, zip(*stacks))))
    rows = np.repeat(grids, seps.size, axis=0)  # each cell's time row
    scans = np.array([_scan(state, prop, rows).reshape(2, len(baths), 2, -1) for state in initials])
    return np.abs(scans[:, :, :, 0] - scans[:, :, :, 1]).max(axis=(1, 3))  # massive - massless


def _vacuum_max_over_time(initial: XState, mass_ratio: float, seps, measure: str):
    """Max over time of one measure in the vacuum at each separation in seps.

    _search on the EigenPropagator of _vacuum_rates, the vacuum in the decay
    exponent u = gray*Gamma0*tau (the closed-form cascade route), 1600 points
    from u = 40.
    Needs gray > 0 and a measure name that generation_reach has checked.
    Returns a float for a scalar sep, else an array shaped like seps.
    """
    flat = np.atleast_1d(np.asarray(seps, dtype=float)).ravel()
    gray = gray_factor(mass_ratio, 1.0)
    prop = EigenPropagator(_vacuum_rates([spatial_factor(1.0, sep, gray) for sep in flat]))
    cells = [(None, float(sep)) for sep in flat]
    out = _search(initial, prop, cells, 40.0, 1600, (measure,))[0]
    return float(out[0]) if np.ndim(seps) == 0 else out.reshape(np.shape(seps))


def generation_reach(
    mass_ratio: float,
    initial: XState | None = None,
    cutoff: float = CONCURRENCE_CUTOFF,
    measure: str = "concurrence",
) -> float:
    """Largest omega*L at which the max-over-time measure exceeds cutoff.

    Vacuum bath. Scans separations out to gray*omega*L = 26 (beyond which the
    cross-qubit coupling is far too weak for any practical cutoff) and refines
    the last crossing by bisection to 1e-4 relative; both test each
    separation's full max-over-time search against cutoff.
    """
    _selector(measure)  # an unknown name fails before any search
    initial = XState.excited() if initial is None else initial
    _positive("cutoff", cutoff)
    gray = gray_factor(mass_ratio, 1.0)
    if gray == 0.0:
        raise NoGenerationError("frozen dynamics: no separation dependence at all")

    def max_measure(sep):
        return _vacuum_max_over_time(initial, mass_ratio, sep, measure)

    step = 0.05
    x_grid = np.arange(step, 26.0 + step / 2, step)
    values = max_measure(x_grid / gray)
    above = np.nonzero(values > cutoff)[0]
    if above.size == 0:
        raise NoGenerationError(f"measure never exceeds cutoff {cutoff} at any separation")
    last = int(above[-1])
    if last == x_grid.size - 1:
        raise NoGenerationError("generation region extends beyond the scan window")
    lo, hi = _bisect(lambda mid, _: ~(max_measure(mid / gray) > cutoff),
                     x_grid[[last]], x_grid[[last + 1]], lambda lo, hi: hi - lo <= 1e-4 * hi)
    return float(0.5 * (lo[0] + hi[0]) / gray)


def enlargement_factor(
    mass_ratio: float,
    initial: XState | None = None,
    cutoff: float = CONCURRENCE_CUTOFF,
    measure: str = "concurrence",
) -> float:
    """Ratio of the massive to massless generation reach, 1/gray: by the
    rescaling identity the vacuum depends on omega*L only through the
    gray*omega*L that generation_reach scans, so one massless scan gives both.
    """
    if not 0.0 < mass_ratio < 1.0:
        raise ValueError(f"mass_ratio must lie in (0, 1), got {mass_ratio}")
    massless = generation_reach(0.0, initial, cutoff, measure)
    massive = massless / gray_factor(mass_ratio, 1.0)
    return massive / massless


@dataclass(frozen=True)
class CoefficientCheck:
    """Outcome of cross-checking coefficients against the spectral route."""

    max_relative_deviation: float
    kms_deviation: float | None


def _relative(x: float, y: float) -> float:
    scale = max(abs(x), abs(y))
    if scale == 0.0:  # both zero, or a NaN that max dropped
        return 0.0 if x == y else math.nan
    return abs(x - y) / scale


def verify_coefficients(
    config: FieldBathConfig, perturb: float = 0.0
) -> CoefficientCheck:
    """Recompute the rate coefficients from the spectral densities.

    Vacuum: all four coefficients must match the direct route. Thermal: the
    temperature-independent b coefficients are checked against the spectral
    route and the a/b ratios against the detailed-balance factor
    coth(omega/(2T)). `perturb` multiplies the direct-route coefficients by
    (1 + perturb) and exists so failure detection itself can be tested.
    """
    direct = coefficients(config)
    factor = 1.0 + perturb
    mu2_4 = 0.25 * config.mu * config.mu
    gs_pos, gc_pos = spectral_density(config.omega, config.mass, config.separation)
    gs_neg, gc_neg = spectral_density(-config.omega, config.mass, config.separation)
    oracle_b1 = mu2_4 * (gs_pos - gs_neg)
    oracle_b2 = mu2_4 * (gc_pos - gc_neg)
    if not config.is_thermal:
        oracle = (mu2_4 * (gs_pos + gs_neg), oracle_b1, mu2_4 * (gc_pos + gc_neg), oracle_b2)
        direct = (direct.a1, direct.b1, direct.a2, direct.b2)
        dev = _worst(_relative(x * factor, y) for x, y in zip(direct, oracle))
        return CoefficientCheck(max_relative_deviation=dev, kms_deviation=None)
    coth = 1.0 / math.tanh(0.5 * config.omega / config.temperature)
    dev = _worst((
        _relative(direct.b1 * factor, oracle_b1),
        _relative(direct.b2 * factor, oracle_b2),
    ))
    kms = 0.0
    if direct.b1 > 0.0:
        kms = abs(direct.a1 * factor / direct.b1 - coth) / coth
    if direct.b2 != 0.0:
        kms = _worst((kms, abs(direct.a2 * factor / direct.b2 - coth) / coth))
    return CoefficientCheck(max_relative_deviation=dev, kms_deviation=kms)


def thermal_generation_threshold(
    mass_ratio: float = 0.0,
    initial: XState | None = None,
    cutoff: float = CONCURRENCE_CUTOFF,
    bracket: tuple[float, float] = (0.1, 0.4),
    tol: float = 0.002,
    sep_values: np.ndarray | None = None,
) -> float:
    """Temperature T/omega above which no separation generates entanglement.

    Bisects on temperature until the bracket is at most tol wide or its ends
    are adjacent floats; at each temperature the max-over-time concurrence
    is maximized over a separation grid, refined around the best point unless
    the grid already exceeds cutoff. Raises ValueError before any cell runs
    unless cutoff, tol, both bracket ends (lo < hi) and every sep_values
    entry are finite and > 0, and sep_values is a non-empty 1-D grid (a
    scalar is one separation).
    """
    initial = XState.excited() if initial is None else initial
    for name, value in (("cutoff", cutoff), ("tol", tol), ("bracket", bracket)):
        _positive(name, value)
    if not bracket[0] < bracket[1]:
        raise ValueError(f"bracket must have lo < hi, got {bracket}")
    gray = gray_factor(mass_ratio, 1.0)
    if gray == 0.0:
        raise NoGenerationError("frozen dynamics: nothing is ever generated")
    if sep_values is None:
        sep_values = np.geomspace(0.05, 6.0, 24) / gray
    sep_values = _positive("sep_values", sep_values)

    def generates(temp: float) -> bool:
        def peaks(seps: np.ndarray) -> np.ndarray:  # seps 1-D, as the zoom's grids
            cells = [(temp, sep) for sep in seps.tolist()]
            rates = _cell_rates(mass_ratio, seps, np.full(seps.size, temp))
            return _max_over_time(initial, rates, gray, cells, ("concurrence",))[0][0]

        values = peaks(sep_values)
        if values.max() > cutoff:
            return True
        i, logs = int(np.argmax(values)), np.log(sep_values)  # [i, ...]: 0-d arrays
        ends = logs[max(i - 1, 0), ...], logs[min(i + 1, logs.size - 1), ...]
        zoomed = _zoom(lambda u: peaks(np.exp(u)), values[i, ...], *ends, SEP_ZOOM_POINTS)
        return bool(zoomed > cutoff)

    t_lo, t_hi = bracket
    if not generates(t_lo):
        raise NoGenerationError(f"no generation above cutoff even at T/omega = {t_lo}")
    if generates(t_hi):
        raise NonConvergedMaxError(f"generation persists at T/omega = {t_hi}; widen the bracket")
    lo, hi = _bisect(lambda mid, _: np.array([not generates(t) for t in mid.tolist()]),
                     [t_lo], [t_hi], lambda lo, hi: hi - lo <= tol)
    return float(0.5 * (lo[0] + hi[0]))


def lifetime_by_bisection(e, g, a, s, gray: float, g0: float):
    """Disentanglement time found as the root of the closed-form concurrence.

    Independent of the closed-form lifetime expression: bisects the sign of
    the dominant concurrence branch in the decay variable xi. The weights
    are floats, giving a float, or arrays that broadcast, giving an array
    from one array bisection. Each entry stops as a bisection of it alone
    would: once the midpoint equals an end, or after 200 halvings. Raises
    ValueError unless g0 is finite and > 0 and gray lies in (0, 1], and one
    naming the first entry (in C order) whose weights are not finite, >= 0
    and summing to 1.
    """
    _check_decay(gray, g0, frozen_ok=False)
    shape = np.broadcast(e, g, a, s).shape  # () for float weights
    e, g, a, s = (np.broadcast_to(np.asarray(w, dtype=float), shape).ravel() for w in (e, g, a, s))
    with np.errstate(invalid="ignore"):  # nan fails both tests, as it fails the scalar check
        ok = np.minimum(np.minimum(e, g), np.minimum(a, s)) >= -1e-12
        ok &= np.abs(e + g + a + s - 1.0) <= 1e-9
    if not ok.all():
        k = int(np.argmin(ok))
        try:
            _check_diagonal_weights(*(float(w.flat[k]) for w in (e, g, a, s)))
        except ValueError as exc:
            raise ValueError(str(exc) if shape == () else f"entry {k}: {exc}") from None
    h_val, gap = a + s + 2.0 * e, np.abs(a - s)

    def entangled(xi: np.ndarray, k=slice(None)) -> np.ndarray:
        radicand = e[k] * (xi * xi * e[k] - xi * h_val[k] + 1.0)
        return gap[k] > 2.0 * np.sqrt(np.maximum(radicand, 0.0))

    lo, hi = np.zeros(e.size), np.ones(e.size)  # entangled at hi, disentangled at lo (xi -> 0)
    start, forever = entangled(hi), entangled(lo)
    live = start & ~forever
    lo, hi = _bisect(entangled, lo, hi, lambda lo, hi: ~live)
    # math.log, as numpy's vectorised log may differ from it in the last bit.
    rate = gray * g0
    roots = np.array([-math.log(xi) / rate for xi in (0.5 * (lo + hi)).tolist()])
    times = np.where(start, np.where(forever, math.inf, roots), 0.0).reshape(shape)
    return float(times) if shape == () else times


@dataclass(frozen=True)
class SuiteResult:
    """One verification suite outcome."""

    name: str
    max_deviation: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.threshold


def _state_distance(x: XState, y: XState) -> float:
    fields = ("pop_g", "pop_a", "pop_s", "pop_e", "coh_ge", "coh_as")
    return _worst(abs(getattr(x, name) - getattr(y, name)) for name in fields)


def _sudden_death_draws(rng: np.random.Generator, count: int) -> np.ndarray:
    """The first `count` Dirichlet draws (g, a, s, e) that meet
    sudden_death_condition, leaving rng as drawing them one at a time would.
    A batch of n draws equals n single draws: batches find how many draws
    that takes, and exactly that many are drawn again from the saved state."""
    saved, draws, hits = rng.bit_generator.state, np.empty((0, 4)), []
    while len(hits) < count:
        draws = np.concatenate([draws, rng.dirichlet(np.ones(4), size=4 * count)])
        g, a, s, e = draws.T
        gap2 = (a - s) * (a - s)
        hits = np.flatnonzero((4.0 * e * g < gap2) & (gap2 < 4.0 * e))
    rng.bit_generator.state = saved
    return rng.dirichlet(np.ones(4), size=hits[count - 1] + 1)[hits[:count]]


def run_verification(seed: int = 0, perturb: float = 0.0) -> list[SuiteResult]:
    """Run the self-check suites used by the `verify` command.

    Deterministic for a given seed. `perturb` is forwarded to the coefficient
    comparison as a fault-injection hook. The rescaling suites share one stack.
    """
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.05, 6.0, 8), np.linspace(0.1, 12.0, 8)  # taus, seps
    initials = [XState.excited(), XState.antisymmetric(), XState.bell_ge()]
    baths = [(0.3, None), (0.8, None), (0.995, None), (0.8, 0.05), (0.8, 0.2)]
    devs = _rescaling_deviations(initials, baths, *grid)
    results = [SuiteResult("scaling-vacuum", _worst(devs[:, :3].flat), 1e-10),
               SuiteResult("scaling-thermal", _worst(devs[:, 3:].flat), 1e-9)]

    weights = _sudden_death_draws(rng, 300)
    formula = np.array([lifetime(e, g, a, s, 1.0, 1.0) for g, a, s, e in weights])
    g, a, s, e = weights.T
    oracle = lifetime_by_bisection(e, g, a, s, 1.0, 1.0)
    dev = float(np.max(np.abs(formula - oracle) / oracle))
    results.append(SuiteResult("lifetime-bisection", dev, 1e-8))

    # 30 vacuum systems, the cascade in u = gray*Gamma0*tau that generation_reach
    # searches, then 30 massless thermal ones, drawn in this order; all vs RKF45.
    vacuum = [(random_xstate(rng), rng.uniform(-0.9, 0.9), rng.uniform(0.1, 5.0))
              for _ in range(30)]
    thermal = [(random_xstate(rng), rng.uniform(0.05, 2.0), rng.uniform(0.1, 10.0),
                rng.uniform(0.1, 5.0)) for _ in range(30)]
    cold = _vacuum_rates(np.array([lam for _, lam, _ in vacuum]))
    hot = _cell_rates(0.0, np.array([sep for *_, sep, _ in thermal]),
                      np.array([temp for _, temp, _, _ in thermal]))
    rates = RateStack(*map(np.concatenate, zip(cold, hot)))
    states = [system[0] for system in vacuum + thermal]
    taus = np.array([system[-1] for system in vacuum + thermal])
    pops0 = np.array([state.populations() for state in states])
    coh_ge, coh_as = np.array([(state.coh_ge, state.coh_as) for state in states]).T
    out = EigenPropagator(rates).evolve(pops0, coh_ge, coh_as, taus[:, None])
    eigens = _xstates(*(part[:, 0] for part in out))
    odes = integrate_ode_many(states, rates, taus, tol=1e-10)
    dev = _worst(map(_state_distance, eigens, odes))
    results.append(SuiteResult("method-agreement", dev, 1e-8))

    checks = [
        verify_coefficients(FieldBathConfig.from_ratios(mass, sep, temp), perturb=perturb)
        for mass in (0.0, 0.3, 0.6, 0.9, 0.995)
        for sep in (0.1, 1.0, 5.0, 20.0)
        for temp in (None, 2.0, 0.5, 0.1)
    ]
    dev = _worst(x for c in checks for x in (c.max_relative_deviation, c.kms_deviation or 0.0))
    results.append(SuiteResult("coefficient-oracle", dev, 1e-12))
    return results
