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
    coefficients,
    gray_factor,
    spatial_factor,
    spectral_density,
    thermal_coefficients,
    vacuum_coefficients,
)
from .measures import (
    CONCURRENCE_CUTOFF,
    NEGATIVITY_CUTOFF,
    _measures_arrays,
    entanglement,
)
from .xstate import (
    CLOSED_FORM,
    EIGEN,
    FROZEN,
    LAMBDA_SINGULAR_BAND,
    EigenPropagator,
    RateMatrix,
    XState,
    _closed_form_populations,
    build_rate_matrix,
    closed_form_state,
    decay_factor,
    random_xstate,
)

__all__ = [
    "GridAxis",
    "SweepConfig",
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

# Max-over-time kernel: cells per array pass, horizon doublings per cell,
# zoom levels and points per level (in time; in log-separation for the
# thermal threshold's search over separations).
CELL_BLOCK = 8
MAX_DOUBLINGS = 40
ZOOM_LEVELS = 3
ZOOM_POINTS = 129
SEP_ZOOM_POINTS = CELL_BLOCK


@dataclass(frozen=True)
class GridAxis:
    """One sweep axis: count points from start to stop, linear or log."""

    start: float
    stop: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        if self.count < 2:
            raise ValueError(f"axis count must be >= 2, got {self.count}")
        if not self.start < self.stop:
            raise ValueError(f"axis needs start < stop, got {self.start}, {self.stop}")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"axis scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and self.start <= 0.0:
            raise ValueError("log axis requires start > 0")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of a sweep over (Gamma0*tau, omega*L) or (T/omega, omega*L).

    For reduction="instantaneous" (time-separation maps) set tau_axis, with
    temp_ratio fixing an optional common bath temperature. For
    reduction="max_over_time" (temperature-separation maps) set temp_axis.
    """

    mass_ratio: float
    initial: XState
    sep_axis: GridAxis
    tau_axis: GridAxis | None = None
    temp_axis: GridAxis | None = None
    temp_ratio: float | None = None
    measure: str = "both"
    reduction: str = "instantaneous"

    def __post_init__(self):
        if self.mass_ratio < 0.0:
            raise ValueError(f"mass_ratio must be >= 0, got {self.mass_ratio}")
        if self.measure not in ("concurrence", "negativity", "both"):
            raise ValueError(f"unknown measure {self.measure!r}")
        if self.reduction not in ("instantaneous", "max_over_time"):
            raise ValueError(f"unknown reduction {self.reduction!r}")


@dataclass(frozen=True)
class SweepResult:
    """Grid of measure values; rows follow axis1, columns axis2 (omega*L)."""

    config: SweepConfig
    axis1: np.ndarray
    axis2: np.ndarray
    concurrence: np.ndarray
    negativity: np.ndarray
    method: np.ndarray
    cutoff_concurrence: float = CONCURRENCE_CUTOFF
    cutoff_negativity: float = NEGATIVITY_CUTOFF


def _column_measures(
    mass_ratio: float,
    temp_ratio: float | None,
    initial: XState,
    sep: float,
    taus: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, str]:
    """Both measures along a time grid at one separation, plus the method used."""
    config = FieldBathConfig.from_ratios(mass_ratio, sep, temp_ratio)
    coeffs = coefficients(config)
    if coeffs.is_frozen:
        value = entanglement(initial)
        ones = np.ones_like(taus)
        return value.concurrence * ones, value.negativity * ones, FROZEN
    gray = gray_factor(config.mass, config.omega)
    lam = spatial_factor(config.omega, config.separation, gray)
    if temp_ratio is None and abs(lam) <= 1.0 - LAMBDA_SINGULAR_BAND:
        xi = np.exp(-gray * config.gamma0 * taus)
        pop_g, pop_a, pop_s, pop_e = _closed_form_populations(
            initial.pop_e, initial.pop_a, initial.pop_s, lam, xi
        )
        coh_ge = initial.coh_ge * xi
        coh_as = initial.coh_as * xi
        method = CLOSED_FORM
    else:
        rates = build_rate_matrix(coeffs)
        pops = EigenPropagator(rates).populations(initial.populations(), taus)
        pop_g, pop_a, pop_s, pop_e = pops.T
        coh_ge = initial.coh_ge * np.exp(-rates.decay_ge * taus)
        coh_as = initial.coh_as * np.exp(-rates.decay_as * taus)
        method = EIGEN
    conc, neg = _measures_arrays(pop_g, pop_a, pop_s, pop_e, coh_ge, coh_as)
    return conc, neg, method


def evolve_scan(config: SweepConfig) -> SweepResult:
    """Instantaneous measure values over a (Gamma0*tau, omega*L) grid."""
    if config.reduction != "instantaneous":
        raise ValueError("evolve_scan requires reduction='instantaneous'")
    if config.tau_axis is None:
        raise ValueError("evolve_scan requires a tau_axis")
    taus = config.tau_axis.values()
    seps = config.sep_axis.values()
    conc = np.zeros((taus.size, seps.size))
    neg = np.zeros_like(conc)
    method = np.empty((taus.size, seps.size), dtype=object)
    for j, sep in enumerate(seps):
        try:
            col_c, col_n, col_method = _column_measures(
                config.mass_ratio, config.temp_ratio, config.initial, sep, taus
            )
        except Exception as exc:
            raise SweepCellError(
                f"sweep failed at separation {sep}: {exc}", axis2=sep
            ) from exc
        conc[:, j] = col_c
        neg[:, j] = col_n
        method[:, j] = col_method
    return SweepResult(config, taus, seps, conc, neg, method)


def _grid_peaks(values: np.ndarray, grid: np.ndarray):
    """Best sample along the last axis, the bracket of its neighbours, its index."""
    i = np.argmax(values, axis=-1)[..., None]
    last = grid.shape[-1] - 1
    return (
        np.take_along_axis(values, i, -1)[..., 0],
        np.take_along_axis(grid, np.maximum(i - 1, 0), -1)[..., 0],
        np.take_along_axis(grid, np.minimum(i + 1, last), -1)[..., 0],
        i[..., 0],
    )


def _zoom(evaluate, lo: np.ndarray, hi: np.ndarray, points: int = ZOOM_POINTS) -> np.ndarray:
    """Maximum of `evaluate` inside every bracket [lo, hi], by zooming.

    Each of ZOOM_LEVELS levels samples `points` equally spaced points in
    every bracket with one call, evaluate(grid) with grid of shape
    lo.shape + (points,), then shrinks each bracket to the neighbours of its
    best sample.
    """
    best = np.full(lo.shape, -np.inf)
    for _ in range(ZOOM_LEVELS):
        grid = np.linspace(lo, hi, points, axis=-1)
        top, lo, hi, _ = _grid_peaks(evaluate(grid), grid)
        best = np.maximum(best, top)
    return best


# perfbench/tracing.py times the refinement stage under its former name.
_golden_max = _zoom


def _stack_measures(initial: XState, rates: list[RateMatrix]):
    """measures(taus) -> (2, N, S, K) concurrence and negativity of N cells at
    per-cell times taus of shape (N, S, K), from one propagation call."""
    prop = EigenPropagator(rates)
    pops0 = initial.populations()
    decay_ge = np.array([r.decay_ge for r in rates])[:, None, None]
    decay_as = np.array([r.decay_as for r in rates])[:, None, None]

    def measures(taus: np.ndarray) -> np.ndarray:
        pops = prop.populations(pops0, taus)
        return np.stack(
            _measures_arrays(
                pops[..., 0],
                pops[..., 1],
                pops[..., 2],
                pops[..., 3],
                initial.coh_ge * np.exp(-decay_ge * taus),
                initial.coh_as * np.exp(-decay_as * taus),
            )
        )

    return measures


def _max_over_time(
    initial: XState,
    rates: list[RateMatrix],
    gray: float,
    cells: list[tuple],
    tau_points: int = 1201,
    tol: float = 1e-6,
) -> np.ndarray:
    """Max over Gamma0*tau of (concurrence, negativity) for a stack of cells.

    `rates` holds N non-frozen rate matrices and `cells` their grid
    coordinates (T/omega, omega*L), used to name a cell that fails. Every
    cell starts at Gamma0*tau_max = 20/gray; each pass samples [0, tau_max]
    on tau_points points, zooms in on the best sample of each measure and
    doubles tau_max for the cells whose maxima moved by tol or more since the
    last pass. Each step is one array operation over the cells still active;
    a cell leaves the stack on the pass on which it became stable. Returns
    (2, N).
    """
    peaks = np.empty((2, len(rates)))
    active = np.arange(len(rates))
    best = np.full((2, active.size), -np.inf)
    stacked = 0
    tau_max = 20.0 / gray if gray > 0.0 else 20.0
    for _ in range(MAX_DOUBLINGS):
        if stacked != active.size:
            measures = _stack_measures(initial, [rates[k] for k in active])
            stacked = active.size

        def zoomed(grid: np.ndarray) -> np.ndarray:
            # Both measures' brackets go through one propagation call.
            values = measures(np.swapaxes(grid, 0, 1))
            return np.stack((values[0, :, 0], values[1, :, 1]))

        taus = np.linspace(0.0, tau_max, tau_points)
        grid = np.broadcast_to(taus, (2, active.size, tau_points))
        on_grid, lo, hi, _ = _grid_peaks(measures(grid[0, :, None])[:, :, 0], grid)
        new = np.maximum(on_grid, _zoom(zoomed, lo, hi))
        stable = np.all(np.abs(new - best) < tol, axis=0)
        best = np.maximum(best, new)
        peaks[:, active[stable]] = np.maximum(best[:, stable], 0.0)
        active, best = active[~stable], best[:, ~stable]
        if not active.size:
            return peaks
        tau_max *= 2.0
    axis1, axis2 = cells[int(active[0])]
    raise NonConvergedMaxError(
        f"max-over-time did not stabilize below {tol} within {MAX_DOUBLINGS} "
        f"horizon doublings at (T/omega={axis1}, omega*L={axis2})",
        axis1=axis1,
        axis2=axis2,
    )


def _cell_maxima(
    initial: XState, rates: list[RateMatrix], gray: float, cells: list[tuple]
) -> np.ndarray:
    """(2, N) max-over-time measures of N cells, CELL_BLOCK cells per kernel call.

    Frozen cells keep the initial values; `cells` holds each cell's
    coordinates for errors.
    """
    peaks = np.empty((2, len(rates)))
    frozen = np.array([r.is_frozen for r in rates], dtype=bool)
    value = entanglement(initial)
    peaks[:, frozen] = [[value.concurrence], [value.negativity]]
    live = np.flatnonzero(~frozen)
    for start in range(0, live.size, CELL_BLOCK):
        block = live[start : start + CELL_BLOCK]
        peaks[:, block] = _max_over_time(
            initial, [rates[k] for k in block], gray, [cells[k] for k in block]
        )
    return peaks


def thermal_scan(config: SweepConfig) -> SweepResult:
    """Max-over-time measure values over a (T/omega, omega*L) grid.

    Both measures are always computed. Raises ValueError for T/omega <= 0
    before any cell runs; a failing cell raises SweepCellError or
    NonConvergedMaxError carrying its (T/omega, omega*L).
    """
    if config.reduction != "max_over_time":
        raise ValueError("thermal_scan requires reduction='max_over_time'")
    if config.temp_axis is None:
        raise ValueError("thermal_scan requires a temp_axis")
    temps = config.temp_axis.values()
    if not temps[0] > 0.0:
        raise ValueError(f"T/omega must be > 0, got {temps[0]}")
    seps = config.sep_axis.values()
    gray = gray_factor(config.mass_ratio, 1.0)
    cells = [(float(temp), float(sep)) for temp in temps for sep in seps]
    rates = []
    for temp, sep in cells:
        try:
            cfg = FieldBathConfig.from_ratios(config.mass_ratio, sep, temp)
            rates.append(build_rate_matrix(coefficients(cfg)))
        except Exception as exc:
            raise SweepCellError(
                f"sweep failed at (T/omega={temp}, omega*L={sep}): {exc}",
                axis1=temp,
                axis2=sep,
            ) from exc
    peaks = _cell_maxima(config.initial, rates, gray, cells)
    shape = (temps.size, seps.size)
    frozen = np.array([r.is_frozen for r in rates]).reshape(shape)
    method = np.where(frozen, FROZEN, EIGEN).astype(object)
    return SweepResult(
        config, temps, seps, peaks[0].reshape(shape), peaks[1].reshape(shape), method
    )


def scaling_check(
    mass_ratio: float,
    initial: XState,
    temp_ratio: float | None,
    tau_axis: GridAxis,
    sep_axis: GridAxis,
) -> float:
    """Max deviation of the mass-rescaling identity over the grid.

    Compares both measures of the massive system at (L, tau) against the
    massless one at (gray*L, gray*tau); the identity holds exactly, so the
    returned deviation is pure numerical noise.
    """
    if not 0.0 <= mass_ratio < 1.0:
        raise ValueError(f"mass_ratio must lie in [0, 1), got {mass_ratio}")
    gray = gray_factor(mass_ratio, 1.0)
    taus = tau_axis.values()
    deviation = 0.0
    for sep in sep_axis.values():
        massive_c, massive_n, _ = _column_measures(
            mass_ratio, temp_ratio, initial, sep, taus
        )
        massless_c, massless_n, _ = _column_measures(
            0.0, temp_ratio, initial, gray * sep, gray * taus
        )
        deviation = max(
            deviation,
            float(np.max(np.abs(massive_c - massless_c))),
            float(np.max(np.abs(massive_n - massless_n))),
        )
    return deviation


def _vacuum_max_over_time(
    initial: XState,
    mass_ratio: float,
    seps,
    measure: str,
    u_points: int = 1600,
):
    """Max over time of one measure in the vacuum at each separation in seps.

    Works in the decay exponent u = gray*Gamma0*tau on the closed form,
    CELL_BLOCK separations per array pass; a separation whose maximum sits at
    the right edge of [0, u_max] (late-time delayed birth) gets u_max doubled.
    Separations in the |lam| ~ 1 band go through the eigen kernel. Returns a
    float for a scalar sep, else an array shaped like seps.
    """
    flat = np.atleast_1d(np.asarray(seps, dtype=float)).ravel()
    which = 0 if measure == "concurrence" else 1
    gray = gray_factor(mass_ratio, 1.0)
    # Frozen dynamics (gray = 0) has lam = 1 and lies in the band too.
    lams = np.array([spatial_factor(1.0, sep, gray) for sep in flat])
    in_band = np.abs(lams) > 1.0 - LAMBDA_SINGULAR_BAND
    out = np.empty(flat.size)
    band_rates = [
        build_rate_matrix(vacuum_coefficients(FieldBathConfig.from_ratios(mass_ratio, sep)))
        for sep in flat[in_band]
    ]
    band_cells = [(None, float(sep)) for sep in flat[in_band]]
    out[in_band] = _cell_maxima(initial, band_rates, gray, band_cells)[which]
    closed = np.flatnonzero(~in_band)
    for start in range(0, closed.size, CELL_BLOCK):
        block = closed[start : start + CELL_BLOCK]
        out[block] = _closed_form_maxima(initial, lams[block], which, u_points, flat[block])
    return float(out[0]) if np.ndim(seps) == 0 else out.reshape(np.shape(seps))


def _closed_form_maxima(
    initial: XState, lams: np.ndarray, which: int, u_points: int, seps: np.ndarray
) -> np.ndarray:
    """Max over u of measure `which` on the vacuum closed form, one per lam."""

    def values(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
        xi = np.exp(-u)
        pop_g, pop_a, pop_s, pop_e = _closed_form_populations(
            initial.pop_e, initial.pop_a, initial.pop_s, lam[:, None], xi
        )
        return _measures_arrays(
            pop_g, pop_a, pop_s, pop_e, initial.coh_ge * xi, initial.coh_as * xi
        )[which]

    peaks = np.empty(lams.size)
    pending = np.arange(lams.size)
    u_max = 40.0
    for _ in range(20):
        lam = lams[pending]
        grid = np.broadcast_to(np.linspace(0.0, u_max, u_points), (lam.size, u_points))
        on_grid, lo, hi, i = _grid_peaks(values(grid, lam), grid)
        done = i < u_points - 2
        refined = _zoom(lambda u: values(u, lam[done]), lo[done], hi[done])
        peaks[pending[done]] = np.maximum(on_grid[done], refined)
        pending = pending[~done]
        if not pending.size:
            return peaks
        u_max *= 2.0
    sep = float(seps[pending[0]])
    raise NonConvergedMaxError(
        f"vacuum max-over-time kept peaking at the horizon at omega*L={sep}",
        axis2=sep,
    )


def generation_reach(
    mass_ratio: float,
    initial: XState | None = None,
    cutoff: float = CONCURRENCE_CUTOFF,
    measure: str = "concurrence",
) -> float:
    """Largest omega*L at which the max-over-time measure exceeds cutoff.

    Vacuum bath. Scans separations out to gray*omega*L = 26 (beyond which the
    cross-qubit coupling is far too weak for any practical cutoff) and refines
    the last crossing by bisection to 1e-4 relative.
    """
    initial = XState.excited() if initial is None else initial
    if cutoff <= 0.0:
        raise ValueError(f"cutoff must be > 0, got {cutoff}")
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
        raise NoGenerationError(
            f"measure never exceeds cutoff {cutoff} at any separation"
        )
    last = int(above[-1])
    if last == x_grid.size - 1:
        raise NoGenerationError("generation region extends beyond the scan window")
    lo, hi = x_grid[last], x_grid[last + 1]
    while (hi - lo) > 1e-4 * hi:
        mid = 0.5 * (lo + hi)
        if max_measure(mid / gray) > cutoff:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) / gray


def enlargement_factor(
    mass_ratio: float,
    initial: XState | None = None,
    cutoff: float = CONCURRENCE_CUTOFF,
    measure: str = "concurrence",
) -> float:
    """Ratio of the massive to massless generation reach (expected: 1/gray)."""
    if not 0.0 < mass_ratio < 1.0:
        raise ValueError(f"mass_ratio must lie in (0, 1), got {mass_ratio}")
    initial = XState.excited() if initial is None else initial
    massless = generation_reach(0.0, initial, cutoff, measure)
    massive = generation_reach(mass_ratio, initial, cutoff, measure)
    return massive / massless


@dataclass(frozen=True)
class CoefficientCheck:
    """Outcome of cross-checking coefficients against the spectral route."""

    max_relative_deviation: float
    kms_deviation: float | None


def _relative(x: float, y: float) -> float:
    scale = max(abs(x), abs(y))
    if scale == 0.0:
        return 0.0
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
        oracle = (
            mu2_4 * (gs_pos + gs_neg),
            oracle_b1,
            mu2_4 * (gc_pos + gc_neg),
            oracle_b2,
        )
        routes = zip(
            (direct.a1 * factor, direct.b1 * factor, direct.a2 * factor, direct.b2 * factor),
            oracle,
        )
        return CoefficientCheck(
            max_relative_deviation=max(_relative(x, y) for x, y in routes),
            kms_deviation=None,
        )
    coth = 1.0 / math.tanh(0.5 * config.omega / config.temperature)
    dev = max(
        _relative(direct.b1 * factor, oracle_b1),
        _relative(direct.b2 * factor, oracle_b2),
    )
    kms = 0.0
    if direct.b1 > 0.0:
        kms = abs(direct.a1 * factor / direct.b1 - coth) / coth
    if direct.b2 != 0.0:
        kms = max(kms, abs(direct.a2 * factor / direct.b2 - coth) / coth)
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

    Bisects on temperature; at each temperature the max-over-time concurrence
    is maximized over a separation grid (refined around the best point).
    """
    initial = XState.excited() if initial is None else initial
    gray = gray_factor(mass_ratio, 1.0)
    if gray == 0.0:
        raise NoGenerationError("frozen dynamics: nothing is ever generated")
    if sep_values is None:
        sep_values = np.geomspace(0.05, 6.0, 24) / gray
    sep_values = np.asarray(sep_values, dtype=float)

    def best_over_seps(temp: float) -> float:
        def peaks(seps: np.ndarray) -> np.ndarray:
            flat = seps.ravel()
            rates = [
                build_rate_matrix(
                    thermal_coefficients(FieldBathConfig.from_ratios(mass_ratio, sep, temp))
                )
                for sep in flat
            ]
            cells = [(temp, float(sep)) for sep in flat]
            return _cell_maxima(initial, rates, gray, cells)[0].reshape(seps.shape)

        values = peaks(sep_values)
        _, lo, hi, _ = _grid_peaks(values, np.log(sep_values))
        log_peak = _zoom(lambda u: peaks(np.exp(u)), lo, hi, points=SEP_ZOOM_POINTS)
        return max(float(values.max()), float(log_peak))

    t_lo, t_hi = bracket
    if not best_over_seps(t_lo) > cutoff:
        raise NoGenerationError(
            f"no generation above cutoff even at T/omega = {t_lo}"
        )
    if best_over_seps(t_hi) > cutoff:
        raise NonConvergedMaxError(
            f"generation persists at T/omega = {t_hi}; widen the bracket"
        )
    while t_hi - t_lo > tol:
        mid = 0.5 * (t_lo + t_hi)
        if best_over_seps(mid) > cutoff:
            t_lo = mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)


def lifetime_by_bisection(
    e: float, g: float, a: float, s: float, gray: float, g0: float
) -> float:
    """Disentanglement time found as the root of the closed-form concurrence.

    Independent of the closed-form lifetime expression: bisects the sign of
    the dominant concurrence branch in the decay variable xi.
    """
    if gray <= 0.0 or g0 <= 0.0:
        raise ValueError("gray and gamma0 must be > 0 for a finite lifetime")
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


@dataclass(frozen=True)
class SuiteResult:
    """One verification suite outcome."""

    name: str
    max_deviation: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.threshold


def _vacuum_like_coefficients(lam: float):
    """Vacuum-structure coefficients with gray*Gamma0 = 1 and the given lam."""
    from .field_bath import GklsCoefficients

    return GklsCoefficients(a1=0.25, b1=0.25, a2=0.25 * lam, b2=0.25 * lam)


def _state_distance(x: XState, y: XState) -> float:
    return max(
        abs(x.pop_g - y.pop_g),
        abs(x.pop_a - y.pop_a),
        abs(x.pop_s - y.pop_s),
        abs(x.pop_e - y.pop_e),
        abs(x.coh_ge - y.coh_ge),
        abs(x.coh_as - y.coh_as),
    )


def run_verification(seed: int = 0, perturb: float = 0.0) -> list[SuiteResult]:
    """Run the self-check suites used by the `verify` command.

    Deterministic for a given seed. `perturb` is forwarded to the coefficient
    comparison as a fault-injection hook.
    """
    from .measures import lifetime, sudden_death_condition
    from .xstate import integrate_ode, propagate_eigen

    rng = np.random.default_rng(seed)
    results = []

    tau_axis = GridAxis(0.05, 6.0, 8)
    sep_axis = GridAxis(0.1, 12.0, 8)
    initials = [XState.excited(), XState.antisymmetric(), XState.bell_ge()]
    dev = max(
        scaling_check(mass, initial, None, tau_axis, sep_axis)
        for mass in (0.3, 0.8, 0.995)
        for initial in initials
    )
    results.append(SuiteResult("scaling-vacuum", dev, 1e-10))

    dev = max(
        scaling_check(0.8, initial, temp, tau_axis, sep_axis)
        for temp in (0.05, 0.2)
        for initial in initials
    )
    results.append(SuiteResult("scaling-thermal", dev, 1e-9))

    dev = 0.0
    count = 0
    while count < 300:
        g, a, s, e = rng.dirichlet(np.ones(4))
        if not sudden_death_condition(e, g, a, s):
            continue
        count += 1
        formula = lifetime(e, g, a, s, 1.0, 1.0)
        oracle = lifetime_by_bisection(e, g, a, s, 1.0, 1.0)
        dev = max(dev, abs(formula - oracle) / oracle)
    results.append(SuiteResult("lifetime-bisection", dev, 1e-8))

    dev = 0.0
    for _ in range(30):
        state = random_xstate(rng)
        lam = rng.uniform(-0.9, 0.9)
        tau = rng.uniform(0.1, 5.0)
        rates = build_rate_matrix(_vacuum_like_coefficients(lam))
        closed = closed_form_state(state, lam, decay_factor(tau, 1.0, 1.0))
        eigen = propagate_eigen(state, rates, tau)
        ode = integrate_ode(state, rates, tau, tol=1e-10).states[-1]
        dev = max(dev, _state_distance(closed, eigen), _state_distance(eigen, ode))
    for _ in range(30):
        state = random_xstate(rng)
        temp = rng.uniform(0.05, 2.0)
        sep = rng.uniform(0.1, 10.0)
        tau = rng.uniform(0.1, 5.0)
        cfg = FieldBathConfig.from_ratios(0.0, sep, temp)
        rates = build_rate_matrix(thermal_coefficients(cfg))
        eigen = propagate_eigen(state, rates, tau)
        ode = integrate_ode(state, rates, tau, tol=1e-10).states[-1]
        dev = max(dev, _state_distance(eigen, ode))
    results.append(SuiteResult("method-agreement", dev, 1e-8))

    dev = 0.0
    kms = 0.0
    for mass in (0.0, 0.3, 0.6, 0.9, 0.995):
        for sep in (0.1, 1.0, 5.0, 20.0):
            check = verify_coefficients(
                FieldBathConfig.from_ratios(mass, sep), perturb=perturb
            )
            dev = max(dev, check.max_relative_deviation)
            for temp in (2.0, 0.5, 0.1):
                check = verify_coefficients(
                    FieldBathConfig.from_ratios(mass, sep, temp), perturb=perturb
                )
                dev = max(dev, check.max_relative_deviation)
                if check.kms_deviation is not None:
                    kms = max(kms, check.kms_deviation)
    results.append(SuiteResult("coefficient-oracle", max(dev, kms), 1e-12))
    return results
