"""The batched max-over-time kernel against an independent expm oracle.

The oracle samples the population generator's matrix exponential on uniform
time segments out to 50 e-foldings of the slowest mode, re-grids three times
around the best sample of each measure, and takes concurrence and negativity
from the full 4x4 product-basis density matrix (Wootters' spin flip and the
partial transpose), not from the package's X-state formulas.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import massbath.experiments as experiments
from massbath import (
    FieldBathConfig,
    GklsCoefficients,
    GridAxis,
    NonConvergedMaxError,
    SweepConfig,
    XState,
    build_rate_matrix,
    coefficients,
    entanglement,
    gray_factor,
    random_xstate,
    thermal_scan,
)
from massbath.experiments import _cell_maxima, _max_over_time, _vacuum_max_over_time
from massbath.xstate import EigenPropagator, RateMatrix

KERNEL_TOL = 1e-6

_SQ = 1.0 / math.sqrt(2.0)
# Columns: the coupled basis G, A, S, E in the product basis {00, 01, 10, 11}.
_COUPLED = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -_SQ, _SQ, 0.0],
        [0.0, _SQ, _SQ, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)
_FLIP = np.kron(np.array([[0.0, -1j], [1j, 0.0]]), np.array([[0.0, -1j], [1j, 0.0]]))


def _oracle_measures(pops, coh_ge, coh_as):
    """Concurrence and negativity of full density matrices, stacked."""
    coupled = np.zeros((len(pops), 4, 4), dtype=complex)
    for i in range(4):
        coupled[:, i, i] = pops[:, i]
    coupled[:, 0, 3] = coh_ge
    coupled[:, 3, 0] = np.conj(coh_ge)
    coupled[:, 1, 2] = coh_as
    coupled[:, 2, 1] = np.conj(coh_as)
    rho = _COUPLED @ coupled @ _COUPLED.T
    tilde = _FLIP @ np.conj(rho) @ _FLIP
    roots = np.sqrt(np.abs(np.sort(np.linalg.eigvals(rho @ tilde).real, axis=1)))
    conc = np.maximum(0.0, roots[:, 3] - roots[:, 2] - roots[:, 1] - roots[:, 0])
    pt = rho.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    neg = np.sum(np.maximum(0.0, -2.0 * np.linalg.eigvalsh(pt)), axis=1)
    return conc, neg


def oracle_max(rates, initial: XState, segment_steps: int = 600):
    """(max concurrence, max negativity, tau of the concurrence peak)."""
    gen = rates.generator
    pops0 = initial.populations()
    modes = np.abs(np.linalg.eigvals(gen).real)
    scale = max(float(np.max(np.abs(gen))), rates.decay_ge)
    decays = [r for r in list(modes) + [rates.decay_ge] if r > 1e-13 * scale]
    slow, fast = min(decays), max(decays)

    def measures(taus):
        pops = np.stack([expm(gen * t) @ pops0 for t in taus])
        return _oracle_measures(
            pops,
            initial.coh_ge * np.exp(-rates.decay_ge * taus),
            initial.coh_as * np.exp(-rates.decay_as * taus),
        )

    # Uniform segments [0, T], [T, 2T], [2T, 4T], ... stepped with expm(G dt).
    taus, pops = [0.0], [pops0]
    start, width = 0.0, 1.0 / fast
    while start < 50.0 / slow:
        step = expm(gen * width / segment_steps)
        for k in range(1, segment_steps + 1):
            pops.append(step @ pops[-1])
            taus.append(start + width * k / segment_steps)
        start += width
        width = start
    taus = np.array(taus)
    pops = np.array(pops)
    sampled = _oracle_measures(
        pops,
        initial.coh_ge * np.exp(-rates.decay_ge * taus),
        initial.coh_as * np.exp(-rates.decay_as * taus),
    )
    peaks = []
    for which, values in enumerate(sampled):
        i = int(np.argmax(values))
        best, where = values[i], taus[i]
        lo, hi = taus[max(i - 1, 0)], taus[min(i + 1, taus.size - 1)]
        for _ in range(3):
            grid = np.linspace(lo, hi, 201)
            fine = measures(grid)[which]
            j = int(np.argmax(fine))
            if fine[j] > best:
                best, where = fine[j], grid[j]
            lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)]
        peaks.append((best, where))
    return peaks[0][0], peaks[1][0], peaks[0][1]


def thermal_rates(mass, sep, temp):
    return build_rate_matrix(coefficients(FieldBathConfig.from_ratios(mass, sep, temp)))


def kernel(initial, mass, cells):
    """Kernel maxima (2, N) for thermal cells [(T/omega, omega*L), ...]."""
    rates = [thermal_rates(mass, sep, temp) for temp, sep in cells]
    return _max_over_time(initial, rates, gray_factor(mass, 1.0), cells)


def assert_matches_oracle(initial, mass, cells):
    got = kernel(initial, mass, cells)
    for k, (temp, sep) in enumerate(cells):
        conc, neg, _ = oracle_max(thermal_rates(mass, sep, temp), initial)
        assert got[0, k] == pytest.approx(conc, abs=KERNEL_TOL), (temp, sep)
        assert got[1, k] == pytest.approx(neg, abs=KERNEL_TOL), (temp, sep)


def test_bell_ge_peak_at_time_zero():
    initial = XState.bell_ge()
    cells = [(0.1, 0.5), (0.3, 4.0)]
    got = kernel(initial, 0.3, cells)
    assert np.max(np.abs(got - 1.0)) < 1e-12
    assert_matches_oracle(initial, 0.3, cells)


@pytest.mark.parametrize("kind", ["E", "random"])
def test_temperature_range(kind):
    rng = np.random.default_rng(7)
    initial = XState.excited() if kind == "E" else random_xstate(rng)
    mass = float(rng.uniform(0.0, 0.95))
    cells = [
        (float(rng.uniform(0.02, 0.4)), float(rng.uniform(0.05, 12.0))) for _ in range(3)
    ]
    assert_matches_oracle(initial, mass, cells + [(0.02, 1.0), (0.4, 0.3)])


def test_heavy_field_peaks_late():
    # m/omega = 0.995 stretches every time scale by 1/gray ~ 10: the peaks
    # lie far beyond tau = 20 and the first pass reaches 20/gray.
    gray = gray_factor(0.995, 1.0)
    cells = [(0.02, 0.5 / gray), (0.1, 2.0 / gray), (0.2, 1.0 / gray)]
    for temp, sep in cells:
        assert oracle_max(thermal_rates(0.995, sep, temp), XState.excited())[2] > 20.0
    assert_matches_oracle(XState.excited(), 0.995, cells)


def test_late_peak_forces_horizon_doubling():
    # G -> A slowly, A -> S more slowly, S -> G fast: the A-S imbalance, and
    # with it both measures, peaks at tau = ln(4)/0.003 ~ 462, past the
    # first two horizons 20/gray and 40/gray for gray = 0.1.
    slow_in, slow_out = 0.004, 0.001
    gen = np.zeros((4, 4))
    gen[1, 0], gen[0, 0] = slow_in, -slow_in
    gen[2, 1], gen[1, 1] = slow_out, -slow_out
    gen[0, 2], gen[2, 2] = 1.0, -1.0
    rates = RateMatrix(generator=gen, decay_as=0.0, decay_ge=0.0)
    conc, neg, where = oracle_max(rates, XState.ground())
    assert where > 40.0 / 0.1
    got = _max_over_time(XState.ground(), [rates], 0.1, [(None, None)])
    assert got[0, 0] == pytest.approx(conc, abs=KERNEL_TOL)
    assert got[1, 0] == pytest.approx(neg, abs=KERNEL_TOL)


def test_slow_corner_uses_expm_fallback():
    cells = [(0.028, 0.07), (0.027, 0.065)]
    for temp, sep in cells:
        assert EigenPropagator(thermal_rates(0.9, sep, temp))._use_expm[0]
    assert_matches_oracle(XState.excited(), 0.9, cells)


def test_expm_powers_match_per_point_expm():
    rates = thermal_rates(0.9, 0.07, 0.028)
    prop = EigenPropagator(rates)
    assert prop._use_expm[0]
    pops0 = XState.excited().populations()
    taus = np.linspace(0.0, 3000.0, 1201)
    expected = np.stack([expm(rates.generator * t) @ pops0 for t in taus])
    assert np.max(np.abs(prop.populations(pops0, taus) - expected)) < 1e-12
    # A non-uniform grid takes one exponential per time.
    log_taus = np.geomspace(1e-3, 3000.0, 50)
    expected = np.stack([expm(rates.generator * t) @ pops0 for t in log_taus])
    assert np.max(np.abs(prop.populations(pops0, log_taus) - expected)) < 1e-12


def test_frozen_and_live_cells_in_one_map():
    initial = random_xstate(np.random.default_rng(3))
    frozen = build_rate_matrix(GklsCoefficients(a1=0.0, b1=0.0, a2=0.0, b2=0.0))
    cells = [(0.05, 1.0), (None, None), (0.2, 3.0), (None, None)]
    rates = [frozen if temp is None else thermal_rates(0.5, sep, temp) for temp, sep in cells]
    got = _cell_maxima(initial, rates, gray_factor(0.5, 1.0), cells)
    value = entanglement(initial)
    assert np.array_equal(got[:, 1], [value.concurrence, value.negativity])
    assert np.array_equal(got[:, 3], got[:, 1])
    for k in (0, 2):
        conc, neg, _ = oracle_max(rates[k], initial)
        assert got[0, k] == pytest.approx(conc, abs=KERNEL_TOL)
        assert got[1, k] == pytest.approx(neg, abs=KERNEL_TOL)


def test_cell_value_independent_of_block_and_neighbours():
    rng = np.random.default_rng(11)
    initial = random_xstate(rng)
    cells = [
        (float(rng.uniform(0.02, 0.4)), float(rng.uniform(0.05, 15.0))) for _ in range(11)
    ]
    cells.append((0.028, 0.07))  # an expm-fallback cell among eigen cells
    together = kernel(initial, 0.9, cells)
    alone = np.hstack([kernel(initial, 0.9, [cell]) for cell in cells])
    reversed_order = kernel(initial, 0.9, cells[::-1])[:, ::-1]
    assert np.max(np.abs(together - alone)) <= 1e-12
    assert np.max(np.abs(together - reversed_order)) <= 1e-12
    # thermal_scan splits its 3 x 4 map into blocks of CELL_BLOCK cells.
    config = SweepConfig(
        mass_ratio=0.9,
        initial=initial,
        sep_axis=GridAxis(0.5, 6.0, 4),
        temp_axis=GridAxis(0.05, 0.3, 3),
        reduction="max_over_time",
    )
    result = thermal_scan(config)
    for i, temp in enumerate(result.axis1):
        for j, sep in enumerate(result.axis2):
            single = kernel(initial, 0.9, [(temp, sep)])[:, 0]
            assert abs(result.concurrence[i, j] - single[0]) <= 1e-12
            assert abs(result.negativity[i, j] - single[1]) <= 1e-12


def test_vacuum_batch_matches_single_separations_and_oracle():
    initial = XState.excited()
    # omega*L = 1e-4 lies in the |lam| ~ 1 band and routes to the eigen kernel.
    seps = np.array([1e-4, 0.3, 1.5, 4.0, 9.0])
    batch = _vacuum_max_over_time(initial, 0.8, seps, "concurrence")
    singles = [_vacuum_max_over_time(initial, 0.8, sep, "concurrence") for sep in seps]
    assert isinstance(singles[0], float)
    assert np.max(np.abs(batch - singles)) <= 1e-12
    for sep, value in zip(seps, batch):
        rates = build_rate_matrix(coefficients(FieldBathConfig.from_ratios(0.8, sep)))
        assert value == pytest.approx(oracle_max(rates, initial)[0], abs=KERNEL_TOL)


def test_non_converged_cell_is_named():
    rates = [thermal_rates(0.3, 2.0, 0.1)]
    with pytest.raises(NonConvergedMaxError) as info:
        _max_over_time(XState.excited(), rates, gray_factor(0.3, 1.0), [(0.1, 2.0)], tol=0.0)
    assert (info.value.axis1, info.value.axis2) == (0.1, 2.0)
    assert "T/omega=0.1" in str(info.value)


def test_thermal_scan_names_non_converged_cell(monkeypatch):
    monkeypatch.setattr(experiments, "MAX_DOUBLINGS", 1)
    config = SweepConfig(
        mass_ratio=0.0,
        initial=XState.excited(),
        sep_axis=GridAxis(1.0, 2.0, 2),
        temp_axis=GridAxis(0.1, 0.2, 2),
        reduction="max_over_time",
    )
    with pytest.raises(NonConvergedMaxError) as info:
        thermal_scan(config)
    assert (info.value.axis1, info.value.axis2) == (0.1, 1.0)


def test_thermal_scan_rejects_non_positive_temperature():
    config = SweepConfig(
        mass_ratio=0.0,
        initial=XState.excited(),
        sep_axis=GridAxis(1.0, 2.0, 2),
        temp_axis=GridAxis(-0.1, 0.2, 2),
        reduction="max_over_time",
    )
    with pytest.raises(ValueError, match="T/omega"):
        thermal_scan(config)
