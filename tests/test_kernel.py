"""The batched max-over-time kernel against an independent expm oracle.

The oracle samples the population generator's matrix exponential on uniform
time segments out to 50 e-foldings of the slowest mode, re-grids three times
around the best sample of each measure, and takes concurrence and negativity
from the full 4x4 product-basis density matrix (Wootters' spin flip and the
partial transpose), not from the package's X-state formulas.
"""

import math
from functools import partial

import numpy as np
import pytest
from scipy.linalg import expm

import massbath.experiments as experiments
from massbath import (
    FieldBathConfig,
    GklsCoefficients,
    NonConvergedMaxError,
    XState,
    build_rate_matrix,
    coefficients,
    entanglement,
    gray_factor,
    random_xstate,
    spatial_factor,
    thermal_scan,
)
from massbath.experiments import (
    _max_over_time,
    _vacuum_max_over_time,
)
from massbath.measures import BOTH, _coherence_parts
from massbath.xstate import (
    CLOSED_FORM,
    EIGEN,
    EXPM,
    EigenPropagator,
    RateMatrix,
    RateStack,
    _vacuum_rates,
)

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
    return _max_over_time(initial, RateStack.of(rates), gray_factor(mass, 1.0), cells)[0]


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


def _late_peak_rates():
    # G -> A slowly, A -> S more slowly, S -> G fast; each coherence decays
    # at the positivity bound, the mean rate out of the populations it couples.
    slow_in, slow_out = 0.004, 0.001
    gen = np.zeros((4, 4))
    gen[1, 0], gen[0, 0] = slow_in, -slow_in
    gen[2, 1], gen[1, 1] = slow_out, -slow_out
    gen[0, 2], gen[2, 2] = 1.0, -1.0
    return RateMatrix(generator=gen, decay_as=0.5 * (slow_out + 1.0), decay_ge=0.5 * slow_in)


def test_late_peak_forces_horizon_doubling():
    # From G, the A-S imbalance, and with it both measures, peaks at
    # tau = ln(4)/0.003 ~ 462, past the first two horizons 20/gray and
    # 40/gray for gray = 0.1.
    rates = _late_peak_rates()
    conc, neg, where = oracle_max(rates, XState.ground())
    assert where > 40.0 / 0.1
    got, _ = _max_over_time(XState.ground(), RateStack.of([rates]), 0.1, [(None, None)])
    assert got[0, 0] == pytest.approx(conc, abs=KERNEL_TOL)
    assert got[1, 0] == pytest.approx(neg, abs=KERNEL_TOL)


def test_slow_corner_uses_expm_fallback():
    cells = [(0.028, 0.07), (0.027, 0.065)]
    for temp, sep in cells:
        assert EigenPropagator(thermal_rates(0.9, sep, temp)).routes[0] == EXPM
    assert_matches_oracle(XState.excited(), 0.9, cells)


def test_expm_powers_match_per_point_expm():
    rates = thermal_rates(0.9, 0.07, 0.028)
    prop = EigenPropagator(rates)
    assert prop.routes[0] == EXPM
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
    got, routes = _max_over_time(initial, RateStack.of(rates), gray_factor(0.5, 1.0), cells)
    assert list(routes) == ["eigen", "frozen", "eigen", "frozen"]
    value = entanglement(initial)
    assert np.array_equal(got[:, 1], [value.concurrence, value.negativity])
    assert np.array_equal(got[:, 3], got[:, 1])
    for k in (0, 2):
        conc, neg, _ = oracle_max(rates[k], initial)
        assert got[0, k] == pytest.approx(conc, abs=KERNEL_TOL)
        assert got[1, k] == pytest.approx(neg, abs=KERNEL_TOL)


def test_cell_value_independent_of_block_and_neighbours(monkeypatch):
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
    # The search's blocks hold MAP_BLOCK // points cells: one cell per block,
    # then every cell in one block.
    seps = np.arange(1, 521) * 0.05 / gray_factor(0.9, 1.0)
    maps, scans = [], []
    for budget in (1, 1 << 30):
        monkeypatch.setattr(experiments, "MAP_BLOCK", budget)
        result = thermal_scan(0.9, initial, np.linspace(0.05, 0.3, 3), np.linspace(0.5, 6.0, 4))
        maps.append(np.stack([result.concurrence, result.negativity]))
        scans.append(_vacuum_max_over_time(initial, 0.9, seps, "concurrence"))
    assert np.array_equal(maps[0], maps[1])
    assert np.array_equal(scans[0], scans[1])


def test_search_blocks_stay_within_the_samples_budget(monkeypatch):
    # Every propagation, the search's and the public populations', runs _planes.
    sizes = []
    planes = EigenPropagator._planes

    def recorded(self, pops0, rows, *args):
        sizes.append(np.size(rows))
        return planes(self, pops0, rows, *args)

    monkeypatch.setattr(EigenPropagator, "_planes", recorded)
    thermal_scan(0.5, XState.excited(), np.linspace(0.02, 0.4, 20), np.geomspace(0.05, 20.0, 40))
    assert max(sizes) <= experiments.MAP_BLOCK
    # The first pass fills blocks of MAP_BLOCK // 1201 cells.
    assert max(sizes) == (experiments.MAP_BLOCK // 1201) * 1201


def test_vacuum_batch_matches_single_separations_and_oracle():
    initial = XState.excited()
    # omega*L = 1e-4 puts 1 - lam near 1e-9, where one decay channel all but stops.
    seps = np.array([1e-4, 0.3, 1.5, 4.0, 9.0])
    batch = _vacuum_max_over_time(initial, 0.8, seps, "concurrence")
    singles = [_vacuum_max_over_time(initial, 0.8, sep, "concurrence") for sep in seps]
    assert isinstance(singles[0], float)
    assert np.max(np.abs(batch - singles)) <= 1e-12
    for sep, value in zip(seps, batch):
        rates = build_rate_matrix(coefficients(FieldBathConfig.from_ratios(0.8, sep)))
        assert value == pytest.approx(oracle_max(rates, initial)[0], abs=KERNEL_TOL)


def test_non_converged_cell_is_named(monkeypatch):
    # The late-peak cell's maxima still rise on its second pass, over
    # (200, 400], so two passes cannot retire it; the coordinates only name it.
    monkeypatch.setattr(experiments, "MAX_DOUBLINGS", 2)
    with pytest.raises(NonConvergedMaxError) as info:
        _max_over_time(XState.ground(), RateStack.of([_late_peak_rates()]), 0.1, [(0.1, 2.0)])
    assert (info.value.axis1, info.value.axis2) == (0.1, 2.0)
    assert "T/omega=0.1" in str(info.value)
    assert info.value.doublings == 2
    assert set(info.value.maxima) == set(BOTH)
    for previous, last in info.value.maxima.values():
        assert math.isfinite(previous) and last - previous >= KERNEL_TOL
    assert "after 2 horizon doublings" in str(info.value)
    assert "last two maxima: concurrence" in str(info.value)


def test_vacuum_non_converged_separation_is_named(monkeypatch):
    # A first pass has no earlier maximum to agree with, and at omega*L =
    # 1e-3 (1 - lam near 1e-7) the A population barely drains, so no tail
    # bound certifies the separation after one pass.
    expected = _vacuum_max_over_time(XState.excited(), 0.8, 1e-3, "concurrence")
    monkeypatch.setattr(experiments, "MAX_DOUBLINGS", 1)
    with pytest.raises(NonConvergedMaxError) as info:
        _vacuum_max_over_time(XState.excited(), 0.8, 1e-3, "concurrence")
    assert info.value.axis1 is None and info.value.axis2 == 1e-3
    assert info.value.doublings == 1
    assert set(info.value.maxima) == {"concurrence"}
    previous, last = info.value.maxima["concurrence"]
    assert math.isnan(previous) and last == expected
    assert "omega*L=0.001" in str(info.value)
    assert "T/omega" not in str(info.value)


def test_thermal_scan_names_non_converged_cell(monkeypatch):
    monkeypatch.setattr(experiments, "MAX_DOUBLINGS", 1)
    with pytest.raises(NonConvergedMaxError) as info:
        thermal_scan(0.0, XState.excited(), np.linspace(0.1, 0.2, 2), np.linspace(1.0, 2.0, 2))
    assert (info.value.axis1, info.value.axis2) == (0.1, 1.0)


def test_thermal_scan_rejects_non_positive_temperature():
    with pytest.raises(ValueError, match="T/omega"):
        thermal_scan(0.0, XState.excited(), np.linspace(-0.1, 0.2, 2), np.linspace(1.0, 2.0, 2))


# One initial state of each kind for the measure-selector tests: no
# coherence, a real G-E coherence at its maximum, and complex coherences in
# both blocks (unentangled at tau = 0, entangled later).
SELECTOR_STATES = {
    "E": XState.excited(),
    "bell-GE": XState.bell_ge(),
    "random": random_xstate(np.random.default_rng(18)),
}
VACUUM_SEPS = np.array([1e-4, 0.3, 1.5, 4.0])
# Vacuum maxima at m/omega = 0.8 and VACUUM_SEPS as the kernel gives them
# when it measures both quantities and keeps one. The E concurrence at
# omega*L = 1e-4 peaks near u = 43.85, past the first horizon, so its last
# bit comes from the second pass's grid (a dense closed-form scan puts the
# peak at 3.0000001683830356e-10).
VACUUM_MAXIMA = {
    ("E", "concurrence"): [
        3.000000168383042e-10, 0.002521388417868772, 0.026959317081901392, 0.0018514752999670078
    ],
    ("E", "negativity"): [
        0.0, 3.2957445471604174e-06, 0.0005712492439851058, 1.1185084413778412e-05
    ],
    ("bell-GE", "concurrence"): [1.0, 1.0, 1.0, 1.0],
    ("bell-GE", "negativity"): [1.0, 1.0, 1.0, 1.0],
    ("random", "concurrence"): [
        0.4312955718150971, 0.41697084147164837, 0.26986660040295407, 0.0202980979051237
    ],
    ("random", "negativity"): [
        0.14504664885246765, 0.13863132216242968, 0.0778587419540232, 0.0015761814216861403
    ],
}
SELECTOR_CELLS = [(0.03, 0.2), (0.08, 1.5), (0.15, 0.6), (0.3, 3.0)]


@pytest.mark.parametrize("measure", BOTH)
@pytest.mark.parametrize("name", list(SELECTOR_STATES))
def test_vacuum_one_measure_is_bit_identical(name, measure):
    initial = SELECTOR_STATES[name]
    expected = VACUUM_MAXIMA[name, measure]
    assert _vacuum_max_over_time(initial, 0.8, VACUUM_SEPS, measure).tolist() == expected


def _zoom_calls(brackets: int = 3) -> int:
    """The evaluate calls of one _zoom over `brackets` brackets of a parabola."""
    calls = []

    def evaluate(grid):
        calls.append(grid.shape)
        return -((grid - 0.3) ** 2)

    experiments._zoom(evaluate, np.zeros(brackets), np.ones(brackets))
    return len(calls)


def _counted_passes(monkeypatch, search):
    """search() with every propagator's cells tagged by their index in the
    propagator it was built as (through __init__, kept by take) and every
    measures call of _propagated_measures recording the cells it measures;
    returns its result and each cell's number of passes."""
    calls = []
    init, take = EigenPropagator.__init__, EigenPropagator.take
    propagated_measures = experiments._propagated_measures

    def tagged_init(self, rates):
        init(self, rates)
        self.cell_ids = np.arange(len(self.routes))

    def tagged_take(self, index):
        sub = take(self, index)
        sub.cell_ids = self.cell_ids[index]
        return sub

    def counted_measures(initial, prop, select, work):
        measures = propagated_measures(initial, prop, select, work)

        def counted(taus):
            calls.append(prop.cell_ids)
            return measures(taus)

        return counted

    with monkeypatch.context() as patch:
        patch.setattr(EigenPropagator, "__init__", tagged_init)
        patch.setattr(EigenPropagator, "take", tagged_take)
        patch.setattr(experiments, "_propagated_measures", counted_measures)
        got = search()
    per_call = 1 + _zoom_calls()  # a grid and the calls of its refinement
    assert len(calls) % per_call == 0
    counts = np.bincount(np.concatenate(calls), minlength=np.size(got, -1))
    assert np.all(counts % per_call == 0)
    return got, counts // per_call


def _counted_max_over_time(monkeypatch, initial, rates, gray, cell, select):
    """(maxima, passes) of one cell."""
    got, passes = _counted_passes(
        monkeypatch,
        lambda: _max_over_time(initial, RateStack.of([rates]), gray, [cell], select=select)[0],
    )
    return got[:, 0], int(passes[0])


@pytest.mark.parametrize("name", list(SELECTOR_STATES))
def test_thermal_one_measure_matches_its_row_of_both(name, monkeypatch):
    initial = SELECTOR_STATES[name]
    mass = 0.6
    gray = gray_factor(mass, 1.0)
    rates = [thermal_rates(mass, sep, temp) for temp, sep in SELECTOR_CELLS]
    stack = RateStack.of(rates)
    both, _ = _max_over_time(initial, stack, gray, SELECTOR_CELLS)
    for row, measure in enumerate(BOTH):
        one, _ = _max_over_time(initial, stack, gray, SELECTOR_CELLS, (measure,))
        assert one.shape == (1, len(SELECTOR_CELLS))
        assert np.max(np.abs(one[0] - both[row])) <= KERNEL_TOL
    for k, cell in enumerate(SELECTOR_CELLS):
        both_k, both_passes = _counted_max_over_time(
            monkeypatch, initial, rates[k], gray, cell, BOTH
        )
        assert np.array_equal(both_k, both[:, k])
        passes = []
        for row, measure in enumerate(BOTH):
            one_k, one_passes = _counted_max_over_time(
                monkeypatch, initial, rates[k], gray, cell, (measure,)
            )
            passes.append(one_passes)
            if one_passes == both_passes:
                assert one_k[0] == both_k[row], (cell, measure)
            else:
                assert abs(one_k[0] - both_k[row]) <= KERNEL_TOL, (cell, measure)
        # A both-measure cell runs until its slower measure is stable.
        assert both_passes == max(passes)


@pytest.mark.xfail(
    strict=True,
    reason="a cell is stable once two horizons give the same maximum, so a "
    "birth past the second horizon is missed",
)
@pytest.mark.parametrize(
    "populations, select",
    [
        # Entangled at tau = 0, and again, higher, near tau ~ 6400. In a
        # both-measure search the negativity's moving maximum keeps the cell
        # going; the concurrence alone stops after two horizons.
        pytest.param((0.0, 0.33, 0.3, 0.37), ("concurrence",), id="one-measure"),
        # Unentangled until tau ~ 6000: both maxima read 0 on two horizons.
        pytest.param((0.0, 0.3, 0.3, 0.4), BOTH, id="both-measures"),
    ],
)
def test_search_reaches_a_late_birth(populations, select):
    rates = _late_peak_rates()
    initial = XState(*populations)
    got, _ = _max_over_time(initial, RateStack.of([rates]), 0.1, [(None, None)], select=select)
    conc, neg, _ = oracle_max(rates, initial)
    expected = {"concurrence": conc, "negativity": neg}
    for row, name in enumerate(select):
        assert got[row, 0] == pytest.approx(expected[name], abs=KERNEL_TOL)


@pytest.mark.parametrize("kind", ["excited", "ground", "antisymmetric", "symmetric"])
def test_zero_coherence_shortcut_is_exact(kind, monkeypatch):
    initial = getattr(XState, kind)()
    assert experiments._faded_coherences(initial, 1.0, 1.0, np.ones(3)) == (0.0, 0.0, 0.0)
    gray = gray_factor(0.6, 1.0)
    rates = RateStack.of([thermal_rates(0.6, sep, temp) for temp, sep in SELECTOR_CELLS])
    thermal = _max_over_time(initial, rates, gray, SELECTOR_CELLS)[0]
    vacuum = [_vacuum_max_over_time(initial, 0.8, VACUUM_SEPS, m) for m in BOTH]

    def explicit(initial, decay_ge, decay_as, taus, out=None):
        return _coherence_parts(
            initial.coh_ge * np.exp(-decay_ge * taus),
            initial.coh_as * np.exp(-decay_as * taus),
        )

    monkeypatch.setattr(experiments, "_faded_coherences", explicit)
    assert np.array_equal(_max_over_time(initial, rates, gray, SELECTOR_CELLS)[0], thermal)
    for m, values in zip(BOTH, vacuum):
        assert np.array_equal(_vacuum_max_over_time(initial, 0.8, VACUUM_SEPS, m), values)


# Initial states of the cutoff tests: E (generation only), bell-GE (maximally
# entangled at tau = 0) and a random X state.
CUTOFF_STATES = {
    "E": XState.excited(),
    "bell-GE": XState.bell_ge(),
    "random": random_xstate(np.random.default_rng(23)),
}
CUTOFFS = (1e-6, 1e-3, 1e-1)


def assert_cutoff_decides(full, cut, cutoff):
    """The > cutoff answer of every entry is the full search's; an entry at or
    below the cutoff is bit-identical, one above it at most the full value."""
    assert np.array_equal(cut > cutoff, full > cutoff)
    below = full <= cutoff
    assert np.array_equal(cut[below], full[below])
    assert np.all(cut[~below] <= full[~below])
    return int(np.count_nonzero(below)), int(np.count_nonzero(~below))


def test_vacuum_cutoff_keeps_every_answer():
    rng = np.random.default_rng(29)
    counts = np.zeros(2, dtype=int)
    for initial in CUTOFF_STATES.values():
        mass = float(rng.uniform(0.0, 0.95))
        seps = np.concatenate([[1e-4], rng.uniform(0.05, 12.0, 15)])
        for measure in BOTH:
            full = _vacuum_max_over_time(initial, mass, seps, measure)
            for cutoff in CUTOFFS:
                cut = _vacuum_max_over_time(initial, mass, seps, measure, cutoff)
                counts += assert_cutoff_decides(full, cut, cutoff)
    assert counts.min() > 0


@pytest.mark.parametrize("select", [("concurrence",), BOTH], ids="-".join)
def test_thermal_cutoff_keeps_every_answer(select):
    rng = np.random.default_rng(31)
    counts = np.zeros(2, dtype=int)
    for initial in CUTOFF_STATES.values():
        mass = float(rng.uniform(0.0, 0.95))
        cells = [(float(rng.uniform(0.02, 0.4)), float(rng.uniform(0.05, 12.0)))
                 for _ in range(8)]
        temps, seps = np.array(cells).T
        rates = experiments._cell_rates(mass, seps, temps)
        gray = gray_factor(mass, 1.0)
        full, routes = _max_over_time(initial, rates, gray, cells, select)
        for cutoff in CUTOFFS:
            cut, cut_routes = _max_over_time(initial, rates, gray, cells, select, cutoff)
            counts += assert_cutoff_decides(full, cut, cutoff)
            assert np.array_equal(cut_routes, routes)
            # A cell with one measure at or below the cutoff runs on in full.
            partly = np.any(full <= cutoff, axis=0)
            assert np.array_equal(cut[:, partly], full[:, partly])
    assert counts.min() > 0


@pytest.mark.parametrize("select", [("concurrence",), ("negativity",), BOTH], ids="-".join)
def test_late_peak_cutoff_keeps_every_answer(select):
    # From G the late-peak cell's maxima rise from (0.51, 0.21) on the first
    # pass to (0.80, 0.62): a cell stops only once every selected maximum is
    # above the cutoff, and the maxima below it go on rising.
    rates, cells = RateStack.of([_late_peak_rates()]), [(None, None)]
    full, _ = _max_over_time(XState.ground(), rates, 0.1, cells, select)
    for cutoff in (0.4, 0.7):
        cut, _ = _max_over_time(XState.ground(), rates, 0.1, cells, select, cutoff=cutoff)
        assert_cutoff_decides(full, cut, cutoff)


def test_cell_above_cutoff_retires_after_its_first_pass(monkeypatch):
    # Vacuum at m/omega = 0.8 from E: the concurrence at omega*L = 1e-4 stays
    # near 3e-10 and peaks past the first horizon; the others pass 1e-3 early.
    initial, seps = XState.excited(), np.array([1e-4, 0.3, 1.5, 4.0])
    full, full_passes = _counted_passes(
        monkeypatch, lambda: _vacuum_max_over_time(initial, 0.8, seps, "concurrence"))
    cut, passes = _counted_passes(
        monkeypatch, lambda: _vacuum_max_over_time(initial, 0.8, seps, "concurrence", 1e-3))
    above = full > 1e-3
    assert above.tolist() == [False, True, True, True]
    assert np.all(passes[above] == 1)
    # Below the cutoff the one-sided rule still checks a second horizon.
    assert passes[0] == full_passes[0] >= 2 and cut[0] == full[0]
    # Thermal cells at m/omega = 0.6 from E: a concurrence peak above 1e-3
    # (the first three cells) or near 5e-9 (the last).
    gray = gray_factor(0.6, 1.0)
    rates = RateStack.of([thermal_rates(0.6, sep, temp) for temp, sep in SELECTOR_CELLS])
    select = ("concurrence",)

    def search(cutoff=math.inf):
        return _max_over_time(initial, rates, gray, SELECTOR_CELLS, select, cutoff)[0]

    full, full_passes = _counted_passes(monkeypatch, search)
    cut, passes = _counted_passes(monkeypatch, lambda: search(1e-3))
    assert (full[0] > 1e-3).tolist() == [True, True, True, False]
    assert passes.tolist()[:3] == [1, 1, 1]
    # Below the cutoff the tail bound certifies the 5e-9 cell after one pass,
    # with the bits of the search that checks a second horizon.
    monkeypatch.setattr(EigenPropagator, "tail", _no_certificate)
    uncertified, uncertified_passes = _counted_passes(monkeypatch, search)
    assert passes[3] == full_passes[3] == 1 and uncertified_passes[3] >= 2
    assert cut[0, 3] == full[0, 3] == uncertified[0, 3]


def _no_certificate(self, pops0, tau, weights):
    """EigenPropagator.tail without a bound: every radius inf."""
    shape = (len(self.routes), len(weights))
    return np.zeros(shape), np.full(shape, np.inf)


def _measured(initial, prop, taus):
    """Both measures of the cells of prop at per-cell times taus (N, 1, K)."""
    work = experiments._workspace(len(BOTH), taus.size)
    return experiments._propagated_measures(initial, prop, BOTH, work)(taus)


def _audit_tail_bound(initial, prop, tau):
    """Check the measure bounds at tau against 2001 samples on [tau, 16 tau];
    returns the (measure, cell) gaps between bound and sampled maximum."""
    bounds = experiments._propagated_bounds(initial, prop, BOTH, tau, initial.populations())
    grid = tau * np.linspace(1.0, 16.0, 2001)
    cells = len(prop.routes)
    samples = _measured(initial, prop, np.broadcast_to(grid, (cells, 1, grid.size)))
    expm = prop.routes == EXPM
    assert np.all(bounds[:, expm] == np.inf)
    assert np.all(np.isfinite(bounds[:, ~expm]))
    peaks = samples.max(axis=2)
    assert np.all(peaks <= bounds), np.max(peaks - bounds)
    return (bounds - peaks)[:, ~expm].ravel()


def test_tail_bound_holds_on_every_later_sample():
    rng = np.random.default_rng(37)
    # Gaps at the first horizon of each search (20/gray; u = 40 in the vacuum).
    first_horizon, routes = [], set()
    for initial in SELECTOR_STATES.values():
        for mass in (0.0, 0.9, 0.995, 0.999999):
            gray = gray_factor(mass, 1.0)
            # T/omega = 0.02 is cold enough for the closed form (no upward
            # rate), and gray*omega*L near 0.03 at T/omega = 0.027 and 0.03 is
            # the benchmark's slow corner, where the eigenvectors fail and
            # expm takes over.
            temps = np.concatenate([[0.02, 0.027, 0.03], rng.uniform(0.02, 0.4, 3)])
            xs = np.concatenate([[0.03, 0.037], rng.uniform(0.05, 12.0, 3)])
            cell_temps, cell_seps = np.repeat(temps, xs.size), np.tile(xs / gray, temps.size)
            prop = EigenPropagator(experiments._cell_rates(mass, cell_seps, cell_temps))
            routes.update(prop.routes)
            for scale in (0.5, 5.0, 80.0):
                _audit_tail_bound(initial, prop, scale / gray)
            first_horizon.append(_audit_tail_bound(initial, prop, 20.0 / gray))
        # The vacuum in the decay exponent u, omega*L down to 1e-4 (|lam| ~ 1).
        lams = [spatial_factor(1.0, sep, 1.0) for sep in (1e-4, 1e-3, 0.05, 0.3, 1.5, 4.0, 12.0)]
        prop = EigenPropagator(_vacuum_rates(lams))
        routes.update(prop.routes)
        for tau in (0.5, 10.0, 160.0):
            _audit_tail_bound(initial, prop, tau)
        first_horizon.append(_audit_tail_bound(initial, prop, 40.0))
    assert routes == {CLOSED_FORM, EIGEN, EXPM}
    # Most bounds at the first horizon are close enough to certify a search.
    assert np.mean(np.concatenate(first_horizon) <= 1e-6) > 0.5


def test_certificate_keeps_every_bit(monkeypatch):
    gray = gray_factor(0.6, 1.0)
    temps, seps = np.array(SELECTOR_CELLS).T
    selector_rates = experiments._cell_rates(0.6, seps, temps)
    # The benchmark's slow-corner anchor grid: m/omega = 0.9, expm cells.
    anchor_temps, anchor_seps = np.repeat([0.027, 0.03], 3), np.tile([0.065, 0.075, 0.085], 2)
    anchor_cells = list(zip(anchor_temps.tolist(), anchor_seps.tolist()))
    anchor_rates = experiments._cell_rates(0.9, anchor_seps, anchor_temps)
    routes = []

    def thermal(initial, rates, gray, cells, cutoff):
        def search():
            peaks, cell_routes = _max_over_time(initial, rates, gray, cells, BOTH, cutoff)
            routes.append(cell_routes)
            return peaks
        return search

    searches = []
    for initial in SELECTOR_STATES.values():
        for cutoff in (math.inf, *CUTOFFS):
            searches.append(thermal(initial, selector_rates, gray, SELECTOR_CELLS, cutoff))
            searches.append(thermal(initial, anchor_rates, gray_factor(0.9, 1.0), anchor_cells,
                                    cutoff))
            for measure in BOTH:
                searches.append(partial(_vacuum_max_over_time, initial, 0.8, VACUUM_SEPS, measure,
                                        cutoff))
    totals = np.zeros(2, dtype=int)
    for search in searches:
        got, passes = _counted_passes(monkeypatch, search)
        with monkeypatch.context() as patch:
            patch.setattr(EigenPropagator, "tail", _no_certificate)
            want, want_passes = _counted_passes(monkeypatch, search)
        assert np.array_equal(got, want)
        assert np.all(passes <= want_passes)
        totals += passes.sum(), want_passes.sum()
    assert all(np.array_equal(a, b) for a, b in zip(routes[::2], routes[1::2]))
    assert totals[0] < totals[1]


@pytest.mark.parametrize("initial, retired", [
    (XState.excited(), [0, 572, 228]),
    (XState.bell_ge(), [0, 799, 1]),
], ids=["E", "bell-GE"])
def test_default_temp_sep_map_passes_per_cell(initial, retired, monkeypatch):
    # The default `map temp-sep` grids at m/omega = 0.9: how many of the 800
    # cells retire after one pass and after two, as the README quotes them.
    grid = (0.9, initial, np.linspace(0.02, 0.4, 20), np.linspace(0.05, 20.0, 40))
    _, passes = _counted_passes(monkeypatch, lambda: thermal_scan(*grid).concurrence.ravel())
    assert np.bincount(passes).tolist() == retired


def test_zoom_refines_every_bracket_in_two_calls():
    shapes = []

    def evaluate(grid):
        shapes.append(grid.shape)
        # A parabola peaking at 0.3 in the first three brackets, and the
        # convex |x - 0.3| (no vertex) in the last.
        parabola = 1.0 - (grid - 0.3) ** 2
        return np.where(np.arange(4)[:, None] < 3, parabola, np.abs(grid - 0.3))

    lo, hi = np.array([0.0, 0.25, 0.3, 0.0]), np.array([1.0, 0.5, 0.9, 1.0])
    got = experiments._zoom(evaluate, lo, hi)
    points = experiments.ZOOM_POINTS
    assert shapes == [(4, points), (4, 1)]
    # The vertex of a parabola is exact; an end maximum (the third bracket
    # starts at the peak) and a convex bracket keep their best sample.
    assert got[:2] == pytest.approx(1.0, abs=1e-15)
    assert got[2] == 1.0 and got[3] == 0.7
    assert _zoom_calls(brackets=1) == _zoom_calls(brackets=50) == 2


def _mp_x_measures(pops, abs_ge, re_as, im_as):
    """Concurrence and negativity of an X state from its product-basis
    entries: Wootters' 2 max(0, |rho_23| - sqrt(rho_11 rho_44), |rho_14| -
    sqrt(rho_22 rho_33)), and -2 times the negative smaller eigenvalues of
    the partial transpose's two 2x2 blocks."""
    import mpmath

    g, a, s, e = pops
    half = (a + s) / 2
    rho_14, rho_23 = abs_ge, mpmath.sqrt(((a - s) / 2) ** 2 + im_as ** 2)
    conc = 2 * max(0, rho_23 - mpmath.sqrt(max(g * e, 0)),
                   rho_14 - mpmath.sqrt(max(half * half - re_as * re_as, 0)))
    lows = ((g + e) / 2 - mpmath.sqrt(((g - e) / 2) ** 2 + rho_23 ** 2),
            half - mpmath.sqrt(re_as ** 2 + rho_14 ** 2))
    return conc, -2 * sum(min(0, low) for low in lows)


def _mp_golden(f, lo, hi, steps: int = 50):
    """Largest value golden-section search finds of f on [lo, hi]."""
    import mpmath

    ratio = (mpmath.sqrt(5) - 1) / 2
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(steps):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = f(x2)
    return max(f1, f2)


def mp_maxima(rates: RateStack, initial: XState, start: float) -> list[float]:
    """Both maxima over tau >= 0 of a one-cell RateStack, to 40 digits.

    A float scan of the cell (tau = 0, then 20,000 log-spaced times from
    `start` to 60 e-foldings of its slowest rate) brackets the two highest
    local maxima of each measure; golden section refines each bracket on the
    40-digit eigendecomposition of the generator, with the same initial
    state and coherence decay rates.
    """
    import mpmath

    gen = rates.generator[0]
    spectrum = -np.linalg.eigvals(gen).real
    slowest = min([*spectrum[spectrum > 1e-14 * spectrum.max()], rates.decay_ge[0],
                   rates.decay_as[0]])
    taus = np.concatenate([[0.0], np.geomspace(start, 60.0 / slowest, 20000)])
    scans = _measured(initial, EigenPropagator(rates), taus[None, None])[:, 0]
    with mpmath.workdps(40):
        eigvals, eigvecs = mpmath.eig(mpmath.matrix(gen.tolist()))
        amps = mpmath.lu_solve(eigvecs, mpmath.matrix(initial.populations().tolist()))
        modes = [[mpmath.re(eigvecs[i, j] * amps[j]) for j in range(4)] for i in range(4)]
        exponents = [mpmath.re(value) for value in eigvals]
        abs_ge, re_as, im_as = (mpmath.mpf(float(x)) for x in _coherence_parts(
            initial.coh_ge, initial.coh_as))
        decay_ge, decay_as = mpmath.mpf(rates.decay_ge[0]), mpmath.mpf(rates.decay_as[0])

        def measures(tau):
            fades = [mpmath.exp(rate * tau) for rate in exponents]
            pops = [mpmath.fsum(m * f for m, f in zip(row, fades)) for row in modes]
            fade_as = mpmath.exp(-decay_as * tau)
            return _mp_x_measures(pops, abs_ge * mpmath.exp(-decay_ge * tau),
                                  re_as * fade_as, im_as * fade_as)

        maxima = []
        for which, scan in enumerate(scans):
            best = measures(mpmath.mpf(0))[which]
            inner = np.flatnonzero((scan[1:-1] >= scan[:-2]) & (scan[1:-1] >= scan[2:])) + 1
            for i in inner[np.argsort(scan[inner])[-2:]].tolist():
                best = max(best, _mp_golden(lambda tau: measures(tau)[which],
                                            mpmath.mpf(taus[i - 1]), mpmath.mpf(taus[i + 1])))
            maxima.append(float(best))
    return maxima


@pytest.mark.parametrize("name", list(SELECTOR_STATES))
def test_maxima_match_a_40_digit_reference(name):
    # Thermal cells at T/omega 0.03-0.4 (one generating cell of E at
    # T/omega = 0.05, gray*omega*L = 1.5, and one drawn), and vacuum
    # separations at gray*omega*L = 1e-4 (|lam| ~ 1 - 2e-9: E's concurrence
    # plateaus near 3e-10 and peaks past the first horizon) and one drawn.
    # bell-GE peaks at its end, tau = 0.
    initial = SELECTOR_STATES[name]
    rng = np.random.default_rng(43)
    got, want = [], []
    for mass in (0.0, 0.9, 0.995):
        gray = gray_factor(mass, 1.0)
        temps = np.array([0.05, rng.uniform(0.03, 0.4)])
        seps = np.array([1.5, rng.uniform(0.05, 12.0)]) / gray
        cells = list(zip(temps.tolist(), seps.tolist()))
        rates = experiments._cell_rates(mass, seps, temps)
        got.append(_max_over_time(initial, rates, gray, cells)[0])
        want.append([mp_maxima(rates.take([k]), initial, 1e-6 / gray) for k in range(2)])
        seps = np.array([1e-4, rng.uniform(0.05, 12.0)]) / gray
        got.append([_vacuum_max_over_time(initial, mass, seps, m) for m in BOTH])
        want.append([mp_maxima(_vacuum_rates([spatial_factor(1.0, sep, gray)]), initial, 1e-6)
                     for sep in seps])
    got, want = np.concatenate(got, axis=1), np.concatenate(want).T
    assert np.max(np.abs(got - want)) <= 1e-12, np.abs(got - want)
