"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import functools
import math

import numpy as np
import pytest

from conftest import (
    check_block_positivity,
    mp_reference_state,
    off_x_magnitude,
    partial_transpose_negativity,
    propagate_eigen,
    state_distance,
    vacuum_like,
    wootters_concurrence,
)
from massbath import (
    CONCURRENCE_CUTOFF,
    FieldBathConfig,
    RateMatrix,
    XState,
    build_rate_matrix,
    closed_form_state,
    coefficients,
    concurrence,
    decay_factor,
    detect_events,
    eigen_trajectory,
    enlargement_factor,
    gray_factor,
    integrate_ode,
    integrate_ode_many,
    lifetime,
    lifetime_by_bisection,
    negativity,
    random_xstate,
    scaling_check,
    spectral_density,
    sudden_death_condition,
    thermal_coefficients,
    thermal_generation_threshold,
    to_product_basis,
    vacuum_coefficients,
)
from massbath.experiments import _cell_rates, _max_over_time

RNG_SEED = 987654321

MASSES = (0.3, 0.8, 0.995)
INITIALS = {
    "E": XState.excited(),
    "A": XState.antisymmetric(),
    "bell-GE": XState.bell_ge(),
}
TAUS = np.linspace(0.05, 8.0, 20)
SEPS = np.linspace(0.05, 20.0, 20)


def test_criterion_01_vacuum_scaling_identity():
    worst = 0.0
    for mass in MASSES:
        for initial in INITIALS.values():
            worst = max(worst, scaling_check(mass, initial, None, TAUS, SEPS))
    assert worst < 1e-10
    print(f"\nACCEPTANCE 1 vacuum scaling identity: max dev {worst:.3e} < 1e-10 PASS")


def test_criterion_02_thermal_scaling_identity():
    worst = 0.0
    for mass in MASSES:
        for temp in (0.05, 0.1, 0.2):
            for initial in INITIALS.values():
                worst = max(
                    worst, scaling_check(mass, initial, temp, TAUS, SEPS)
                )
    assert worst < 1e-9
    print(f"ACCEPTANCE 2 thermal scaling identity: max dev {worst:.3e} < 1e-9 PASS")


def test_criterion_03_lifetime_formula():
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    count = 0
    while count < 1000:
        g, a, s, e = rng.dirichlet(np.ones(4))
        if not sudden_death_condition(e, g, a, s):
            continue
        count += 1
        formula = lifetime(e, g, a, s, 1.0, 1.0)
        oracle = lifetime_by_bisection(e, g, a, s, 1.0, 1.0)
        worst = max(worst, abs(formula - oracle) / oracle)
        assert lifetime(e, g, a, s, 0.5, 1.0) == 2.0 * formula
    assert worst < 1e-8
    print(
        f"ACCEPTANCE 3 lifetime formula vs bisection ({count} states): "
        f"max rel dev {worst:.3e} < 1e-8; half-gray doubles exactly PASS"
    )


def test_criterion_04_frozen_dynamics():
    rng = np.random.default_rng(RNG_SEED)
    states = [XState.excited(), XState.bell_ge()] + [random_xstate(rng) for _ in range(8)]
    checked = 0
    for mass in (1.0, 1.5):
        for temp in (None, 0.5, 5.0):
            for sep in (0.0, 1.0, 7.3):
                config = FieldBathConfig.from_ratios(mass, sep, temp)
                rates = build_rate_matrix(coefficients(config))
                for initial in states:
                    out = propagate_eigen(initial, rates, 1e3)
                    assert state_distance(out, initial) == 0.0
                    ode_final = integrate_ode(initial, rates, 1e3).states[-1]
                    assert state_distance(ode_final, initial) == 0.0
                    checked += 1
    bell_out = propagate_eigen(
        XState.bell_ge(),
        build_rate_matrix(coefficients(FieldBathConfig.from_ratios(1.0, 2.0, 5.0))),
        1e3,
    )
    assert concurrence(bell_out) == 1.0
    assert negativity(bell_out) == 1.0
    print(
        f"ACCEPTANCE 4 frozen dynamics: {checked} cases exactly preserved at "
        "Gamma0*tau=1e3; bell-GE keeps C = N = 1 PASS"
    )


def test_criterion_05_enlargement_factor():
    factor_heavy = enlargement_factor(0.995, cutoff=1e-3)
    target_heavy = 1.0 / gray_factor(0.995, 1.0)
    assert factor_heavy == pytest.approx(target_heavy, rel=0.02)
    factor_mid = enlargement_factor(0.8, cutoff=1e-3)
    assert factor_mid == pytest.approx(1.0 / 0.6, rel=0.02)
    print(
        f"ACCEPTANCE 5 enlargement factor: m/w=0.995 -> {factor_heavy:.4f} "
        f"(target {target_heavy:.4f}), m/w=0.8 -> {factor_mid:.4f} "
        "(target 1.6667), both within 2% PASS"
    )


def _vacuum_cells(mass_ratio: float, seps):
    """The separations as an array and their vacuum cells' RateStack."""
    seps = np.atleast_1d(np.asarray(seps, dtype=float))
    return seps, _cell_rates(mass_ratio, seps)


@functools.lru_cache
def physical_reach(mass_ratio: float) -> float:
    """Largest omega*L at which E's max-over-time concurrence exceeds the
    cutoff, in physical units: vacuum cells at the separations themselves
    (rates and spatial factor carry the mass), searched in Gamma0*tau, on a
    fixed log grid of omega*L, then bisection to 1e-6 relative. Nothing here
    divides by gray."""
    gray = gray_factor(mass_ratio, 1.0)

    def maxima(seps):
        seps, rates = _vacuum_cells(mass_ratio, seps)
        cells = [(None, sep) for sep in seps.tolist()]
        select = ("concurrence",)
        maxima, _ = _max_over_time(XState.excited(), rates, gray, cells, select)
        return maxima[0]

    grid = np.geomspace(0.1, 400.0, 500)
    above = np.flatnonzero(maxima(grid) > CONCURRENCE_CUTOFF)
    last = int(above[-1])
    assert last < grid.size - 1, "generation region reaches past the scan"
    lo, hi = grid[last], grid[last + 1]
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if maxima(mid)[0] > CONCURRENCE_CUTOFF:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _birth_time(mass_ratio: float, sep: float) -> float:
    """First birth of E's concurrence in Gamma0*tau in the vacuum cell at sep."""
    _, rates = _vacuum_cells(mass_ratio, sep)
    horizon = 20.0 / gray_factor(mass_ratio, 1.0)
    traj = eigen_trajectory(XState.excited(), RateMatrix(*rates.take(0)),
                            np.linspace(0.0, horizon, 400))
    return detect_events(traj, "concurrence").birth_times[0]


@pytest.mark.parametrize("mass", [0.9, 0.995])
def test_criterion_05_physical_enlargement_factor(mass):
    # enlargement_factor rescales one massless scan by 1/g, so criterion 5
    # holds by construction. Here separations and times stay physical: the
    # reach grows by 1/g, and a birth at omega*L/g comes 1/g later.
    gray = gray_factor(mass, 1.0)
    factor = physical_reach(mass) / physical_reach(0.0)
    assert factor == pytest.approx(1.0 / gray, rel=1e-4)
    delay = _birth_time(mass, 1.0 / gray) / _birth_time(0.0, 1.0)
    assert delay == pytest.approx(1.0 / gray, rel=1e-9)
    print(
        f"ACCEPTANCE 5 physical units, m/w={mass}: reach ratio {factor:.6f}, "
        f"birth delay {delay:.6f} (1/g = {1.0 / gray:.6f}) PASS"
    )


def test_criterion_06_thermal_generation_threshold():
    threshold = thermal_generation_threshold(
        mass_ratio=0.0, cutoff=1e-3, bracket=(0.15, 0.3), tol=0.002
    )
    assert 0.21 <= threshold <= 0.25
    print(
        f"ACCEPTANCE 6 thermal generation threshold: T/omega = {threshold:.4f} "
        "in [0.21, 0.25] PASS"
    )


def test_criterion_07_method_agreement():
    rng = np.random.default_rng(RNG_SEED)
    vacuum = []
    states = [random_xstate(rng) for _ in range(100)]
    for state in states:
        for lam in (-0.2, 0.0, 0.5, 0.9):
            rates = build_rate_matrix(vacuum_like(lam))
            for tau in (0.1, 1.0, 5.0):
                closed = closed_form_state(state, lam, decay_factor(tau, 1.0, 1.0))
                eigen = propagate_eigen(state, rates, tau)
                vacuum.append((state, rates, tau, closed, eigen))
    initials, rates, taus, closed, eigen = zip(*vacuum)
    odes = integrate_ode_many(initials, rates, taus, tol=1e-10)
    worst_vacuum = max(
        max(state_distance(c, e), state_distance(e, o), state_distance(c, o))
        for c, e, o in zip(closed, eigen, odes)
    )
    assert worst_vacuum < 1e-8
    # propagate_eigen takes the closed_form cascade on these vacuum cells, so
    # a 40-digit mpmath expm of the generator is the independent third route,
    # on the first 5 states (60 systems).
    worst_mp = 0.0
    for (state, rates, tau, closed_state, eigen_state), ode in zip(vacuum[:60], odes):
        exact = mp_reference_state(rates, state, tau)
        for route in (closed_state, eigen_state, ode):
            worst_mp = max(worst_mp, state_distance(route, exact))
    assert worst_mp < 1e-8

    thermal = []
    for _ in range(100):
        state = random_xstate(rng)
        config = FieldBathConfig.from_ratios(
            rng.uniform(0.0, 0.95), rng.uniform(0.0, 10.0), rng.uniform(0.05, 2.0)
        )
        rates = build_rate_matrix(thermal_coefficients(config))
        tau = rng.uniform(0.1, 5.0)
        thermal.append((state, rates, tau, propagate_eigen(state, rates, tau)))
    initials, rates, taus, eigen = zip(*thermal)
    odes = integrate_ode_many(initials, rates, taus, tol=1e-10)
    worst_thermal = max(map(state_distance, eigen, odes))
    assert worst_thermal < 1e-8
    print(
        f"ACCEPTANCE 7 method agreement: vacuum grid max dev {worst_vacuum:.3e}, "
        f"vacuum vs 40-digit expm {worst_mp:.3e}, "
        f"thermal max dev {worst_thermal:.3e}, all < 1e-8 PASS"
    )


def test_criterion_08_measure_oracles():
    rng = np.random.default_rng(RNG_SEED)
    worst_c = worst_n = 0.0
    for _ in range(10_000):
        state = random_xstate(rng)
        rho = to_product_basis(state)
        conc = concurrence(state)
        neg = negativity(state)
        assert 0.0 <= conc <= 1.0 and 0.0 <= neg <= 1.0
        worst_c = max(worst_c, abs(conc - wootters_concurrence(rho)))
        worst_n = max(worst_n, abs(neg - partial_transpose_negativity(rho)))
    assert worst_c < 1e-10
    assert worst_n < 1e-10
    worst_pure = 0.0
    for _ in range(10_000):
        state = random_xstate(rng, pure=True)
        worst_pure = max(worst_pure, abs(concurrence(state) - negativity(state)))
    assert worst_pure < 1e-12
    print(
        f"ACCEPTANCE 8 measure oracles: Wootters dev {worst_c:.3e}, partial "
        f"transpose dev {worst_n:.3e} (< 1e-10); pure |C-N| {worst_pure:.3e} "
        "< 1e-12 PASS"
    )


def test_criterion_09_coefficient_oracle():
    worst = 0.0
    for mass in (0.0, 0.3, 0.6, 0.9, 0.995):
        for sep in (0.1, 1.0, 5.0, 20.0):
            config = FieldBathConfig.from_ratios(mass, sep)
            direct = vacuum_coefficients(config)
            quarter = 0.25 * config.mu * config.mu
            gs_p, gc_p = spectral_density(config.omega, mass, sep)
            gs_m, gc_m = spectral_density(-config.omega, mass, sep)
            for x, y in (
                (direct.a1, quarter * (gs_p + gs_m)),
                (direct.b1, quarter * (gs_p - gs_m)),
                (direct.a2, quarter * (gc_p + gc_m)),
                (direct.b2, quarter * (gc_p - gc_m)),
            ):
                scale = max(abs(x), abs(y))
                worst = max(worst, abs(x - y) / scale if scale else 0.0)
    assert worst < 1e-12

    worst_kms = 0.0
    for beta_omega in (0.5, 2.0, 10.0):
        for mass in (0.0, 0.6, 0.9):
            coeffs = thermal_coefficients(
                FieldBathConfig.from_ratios(mass, 1.3, 1.0 / beta_omega)
            )
            coth = 1.0 / math.tanh(0.5 * beta_omega)
            worst_kms = max(worst_kms, abs(coeffs.a1 / coeffs.b1 - coth) / coth)
            if coeffs.b2 != 0.0:
                worst_kms = max(worst_kms, abs(coeffs.a2 / coeffs.b2 - coth) / coth)
    assert worst_kms < 1e-12
    print(
        f"ACCEPTANCE 9 coefficient oracle: spectral route dev {worst:.3e}, "
        f"KMS ratio dev {worst_kms:.3e}, both < 1e-12 PASS"
    )


def test_criterion_10_invariant_suite():
    rng = np.random.default_rng(RNG_SEED)
    worst_trace = worst_semigroup = 0.0
    for _ in range(1000):
        initial = random_xstate(rng)
        temp = float(rng.uniform(0.05, 2.0)) if rng.random() < 0.5 else None
        config = FieldBathConfig.from_ratios(
            rng.uniform(0.0, 1.2), rng.uniform(0.0, 20.0), temp
        )
        rates = build_rate_matrix(coefficients(config))
        taus = np.sort(rng.uniform(0.0, 50.0, size=6))
        for tau in taus:
            state = propagate_eigen(initial, rates, float(tau))
            worst_trace = max(worst_trace, abs(state.populations().sum() - 1.0))
            check_block_positivity(state, tol=1e-9)
            assert off_x_magnitude(state) == 0.0
        t1, t2 = rng.uniform(0.1, 5.0, size=2)
        stepwise = propagate_eigen(
            propagate_eigen(initial, rates, float(t1)), rates, float(t2)
        )
        direct = propagate_eigen(initial, rates, float(t1 + t2))
        worst_semigroup = max(worst_semigroup, state_distance(stepwise, direct))
    assert worst_trace < 1e-10
    assert worst_semigroup < 1e-10
    print(
        f"ACCEPTANCE 10 invariants (1000 trajectories): trace dev "
        f"{worst_trace:.3e} < 1e-10, block positivity and X-form closure hold, "
        f"semigroup dev {worst_semigroup:.3e} < 1e-10 PASS"
    )
