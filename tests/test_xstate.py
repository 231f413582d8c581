import math

import numpy as np
import pytest

from conftest import check_block_positivity, off_x_magnitude, state_distance
from massbath import (
    FieldBathConfig,
    GklsCoefficients,
    LambdaSingularError,
    NonXFormError,
    NotAStateError,
    XState,
    build_rate_matrix,
    closed_form_state,
    decay_factor,
    eigen_trajectory,
    from_product_basis,
    integrate_ode,
    propagate_eigen,
    random_xstate,
    thermal_coefficients,
    to_product_basis,
    vacuum_coefficients,
)
from massbath.xstate import EigenPropagator, RateMatrix, Trajectory


def vacuum_like(lam: float) -> GklsCoefficients:
    return GklsCoefficients(a1=0.25, b1=0.25, a2=0.25 * lam, b2=0.25 * lam)


class TestXState:
    def test_trace_validation(self):
        with pytest.raises(NotAStateError):
            XState(0.5, 0.5, 0.5, 0.5)

    def test_negative_population_rejected(self):
        with pytest.raises(NotAStateError):
            XState(1.2, -0.2, 0.0, 0.0)

    def test_block_positivity_validation(self):
        with pytest.raises(NotAStateError):
            XState(0.5, 0.0, 0.0, 0.5, coh_ge=0.6)
        with pytest.raises(NotAStateError):
            XState(0.0, 0.5, 0.5, 0.0, coh_as=0.5 + 0.2j)

    def test_named_states(self):
        assert XState.excited().pop_e == 1.0
        assert XState.ground().pop_g == 1.0
        assert XState.antisymmetric().pop_a == 1.0
        bell = XState.bell_ge()
        assert bell.pop_g == bell.pop_e == 0.5 and bell.coh_ge == 0.5

    def test_diagonal_constructor_order(self):
        state = XState.diagonal(e=0.1, g=0.2, a=0.3, s=0.4)
        assert (state.pop_e, state.pop_g, state.pop_a, state.pop_s) == (0.1, 0.2, 0.3, 0.4)


class TestBasisChange:
    def test_excited_product_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[3, 3] = 1.0
        state = from_product_basis(rho)
        assert state.pop_e == 1.0
        assert state.pop_g == state.pop_a == state.pop_s == 0.0

    def test_antisymmetric_projector(self):
        ket = np.array([0.0, -1.0, 1.0, 0.0]) / math.sqrt(2.0)
        state = from_product_basis(np.outer(ket, ket.conj()))
        assert state.pop_a == pytest.approx(1.0, abs=1e-15)
        assert abs(state.coh_as) < 1e-15

    def test_bell_state(self):
        ket = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        state = from_product_basis(np.outer(ket, ket.conj()))
        assert state.pop_g == pytest.approx(0.5)
        assert state.pop_e == pytest.approx(0.5)
        assert state.coh_ge == pytest.approx(0.5)

    def test_round_trip(self, rng):
        for _ in range(200):
            state = random_xstate(rng)
            back = from_product_basis(to_product_basis(state))
            assert state_distance(state, back) < 1e-14

    def test_non_x_rejected(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = rho[1, 0] = 0.1
        with pytest.raises(NonXFormError):
            from_product_basis(rho)

    def test_not_a_state_rejected(self):
        rho = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(NotAStateError):
            from_product_basis(rho)
        with pytest.raises(NotAStateError):
            from_product_basis(np.eye(4, dtype=complex))  # trace 4


class TestRateMatrix:
    def test_zero_coefficients_freeze(self):
        rates = build_rate_matrix(GklsCoefficients(0.0, 0.0, 0.0, 0.0))
        assert not rates.generator.any()
        assert rates.is_frozen

    def test_excited_column_decay(self):
        # vacuum, lam = 0: the E column diagonal is -4(a1+b1) = -2 Gamma0
        rates = build_rate_matrix(vacuum_like(0.0))
        assert rates.generator[3, 3] == pytest.approx(-2.0)

    def test_column_sums_vanish(self, rng):
        for _ in range(100):
            coth = 1.0 / math.tanh(rng.uniform(0.05, 5.0))
            b1 = rng.uniform(0.0, 1.0)
            lam = rng.uniform(-1.0, 1.0)
            rates = build_rate_matrix(
                GklsCoefficients(b1 * coth, b1, lam * b1 * coth, lam * b1)
            )
            assert np.max(np.abs(rates.generator.sum(axis=0))) < 1e-13
            off = rates.generator[~np.eye(4, dtype=bool)]
            assert off.min() >= 0.0

    def test_coherence_decay_rate(self):
        rates = build_rate_matrix(GklsCoefficients(0.3, 0.25, 0.1, 0.05))
        assert rates.decay_as == rates.decay_ge == pytest.approx(1.2)

    def test_rejects_non_finite_rates(self):
        gen = np.zeros((4, 4))
        gen[1, 0], gen[0, 0] = np.nan, -1.0
        with pytest.raises(ValueError, match="finite"):
            RateMatrix(generator=gen, decay_as=0.0, decay_ge=0.0)
        with pytest.raises(ValueError, match="finite"):
            RateMatrix(generator=np.zeros((4, 4)), decay_as=math.inf, decay_ge=0.0)


class TestDecayFactor:
    def test_values(self):
        assert decay_factor(0.0, 1.0, 1.0) == 1.0
        assert decay_factor(123.0, 0.0, 1.0) == 1.0  # frozen keeps xi = 1
        assert decay_factor(math.log(2.0), 1.0, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            decay_factor(-1.0, 1.0, 1.0)


class TestClosedForm:
    def test_identity_at_unit_xi(self, rng):
        state = random_xstate(rng)
        assert closed_form_state(state, 0.4, 1.0) is state

    def test_excited_independent_baths(self):
        xi = 0.37
        state = closed_form_state(XState.excited(), 0.0, xi)
        assert state.pop_e == pytest.approx(xi**2, rel=1e-14)
        assert state.pop_a == pytest.approx(xi * (1 - xi), rel=1e-14)
        assert state.pop_s == pytest.approx(xi * (1 - xi), rel=1e-14)
        assert state.pop_g == pytest.approx((1 - xi) ** 2, rel=1e-13)

    def test_ground_state_is_fixed_point(self, rng):
        # the slowest channel empties as xi^(1-lam), so xi = 1e-12 at lam = 0.3
        # leaves residuals of order 1e-8.4
        state = random_xstate(rng)
        late = closed_form_state(state, 0.3, 1e-12)
        assert late.pop_g == pytest.approx(1.0, abs=1e-7)

    def test_coherence_scaling(self):
        bell = XState.bell_ge()
        out = closed_form_state(bell, 0.2, 0.5)
        assert out.coh_ge == pytest.approx(0.25)

    def test_singular_band_rejected(self):
        with pytest.raises(LambdaSingularError):
            closed_form_state(XState.excited(), 1.0 - 1e-8, 0.5)
        with pytest.raises(LambdaSingularError):
            closed_form_state(XState.excited(), -1.0, 0.5)

    def test_bad_xi_rejected(self):
        with pytest.raises(ValueError):
            closed_form_state(XState.excited(), 0.0, 0.0)
        with pytest.raises(ValueError):
            closed_form_state(XState.excited(), 0.0, 1.5)


class TestEigenPropagator:
    def test_identity_at_zero_time(self, rng):
        state = random_xstate(rng)
        rates = build_rate_matrix(vacuum_like(0.5))
        assert propagate_eigen(state, rates, 0.0) is state

    def test_matches_closed_form(self, rng):
        for _ in range(25):
            state = random_xstate(rng)
            lam = rng.uniform(-0.9, 0.9)
            tau = rng.uniform(0.0, 5.0)
            rates = build_rate_matrix(vacuum_like(lam))
            eig = propagate_eigen(state, rates, tau)
            closed = closed_form_state(state, lam, decay_factor(tau, 1.0, 1.0))
            assert state_distance(eig, closed) < 1e-10

    def test_thermal_stationary_state(self):
        # lam = 0, omega*beta = 2: stationary ratios follow the Boltzmann factor
        config = FieldBathConfig.from_ratios(0.0, 1e12, 0.5)
        rates = build_rate_matrix(thermal_coefficients(config))
        late = propagate_eigen(XState.excited(), rates, 2000.0)
        boltzmann = math.exp(-2.0)
        assert late.pop_e / late.pop_g == pytest.approx(boltzmann**2, rel=1e-10)
        assert late.pop_a / late.pop_g == pytest.approx(boltzmann, rel=1e-10)
        assert late.pop_s / late.pop_g == pytest.approx(boltzmann, rel=1e-10)

    def test_frozen_dynamics_exact(self):
        rates = build_rate_matrix(
            vacuum_coefficients(FieldBathConfig.from_ratios(1.5, 1.0))
        )
        bell = XState.bell_ge()
        assert propagate_eigen(bell, rates, 1e3) is bell

    def test_defective_generator_falls_back(self):
        # lam = 1 merges two decay channels into a Jordan block
        rates = build_rate_matrix(vacuum_like(1.0))
        prop = EigenPropagator(rates)
        out = prop.state(XState.excited(), 1.0)
        oracle = integrate_ode(XState.excited(), rates, 1.0, tol=1e-12).states[-1]
        assert state_distance(out, oracle) < 1e-9

    def test_stack_matches_single_propagators(self, rng):
        # Frozen, defective (lam = 1: expm fallback) and diagonalizable
        # generators in one stack, on a shared grid and on per-generator rows.
        stack = [
            build_rate_matrix(GklsCoefficients(0.0, 0.0, 0.0, 0.0)),
            build_rate_matrix(vacuum_like(1.0)),
            build_rate_matrix(vacuum_like(0.3)),
            build_rate_matrix(
                thermal_coefficients(FieldBathConfig.from_ratios(0.5, 2.0, 0.2))
            ),
        ]
        prop = EigenPropagator(stack)
        assert list(prop._use_expm) == [False, True, False, False]
        pops0 = random_xstate(rng).populations()
        taus = np.linspace(0.0, 8.0, 33)
        shared = prop.populations(pops0, taus)
        rows = prop.populations(pops0, np.stack([[taus / 2, taus]] * len(stack)))
        assert shared.shape == (4, 33, 4) and rows.shape == (4, 2, 33, 4)
        for n, rates in enumerate(stack):
            alone = EigenPropagator(rates).populations(pops0, taus)
            assert np.max(np.abs(shared[n] - alone)) < 1e-14
            assert np.max(np.abs(rows[n, 1] - alone)) < 1e-14

    def test_semigroup_property(self, rng):
        for _ in range(20):
            state = random_xstate(rng)
            config = FieldBathConfig.from_ratios(
                rng.uniform(0.0, 0.9), rng.uniform(0.0, 10.0), rng.uniform(0.05, 2.0)
            )
            rates = build_rate_matrix(thermal_coefficients(config))
            t1, t2 = rng.uniform(0.1, 3.0, size=2)
            stepwise = propagate_eigen(propagate_eigen(state, rates, t1), rates, t2)
            direct = propagate_eigen(state, rates, t1 + t2)
            assert state_distance(stepwise, direct) < 1e-10

    def test_trace_and_positivity_along_trajectory(self, rng):
        for _ in range(10):
            state = random_xstate(rng)
            config = FieldBathConfig.from_ratios(
                rng.uniform(0.0, 1.2), rng.uniform(0.0, 10.0), rng.uniform(0.05, 2.0)
            )
            rates = build_rate_matrix(thermal_coefficients(config))
            for tau in np.linspace(0.0, 50.0, 26):
                out = propagate_eigen(state, rates, tau)
                check_block_positivity(out)
                assert off_x_magnitude(out) == 0.0


class TestIntegrateOde:
    def test_zero_generator_constant(self):
        rates = build_rate_matrix(GklsCoefficients(0.0, 0.0, 0.0, 0.0))
        bell = XState.bell_ge()
        traj = integrate_ode(bell, rates, 5.0)
        assert all(state_distance(state, bell) == 0.0 for _, state in traj)

    def test_matches_closed_form(self):
        state = XState.excited()
        rates = build_rate_matrix(vacuum_like(0.5))
        traj = integrate_ode(state, rates, 5.0, tol=1e-10)
        worst = 0.0
        for tau, sample in traj:
            closed = (
                closed_form_state(state, 0.5, decay_factor(tau, 1.0, 1.0))
                if tau > 0.0
                else state
            )
            worst = max(worst, state_distance(sample, closed))
        assert worst < 1e-9

    def test_final_state_matches_eigen(self, rng):
        for _ in range(10):
            state = random_xstate(rng)
            config = FieldBathConfig.from_ratios(0.2, 3.0, rng.uniform(0.1, 1.0))
            rates = build_rate_matrix(thermal_coefficients(config))
            tol = 1e-10
            traj = integrate_ode(state, rates, 4.0, tol=tol)
            eig = propagate_eigen(state, rates, 4.0)
            assert state_distance(traj.states[-1], eig) < 10.0 * tol

    def test_trace_conserved_on_samples(self, rng):
        state = random_xstate(rng)
        rates = build_rate_matrix(vacuum_like(-0.4))
        traj = integrate_ode(state, rates, 10.0)
        for _, sample in traj:
            assert abs(sample.populations().sum() - 1.0) < 1e-10

    def test_lands_on_tau_end_despite_roundoff(self):
        # t += h once fell 3.6e-15 short of tau_end here, leaving a last step
        # below MIN_STEP and raising StepUnderflowError.
        config = FieldBathConfig.from_ratios(0.14411830230318454, 0.0022667353159141093)
        rates = build_rate_matrix(vacuum_coefficients(config))
        tau_end = 25.154398385150618
        traj = integrate_ode(XState.antisymmetric(), rates, tau_end)
        assert traj.taus[-1] == tau_end
        eig = propagate_eigen(XState.antisymmetric(), rates, tau_end)
        assert state_distance(traj.states[-1], eig) < 1e-8

    def test_tolerance_bounds(self):
        rates = build_rate_matrix(vacuum_like(0.0))
        with pytest.raises(ValueError):
            integrate_ode(XState.excited(), rates, 1.0, tol=1e-5)
        with pytest.raises(ValueError):
            integrate_ode(XState.excited(), rates, 1.0, tol=1e-14)
        with pytest.raises(ValueError):
            integrate_ode(XState.excited(), rates, 0.0)


class TestTrajectory:
    def test_requires_increasing_times(self):
        state = XState.excited()
        with pytest.raises(ValueError):
            Trajectory(taus=(0.0, 0.0), states=(state, state), method="eigen")

    def test_factory_attaches_evaluator(self):
        rates = build_rate_matrix(vacuum_like(0.2))
        traj = eigen_trajectory(XState.excited(), rates, np.linspace(0, 2, 5))
        assert traj.evaluate is not None
        mid = traj.evaluate(1.234)
        assert state_distance(mid, propagate_eigen(XState.excited(), rates, 1.234)) < 1e-15


class TestRandomXState:
    def test_valid_and_varied(self, rng):
        pure_seen = mixed_seen = False
        for _ in range(100):
            state = random_xstate(rng)
            check_block_positivity(state, tol=1e-12)
            purity = float(
                np.trace(to_product_basis(state) @ to_product_basis(state)).real
            )
            pure_seen = pure_seen or purity > 0.99
            mixed_seen = mixed_seen or purity < 0.9
        assert mixed_seen

    def test_diagonal_flag(self, rng):
        state = random_xstate(rng, diagonal=True)
        assert state.coh_ge == 0j and state.coh_as == 0j

    def test_pure_flag(self, rng):
        for _ in range(50):
            state = random_xstate(rng, pure=True)
            rho = to_product_basis(state)
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
