import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from conftest import (
    check_block_positivity,
    mp_conserving_expm_populations,
    mp_expm_populations,
    mp_reference_state,
    off_x_magnitude,
    propagate_eigen,
    state_distance,
    vacuum_like,
)
from massbath import (
    FieldBathConfig,
    GklsCoefficients,
    NonXFormError,
    NotAStateError,
    StepUnderflowError,
    XState,
    build_rate_matrix,
    closed_form_state,
    closed_form_trajectory,
    decay_factor,
    eigen_trajectory,
    from_product_basis,
    integrate_ode,
    integrate_ode_many,
    random_xstate,
    thermal_coefficients,
    to_product_basis,
    vacuum_coefficients,
)
import massbath
from massbath.experiments import _cell_rates
from massbath.xstate import (
    CLOSED_FORM,
    EIGEN,
    EXPM,
    FROZEN,
    EigenPropagator,
    RateMatrix,
    RateStack,
    Trajectory,
    _ode_system,
    _rkf45,
    _uniformized,
    _vacuum_rates,
)


RKF_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)


def scalar_rkf45(gen, y, tau_end, tol=1e-10):
    """(accepted steps, final y) of one system by a plain per-step RKF45 loop,
    with the step control of integrate_ode."""
    scale = np.abs(gen).max()
    h = min(tau_end, 0.1 / scale) if scale > 0.0 else tau_end
    t, steps = 0.0, 0
    while t < tau_end:
        remaining = tau_end - t
        if remaining - h < 1e-14:
            h = remaining
        stages = []
        for coeffs in RKF_A:
            stages.append(gen @ (y + h * sum(a * k for a, k in zip(coeffs, stages))))
        y5 = y + h * sum(b * k for b, k in zip(RKF_B5, stages))
        y4 = y + h * sum(b * k for b, k in zip(RKF_B4, stages))
        err = float(np.max(np.abs(y5 - y4)))
        if err <= tol:
            t = tau_end if h == remaining else t + h
            y, steps = y5, steps + 1
            h *= 5.0 if err == 0.0 else min(5.0, max(1.0, 0.9 * (tol / err) ** 0.2))
        else:
            h *= max(0.2, 0.9 * (tol / err) ** 0.2)
    return steps, y


def entries(state: XState) -> np.ndarray:
    return np.array(
        [state.pop_g, state.pop_a, state.pop_s, state.pop_e,
         state.coh_ge.real, state.coh_ge.imag, state.coh_as.real, state.coh_as.imag]
    )


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("where", ["all", "diagonal", "off-x"])
    def test_non_finite_entries_are_not_a_state(self, bad, where):
        # NaN fails no comparison of the later checks, and eigvalsh raises
        # LinAlgError on it, so finiteness is checked first.
        rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        if where == "all":
            rho[...] = bad
        elif where == "diagonal":
            rho[1, 1] = bad
        else:
            rho[0, 1] = rho[1, 0] = bad
        with pytest.raises(NotAStateError, match="not finite"):
            from_product_basis(rho)


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

    def test_rejects_coherence_decay_below_positivity_bound(self):
        # Populations leave G, A and S while the coherences never decay: no
        # bath gives these rates, and a state with coherences would leave the
        # positive cone, where concurrence can read below negativity.
        gen = np.zeros((4, 4))
        gen[1, 0], gen[0, 0] = 0.004, -0.004
        gen[2, 1], gen[1, 1] = 0.001, -0.001
        gen[0, 2], gen[2, 2] = 1.0, -1.0
        for decay_as, decay_ge in [(0.0, 0.0), (0.5005, 0.0), (0.0, 0.002)]:
            with pytest.raises(ValueError, match="positivity bound"):
                RateMatrix(generator=gen, decay_as=decay_as, decay_ge=decay_ge)
        RateMatrix(generator=gen, decay_as=0.5005, decay_ge=0.002)


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

    def test_accurate_at_the_band_edge(self, rng):
        # |lam| -> 1 and |lam| = 1, where one decay channel stops: the
        # cascade form stays exact against a 40-digit matrix exponential.
        for lam in (1.0 - 1.5e-6, 1.0 - 1e-8, 1.0, -1.0 + 1e-8, -1.0):
            rates = build_rate_matrix(vacuum_like(lam))
            for tau in (0.3, 5.0, 40.0):
                state = random_xstate(rng)
                got = closed_form_state(state, lam, decay_factor(tau, 1.0, 1.0))
                assert state_distance(got, mp_reference_state(rates, state, tau)) < 1e-12

    def test_lambda_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            closed_form_state(XState.excited(), 1.0 + 1e-9, 0.5)
        # Also at xi = 1, where the state itself is returned.
        for lam in (5.0, -1.0 - 1e-9, math.nan, math.inf):
            for xi in (1.0, 0.5):
                with pytest.raises(ValueError, match="lam must lie in"):
                    closed_form_state(XState.excited(), lam, xi)

    @pytest.mark.parametrize("gray, g0", [
        (-0.5, 1.0), (1.5, 1.0), (math.nan, 1.0), (0.5, 0.0), (0.5, -1.0), (0.5, math.inf),
        (0.5, math.nan),
    ])
    def test_trajectory_rejects_rates_outside_their_range(self, gray, g0):
        with pytest.raises(ValueError, match="need gray in"):
            closed_form_trajectory(XState.bell_ge(), 0.3, gray, g0, np.linspace(0.0, 5.0, 20))

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

    @pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf])
    def test_populations_reject_bad_times(self, tau):
        rates = build_rate_matrix(vacuum_coefficients(FieldBathConfig.from_ratios(0.0, 1.0)))
        prop = EigenPropagator(rates)
        with pytest.raises(ValueError, match="finite and >= 0"):
            prop.populations(XState.excited().populations(), np.array([0.0, tau]))

    def test_defective_generator_falls_back(self):
        # A thermal bath at small omega*L is nearly defective: its
        # eigenvectors' kappa is 2.6e4, so eps * kappa > 1e-12 and expm takes over.
        rates = build_rate_matrix(
            thermal_coefficients(FieldBathConfig.from_ratios(0.9, 0.07, 0.028))
        )
        prop = EigenPropagator(rates)
        assert prop.routes[0] == EXPM
        out = prop.state(XState.excited(), 1.0)
        oracle = integrate_ode(XState.excited(), rates, 1.0, tol=1e-12).states[-1]
        assert state_distance(out, oracle) < 1e-9

    @staticmethod
    def every_route_stack():
        """One stack mixing every route: frozen, the cascade (vacuum, lam = 1
        and 0.3), eigen (thermal) and expm (thermal slow corner)."""
        return [
            build_rate_matrix(GklsCoefficients(0.0, 0.0, 0.0, 0.0)),
            build_rate_matrix(vacuum_like(1.0)),
            build_rate_matrix(vacuum_like(0.3)),
            build_rate_matrix(
                thermal_coefficients(FieldBathConfig.from_ratios(0.5, 2.0, 0.2))
            ),
            build_rate_matrix(
                thermal_coefficients(FieldBathConfig.from_ratios(0.9, 0.07, 0.028))
            ),
        ]

    def test_stack_matches_single_propagators(self, rng):
        # The every-route stack on a shared grid and on per-generator rows.
        stack = self.every_route_stack()
        prop = EigenPropagator(RateStack.of(stack))
        assert list(prop.routes) == [FROZEN, CLOSED_FORM, CLOSED_FORM, EIGEN, EXPM]
        taus = np.linspace(0.0, 8.0, 33)
        grids = np.stack([[taus / 2, taus]] * len(stack))
        common = random_xstate(rng).populations()
        own = np.array([random_xstate(rng).populations() for _ in stack])
        # One initial vector for every generator, then one per generator. Every
        # row was bit-equal to its one-generator propagator on x86-64 with
        # numpy 2.4 and OpenBLAS; the bound allows a BLAS that sums otherwise.
        for pops0 in (common, own):
            shared = prop.populations(pops0, taus)
            rows = prop.populations(pops0, grids)
            assert shared.shape == (5, 33, 4) and rows.shape == (5, 2, 33, 4)
            for n, rates in enumerate(stack):
                start = pops0 if pops0.ndim == 1 else pops0[n]
                alone = EigenPropagator(rates).populations(start, taus)[0]
                assert np.max(np.abs(shared[n] - alone)) < 1e-14
                assert np.max(np.abs(rows[n, 1] - alone)) < 1e-14

    def test_take_of_every_generator_in_order_is_the_propagator(self, rng):
        # An index array, a boolean mask or a slice that selects every
        # generator in order gives the propagator itself: the routes, and the
        # bits of populations and tail, of one built afresh on the stack.
        stack = RateStack.of(self.every_route_stack())
        prop, fresh = EigenPropagator(stack), EigenPropagator(stack)
        pops0, taus, weights = random_xstate(rng).populations(), np.linspace(0.0, 8.0, 33), np.eye(4)
        for index in (np.arange(5), np.ones(5, dtype=bool), slice(None), slice(0, 9)):
            full = prop.take(index)
            assert full is prop
            assert list(full.routes) == list(fresh.routes)
            assert np.array_equal(full.populations(pops0, taus), fresh.populations(pops0, taus))
            for got, want in zip(full.tail(pops0, 3.0, weights), fresh.tail(pops0, 3.0, weights)):
                assert np.array_equal(got, want)
        # A strict subset, or every generator out of order, is a new propagator
        # of those generators (bound as in test_stack_matches_single_propagators).
        every = fresh.populations(pops0, taus)
        for index in (np.array([0, 3, 4]), slice(1, 5), np.arange(5)[::-1], np.array([2])):
            sub = prop.take(index)
            assert sub is not prop and np.array_equal(sub.routes, prop.routes[index])
            assert np.max(np.abs(sub.populations(pops0, taus) - every[index])) < 1e-14
            assert np.array_equal(sub.rates.generator, stack.generator[index])

    @pytest.mark.parametrize("routes", [
        (FROZEN, FROZEN), (CLOSED_FORM, CLOSED_FORM), (EIGEN, EIGEN), (EXPM, EXPM),
        (EXPM, CLOSED_FORM, FROZEN, EIGEN, CLOSED_FORM),
    ], ids="-".join)
    def test_populations_are_population_major(self, routes, rng):
        # populations returns (N, ..., K, 4), a view of one contiguous plane
        # per population; a RateMatrix is a stack of one.
        example = {
            FROZEN: build_rate_matrix(GklsCoefficients(0.0, 0.0, 0.0, 0.0)),
            CLOSED_FORM: build_rate_matrix(vacuum_like(0.3)),
            EIGEN: build_rate_matrix(
                thermal_coefficients(FieldBathConfig.from_ratios(0.5, 2.0, 0.2))),
            EXPM: build_rate_matrix(
                thermal_coefficients(FieldBathConfig.from_ratios(0.9, 0.07, 0.028))),
        }
        stack = [example[route] for route in routes]
        prop = EigenPropagator(RateStack.of(stack))
        assert list(prop.routes) == list(routes)
        taus = np.linspace(0.0, 8.0, 33)
        grids = np.stack([[taus / 2, taus, taus * 3]] * len(stack))
        pops0 = np.array([random_xstate(rng).populations() for _ in stack])
        for times, shape in ((taus, (len(stack), 33, 4)), (grids, (len(stack), 3, 33, 4))):
            out = prop.populations(pops0, times)
            assert out.shape == shape
            assert all(plane.flags.c_contiguous for plane in np.moveaxis(out, -1, 0))
            for n, rates in enumerate(stack):
                alone = EigenPropagator(rates).populations(pops0[n], taus)
                assert alone.shape == (1, 33, 4)
                assert all(plane.flags.c_contiguous for plane in np.moveaxis(alone, -1, 0))
                alone = alone[0]
                got = out[n] if times is taus else out[n, 1]
                # Bit for bit on x86-64 with numpy 2.4 and OpenBLAS; eigen and
                # expm go through BLAS, which may sum otherwise elsewhere.
                assert np.max(np.abs(got - alone), initial=0.0) < 1e-14
                if routes[n] in (FROZEN, CLOSED_FORM):
                    assert np.array_equal(got, alone)

    @pytest.mark.parametrize("shape", [(6, 4), (5, 3), (4, 4), (1, 4), (5, 4, 1)])
    def test_per_generator_populations_need_one_vector_per_generator(self, shape):
        stack = [build_rate_matrix(vacuum_like(lam)) for lam in (-0.5, 0.0, 0.2, 0.7, 1.0)]
        prop = EigenPropagator(RateStack.of(stack))
        message = rf"\(4,\) or \(5, 4\), got {re.escape(str(shape))}"
        with pytest.raises(ValueError, match=message):
            prop.populations(np.full(shape, 0.25), np.linspace(0.0, 1.0, 3))

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

    def test_trace_holds_at_long_times(self):
        # (m/omega, omega*L, T/omega); the second is a cell of the default
        # `map temp-sep --mass-ratio 0.9` grid.
        cells = [(0.5, 0.7, 0.3), (0.9, np.linspace(0.05, 20.0, 40)[1], 0.04)]
        stack = [build_rate_matrix(thermal_coefficients(FieldBathConfig.from_ratios(*cell)))
                 for cell in cells]
        prop = EigenPropagator(RateStack.of(stack))
        assert list(prop.routes) == [EIGEN, EIGEN]
        pops = prop.populations(XState.excited().populations(), np.array([1e6, 1e12]))
        assert np.max(np.abs(pops.sum(axis=-1) - 1.0)) <= 1e-12

    @pytest.mark.xfail(strict=True, reason=(
        "near |lam| = 1 the antisymmetric channel's eigenvalue is tiny (-1.7e-9 at "
        "omega*L = 1e-4), and its computed eigenvector's column sum is about "
        "eps*|G|/|lambda| instead of 0, so the trace moves as that mode fades: "
        "2.2e-10 at Gamma0*tau = 1e12 from E at omega*L = 1e-4, 3.7e-8 at 1e-5 "
        "(ROADMAP items 5 and 7)"))
    @pytest.mark.parametrize("sep", [1e-4, 1e-5])
    def test_trace_holds_at_long_times_near_unit_spatial_factor(self, sep):
        rates = build_rate_matrix(thermal_coefficients(FieldBathConfig.from_ratios(0.0, sep, 0.2)))
        prop = EigenPropagator(rates)
        assert list(prop.routes) == [EIGEN]
        pops = prop.populations(XState.excited().populations(), np.array([1e6, 1e12]))
        assert np.max(np.abs(pops.sum(axis=-1) - 1.0)) <= 1e-12

    def test_per_generator_grids_need_one_row_per_generator(self):
        # A mixed eigen/cascade stack of three generators.
        stack = [
            build_rate_matrix(vacuum_like(0.3)),
            build_rate_matrix(
                thermal_coefficients(FieldBathConfig.from_ratios(0.5, 2.0, 0.2))
            ),
            build_rate_matrix(vacuum_like(-0.6)),
        ]
        prop = EigenPropagator(RateStack.of(stack))
        assert list(prop.routes) == [CLOSED_FORM, EIGEN, CLOSED_FORM]
        pops0 = XState.excited().populations()
        for lead in (4, 1):
            with pytest.raises(ValueError, match=f"need 3 per-generator grids, got {lead}"):
                prop.populations(pops0, np.zeros((lead, 1, 5)))
        assert prop.populations(pops0, np.zeros((3, 1, 5))).shape == (3, 1, 5, 4)

    @pytest.mark.parametrize("sep", [0.065, 0.075])
    def test_ill_conditioned_corner_takes_expm_and_meets_a_40_digit_expm(self, sep):
        # m/omega = 0.9, T/omega = 0.03: the eigenvectors' kappa is 3.0e4 and
        # 2.2e4, so eps * kappa > 1e-12; the eigen route misses this bound
        # here by 2.2e-12 and 1.2e-12.
        rates = build_rate_matrix(thermal_coefficients(FieldBathConfig.from_ratios(0.9, sep, 0.03)))
        prop = EigenPropagator(rates)
        assert list(prop.routes) == [EXPM]
        pops0 = np.stack([XState.excited().populations(), XState.bell_ge().populations()])
        taus = np.linspace(0.0, 20.0, 41)
        got = np.stack([prop.populations(p, taus)[0] for p in pops0], axis=-1)  # (K, 4, 2)
        for tau, pops in zip(taus, got):
            ref = mp_expm_populations(rates.generator, pops0.T, tau)
            assert np.max(np.abs(pops - ref)) <= 1e-12, tau

    @pytest.mark.parametrize("mass", [0.5, 0.9, 0.995, 0.999999])
    def test_rescaled_cells_route_alike(self, mass):
        # A massive cell at omega*L = x/g has g times the generator of the
        # massless cell at x, so the route rule, which reads the eigenvectors'
        # shape and not the rates' scale, picks the same route for both.
        temps, seps = np.meshgrid(np.geomspace(0.02, 1.0, 30), np.geomspace(1e-4, 20.0, 60),
                                  indexing="ij")
        temps, seps = temps.ravel(), seps.ravel()
        gray = massbath.gray_factor(mass, 1.0)
        massless = EigenPropagator(_cell_rates(0.0, seps, temps)).routes
        massive = EigenPropagator(_cell_rates(mass, seps / gray, temps)).routes
        assert np.array_equal(massive, massless)

    def test_cold_band_near_the_mass_edge_meets_a_conserving_40_digit_expm(self):
        # m/omega = 0.995, T/omega = 0.05, gray*omega*L in [1e-4, 3e-2]: the
        # eigenvectors' kappa is 1.7e4 to 2.2e4, and the eigen route misses
        # this reference by 1.5e-12 to 3.8e-12.
        gray = massbath.gray_factor(0.995, 1.0)
        rates = _cell_rates(0.995, np.geomspace(1e-4, 3e-2, 6) / gray, 0.05)
        prop = EigenPropagator(rates)
        pops0 = np.stack([XState.excited().populations(), XState.bell_ge().populations()])
        taus = np.geomspace(0.01, 100.0, 9)
        got = np.stack([prop.populations(p, taus) for p in pops0], axis=-1)  # (N, K, 4, 2)
        for gen, cell in zip(rates.generator, got):
            for tau, pops in zip(taus, cell):
                ref = mp_conserving_expm_populations(gen, pops0.T, tau)
                assert np.max(np.abs(pops - ref)) <= 1e-12, tau


class TestOneEvaluator:
    """Every XState entry point is one `evolve` call of the propagator, bit
    for bit, on each route; a RateMatrix is a stack of one."""

    TAUS = np.linspace(0.0, 6.0, 25)
    RATES = {
        FROZEN: GklsCoefficients(0.0, 0.0, 0.0, 0.0),
        CLOSED_FORM: vacuum_like(0.3),
        EIGEN: thermal_coefficients(FieldBathConfig.from_ratios(0.5, 2.0, 0.2)),
        EXPM: thermal_coefficients(FieldBathConfig.from_ratios(0.9, 0.07, 0.028)),
    }

    @staticmethod
    def assert_bits(got, expected):
        for one, other in zip(got, expected, strict=True):
            one, other = np.asarray(one), np.asarray(other)
            assert (one.shape, one.dtype) == (other.shape, other.dtype)
            assert one.tobytes() == other.tobytes()

    @staticmethod
    def entries(state: XState):
        return state.populations(), state.coh_ge, state.coh_as

    @pytest.mark.parametrize("route", [FROZEN, CLOSED_FORM, EIGEN, EXPM])
    def test_entry_points_are_one_evolve_call(self, route, rng):
        rates = build_rate_matrix(self.RATES[route])
        prop = EigenPropagator(rates)
        assert list(prop.routes) == [route]
        initial, taus = random_xstate(rng), self.TAUS
        pops0, coh_ge, coh_as = self.entries(initial)
        pops = prop.populations(pops0, taus)
        assert pops.shape == (1, taus.size, 4)
        self.assert_bits([pops], [EigenPropagator(RateStack.of([rates])).populations(pops0, taus)])
        evolved = [part[0] for part in prop.evolve(pops0, coh_ge, coh_as, taus)]
        self.assert_bits(evolved[:1], [pops[0]])
        traj = eigen_trajectory(initial, rates, taus)
        assert traj.method == route
        self.assert_bits((traj.populations, traj.coh_ge, traj.coh_as), evolved)
        self.assert_bits(traj.at(taus), evolved)
        self.assert_bits(integrate_ode(initial, rates, 6.0).at(taus), evolved)
        assert prop.state(initial, 0.0) is initial  # no propagation at tau = 0
        for tau in (0.7, 6.0):
            one = prop.evolve(pops0, coh_ge, coh_as, np.array([tau]))
            self.assert_bits(self.entries(prop.state(initial, tau)), [part[0, 0] for part in one])

    def test_vacuum_entry_points_are_one_evolve_call(self, rng):
        initial, lam, gray, g0, xi = random_xstate(rng), -0.45, 0.6, 1.7, 0.37
        pops0, coh_ge, coh_as = self.entries(initial)
        prop = EigenPropagator(_vacuum_rates(lam))
        assert list(prop.routes) == [CLOSED_FORM]
        one = prop.evolve(pops0, coh_ge, coh_as, np.array([-math.log(xi)]))
        self.assert_bits(self.entries(closed_form_state(initial, lam, xi)),
                         [part[0, 0] for part in one])
        taus = self.TAUS
        evolved = [part[0] for part in prop.evolve(pops0, coh_ge, coh_as, gray * g0 * taus)]
        traj = closed_form_trajectory(initial, lam, gray, g0, taus)
        self.assert_bits((traj.populations, traj.coh_ge, traj.coh_as), evolved)
        self.assert_bits(traj.at(taus), evolved)

    def test_evolve_fades_each_generator_by_its_own_rates(self, rng):
        stack = RateStack.of([build_rate_matrix(self.RATES[route]) for route in (EIGEN, EXPM)])
        stack = stack._replace(decay_as=2.0 * stack.decay_as)  # each coherence its own rate
        prop = EigenPropagator(stack)
        states = [random_xstate(rng) for _ in range(2)]
        pops0 = np.array([state.populations() for state in states])
        coh_ge, coh_as = np.array([(s.coh_ge, s.coh_as) for s in states]).T
        grids = np.stack([[self.TAUS, 2.0 * self.TAUS]] * 2)
        pops, ge, as_ = prop.evolve(pops0, coh_ge, coh_as, grids)
        assert pops.shape == (2, 2, self.TAUS.size, 4) and ge.shape == as_.shape == pops.shape[:-1]
        self.assert_bits([pops], [prop.populations(pops0, grids)])
        for n in range(2):
            self.assert_bits([ge[n], as_[n]], [coh_ge[n] * np.exp(-stack.decay_ge[n] * grids[n]),
                                               coh_as[n] * np.exp(-stack.decay_as[n] * grids[n])])

    def test_state_needs_one_generator(self):
        stack = RateStack.of([build_rate_matrix(vacuum_like(lam)) for lam in (0.3, -0.6)])
        with pytest.raises(ValueError, match="one generator, got 2"):
            EigenPropagator(stack).state(XState.excited(), 1.0)


class TestUniformizedExponential:
    """The expm route against a 40-digit mpmath expm, entry by entry."""

    CELLS = [(0.027, 0.065), (0.028, 0.07), (0.029, 0.08), (0.03, 0.07)]

    @pytest.fixture(scope="class")
    def corner(self):
        """Slow-corner propagator and initial populations as columns (4, 3):
        E, bell-GE and a seeded diagonal state."""
        stack = [
            build_rate_matrix(thermal_coefficients(FieldBathConfig.from_ratios(0.9, sep, temp)))
            for temp, sep in self.CELLS
        ]
        prop = EigenPropagator(RateStack.of(stack))
        assert set(prop.routes) == {EXPM}
        diag = random_xstate(np.random.default_rng(11), diagonal=True)
        states = (XState.excited(), XState.bell_ge(), diag)
        return stack, prop, np.stack([s.populations() for s in states], axis=1)

    @staticmethod
    def assert_relative(got, generator, pops0, tau, tol=1e-12):
        """got (4, M) within tol relative of the reference where it is > 0."""
        ref = mp_expm_populations(generator, pops0, tau)
        live = ref > 0.0
        assert np.all(got[~live] == ref[~live])
        assert np.max(np.abs(got[live] - ref[live]) / ref[live]) <= tol

    def propagate(self, prop, pops0, taus):
        """(N, ..., K, 4, M): populations from every column of pops0."""
        return np.stack([prop.populations(p, taus) for p in pops0.T], axis=-1)

    def test_uniform_rows(self, corner):
        stack, prop, pops0 = corner
        taus = np.linspace(0.0, 3000.0, 1201)
        got = self.propagate(prop, pops0, taus)
        assert np.max(np.abs(got.sum(axis=-2) - 1.0)) <= 4.0 * np.finfo(float).eps
        for n, rates in enumerate(stack):
            for k in range(0, taus.size, 60):
                self.assert_relative(got[n, k], rates.generator, pops0, taus[k])

    def test_per_cell_zoom_rows(self, corner):
        # Shape (N, S, K): each cell zooms into its own two brackets.
        stack, prop, pops0 = corner
        lo = np.array([[3.0, 40.0], [17.0, 400.0], [0.5, 950.0], [120.0, 2.0]])
        taus = lo[..., None] + np.linspace(0.0, 6.4, 129)
        got = self.propagate(prop, pops0, taus)
        assert got.shape == (4, 2, 129, 4, 3)
        for n, rates in enumerate(stack):
            for s in range(2):
                for k in (0, 77, 128):
                    self.assert_relative(got[n, s, k], rates.generator, pops0, taus[n, s, k])

    def test_log_row_takes_one_exponential_per_point(self, corner):
        stack, prop, pops0 = corner
        taus = np.geomspace(1e-3, 3000.0, 50)
        got = self.propagate(prop, pops0, taus)
        for k in range(0, taus.size, 7):
            self.assert_relative(got[0, k], stack[0].generator, pops0, taus[k])

    def test_complex_spectrum_takes_expm(self):
        # Unit rates around the cycle G -> A -> E -> S -> G: a valid generator
        # (both decays sit on the positivity bound) with eigenvalues 0, -2 and
        # -1 +- i, so _diagonalize rejects it for its complex pair.
        gen = np.zeros((4, 4))
        gen[[1, 3, 2, 0], [0, 1, 3, 2]] = 1.0
        rates = RateMatrix(gen - np.eye(4), 1.0, 1.0)
        prop = EigenPropagator(rates)
        assert prop.routes[0] == EXPM
        taus = np.array([0.0, 1e-3, 0.5, 1.0, 3.7, 20.0, 100.0])
        for state in (XState.excited(), XState.diagonal(0.1, 0.2, 0.3, 0.4)):
            got = prop.populations(state.populations(), taus)[0]
            for tau, pops in zip(taus, got):
                ref = mp_expm_populations(rates.generator, state.populations(), tau)
                assert np.max(np.abs(pops - ref)) <= 1e-12, tau

    def test_singular_eigenvectors_take_expm(self, monkeypatch):
        # inv raises on the stack of eigenvector matrices, so _diagonalize
        # inverts them one at a time; on the second cell's it raises again,
        # and that cell's NaN inverse gives a NaN kappa, which fails the route rule.
        stack = RateStack.of([
            build_rate_matrix(thermal_coefficients(FieldBathConfig.from_ratios(*cell)))
            for cell in [(0.5, 0.7, 0.3), (0.0, 2.0, 0.5), (0.9, 1.0, 0.2)]
        ])
        plain = EigenPropagator(stack)
        assert list(plain.routes) == [EIGEN] * 3
        singular, real_inv = plain._eig[1][1].copy(), np.linalg.inv

        def inv(matrix):
            if np.ndim(matrix) == 3 or np.array_equal(matrix, singular):
                raise np.linalg.LinAlgError("Singular matrix")
            return real_inv(matrix)

        monkeypatch.setattr(np.linalg, "inv", inv)
        prop = EigenPropagator(stack)
        assert list(prop.routes) == [EIGEN, EXPM, EIGEN]
        pops0, taus = XState.excited().populations(), np.array([0.0, 0.3, 2.5, 40.0])
        got, want = prop.populations(pops0, taus), plain.populations(pops0, taus)
        assert np.array_equal(got[[0, 2]], want[[0, 2]])
        for tau, pops in zip(taus, got[1]):
            ref = mp_expm_populations(stack.generator[1], pops0, tau)
            assert np.max(np.abs(pops - ref)) <= 1e-12, tau

    def test_late_horizon_keeps_the_trace(self, corner):
        stack, prop, pops0 = corner
        got = self.propagate(prop, pops0, np.array([0.0, 8e15]))[:, 1]
        assert np.max(np.abs(got.sum(axis=1) - 1.0)) <= 4.0 * np.finfo(float).eps
        for n, rates in enumerate(stack):
            self.assert_relative(got[n], rates.generator, pops0, 8e15)

    def test_random_metzler_stack(self):
        rng = np.random.default_rng(5)
        count = 64
        off = rng.exponential(size=(count, 4, 4)) * 10.0 ** rng.uniform(-18, 1, (count, 4, 4))
        off[:, range(4), range(4)] = 0.0
        off[rng.random((count, 4, 4)) < 0.3] = 0.0
        gens = off - np.eye(4) * off.sum(axis=1)[:, None, :]
        rate = np.abs(np.diagonal(gens, axis1=1, axis2=2)).max(axis=1)
        scaled = np.concatenate([[0.0], 10.0 ** rng.uniform(-6, 4, count - 2), [1e4]])
        out = _uniformized(gens, scaled / rate)
        assert np.all(out >= 0.0)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 4.0 * np.finfo(float).eps
        assert np.array_equal(out[0], np.eye(4))


class TestIntegrateOde:
    def test_zero_generator_constant(self):
        rates = build_rate_matrix(GklsCoefficients(0.0, 0.0, 0.0, 0.0))
        bell = XState.bell_ge()
        traj = integrate_ode(bell, rates, 5.0)
        assert traj.taus == (0.0, 5.0)
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

    def test_lockstep_batch_takes_each_systems_own_steps(self, rng):
        systems = [
            (random_xstate(rng), build_rate_matrix(vacuum_like(lam)), tau)
            for lam, tau in ((-0.9, 0.3), (0.9, 7.5), (0.0, 2.0))
        ]
        for tau in (0.7, 4.0, 9.0):
            config = FieldBathConfig.from_ratios(
                rng.uniform(0.0, 0.95), rng.uniform(0.0, 10.0), rng.uniform(0.05, 2.0)
            )
            systems.append((random_xstate(rng), build_rate_matrix(thermal_coefficients(config)), tau))
        zero = build_rate_matrix(GklsCoefficients(0.0, 0.0, 0.0, 0.0))
        systems.append((XState.bell_ge(), zero, 3.0))
        # The last step of this one is stretched onto tau_end.
        config = FieldBathConfig.from_ratios(0.14411830230318454, 0.0022667353159141093)
        systems.append(
            (XState.antisymmetric(), build_rate_matrix(vacuum_coefficients(config)), 25.154398385150618)
        )
        initials, rates, taus = zip(*systems)

        gen, y0 = _ode_system(initials, rates)
        steps = np.zeros(len(systems), dtype=int)
        for rows, _, _ in _rkf45(gen, y0, np.array(taus), 1e-10):
            steps[rows] += 1
        finals = integrate_ode_many(initials, rates, taus)
        for n, (initial, rate, tau) in enumerate(systems):
            single = integrate_ode(initial, rate, tau)
            reference_steps, reference = scalar_rkf45(gen[n], y0[n], tau)
            assert steps[n] == len(single) - 1 == reference_steps
            assert np.abs(entries(finals[n]) - entries(single.states[-1])).max() <= 1e-14
            assert np.abs(entries(single.states[-1]) - reference).max() <= 1e-14
        assert steps[-2] == 1

    def test_lockstep_batch_takes_a_rate_stack(self, rng):
        rates = [build_rate_matrix(vacuum_like(lam)) for lam in (-0.9, 0.4, 1.0)]
        rates += [
            build_rate_matrix(thermal_coefficients(FieldBathConfig.from_ratios(0.5, sep, temp)))
            for sep, temp in ((2.0, 0.2), (0.3, 1.5))
        ]
        rates.append(build_rate_matrix(GklsCoefficients(0.0, 0.0, 0.0, 0.0)))
        initials = [random_xstate(rng) for _ in rates]
        taus = rng.uniform(0.1, 5.0, size=len(rates))
        from_list = integrate_ode_many(initials, rates, taus)
        from_stack = integrate_ode_many(initials, RateStack.of(rates), taus)
        assert from_stack == from_list
        with pytest.raises(ValueError, match="one rate per state"):
            integrate_ode_many(initials, RateStack.of(rates[1:]), taus)

    def test_lockstep_batch_underflow_names_the_system(self):
        stiff = build_rate_matrix(GklsCoefficients(a1=2.5e14, b1=2.5e14, a2=0.0, b2=0.0))
        rates = [build_rate_matrix(vacuum_like(0.0)), stiff]
        with pytest.raises(StepUnderflowError, match=r"tau=0\.0 \(system 1\)"):
            integrate_ode_many([XState.excited()] * 2, rates, [1.0, 1.0])

    @pytest.mark.parametrize(
        "tau_ends, tol",
        [([1.0, 0.0], 1e-10), ([-1.0, 1.0], 1e-10), ([1.0, math.nan], 1e-10),
         ([1.0], 1e-10), ([1.0, 1.0], 1e-14), ([1.0, 1.0], 1e-5)],
    )
    def test_lockstep_batch_rejects_bad_arguments(self, tau_ends, tol):
        rates = build_rate_matrix(vacuum_like(0.0))
        with pytest.raises(ValueError):
            integrate_ode_many([XState.excited()] * 2, [rates] * 2, tau_ends, tol=tol)

    def test_tolerance_bounds(self):
        rates = build_rate_matrix(vacuum_like(0.0))
        with pytest.raises(ValueError):
            integrate_ode(XState.excited(), rates, 1.0, tol=1e-5)
        with pytest.raises(ValueError):
            integrate_ode(XState.excited(), rates, 1.0, tol=1e-14)
        with pytest.raises(ValueError):
            integrate_ode(XState.excited(), rates, 0.0)

    def test_infinite_end_is_rejected_not_integrated(self):
        # In a child with a timeout, so an oracle that steps towards
        # tau_end = inf fails this test instead of hanging the suite.
        child = textwrap.dedent("""
            import math
            from massbath import (FieldBathConfig, XState, build_rate_matrix,
                                  coefficients, integrate_ode, integrate_ode_many)
            rates = build_rate_matrix(coefficients(FieldBathConfig.from_ratios(0.5, 1.0)))
            calls = [lambda: integrate_ode(XState.excited(), rates, math.inf),
                     lambda: integrate_ode_many([XState.excited()] * 2, [rates] * 2,
                                                [1.0, math.inf])]
            for call in calls:
                try:
                    call()
                except ValueError as exc:
                    print(exc)
        """)
        src = os.path.dirname(os.path.dirname(massbath.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                             text=True, timeout=30, check=True).stdout
        assert out.splitlines() == [
            "tau_end must be finite and > 0, got inf (system 0)",
            "tau_end must be finite and > 0, got inf (system 1)",
        ]


class TestTrajectory:
    def test_requires_increasing_times(self):
        pops = [[0.0, 0.0, 0.0, 1.0]] * 2
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory((0.0, 0.0), pops, [0j, 0j], [0j, 0j], "eigen")
        with pytest.raises(ValueError, match="populations"):
            Trajectory((0.0, 1.0), pops[:1], [0j, 0j], [0j, 0j], "eigen")
        rates = build_rate_matrix(vacuum_like(0.2))
        with pytest.raises(ValueError, match="not empty"):
            eigen_trajectory(XState.excited(), rates, [])
        with pytest.raises(ValueError, match="not empty"):
            closed_form_trajectory(XState.excited(), 0.2, 1.0, 1.0, [])

    def test_rejects_what_xstate_rejects(self):
        pops = [[0.0, 0.0, 0.0, 1.0], [0.5, 0.2, 0.2, 0.1 + 3e-10]]
        with pytest.raises(NotAStateError) as rejected:
            XState(*pops[1])
        with pytest.raises(NotAStateError, match=re.escape(str(rejected.value))):
            Trajectory((0.0, 1.0), pops, [0j, 0j], [0j, 0j], "eigen")

    def test_states_are_built_from_the_arrays(self):
        rates = build_rate_matrix(vacuum_like(0.2))
        traj = eigen_trajectory(XState.bell_ge(), rates, np.linspace(0, 2, 5))
        assert traj.populations.shape == (5, 4) and traj.coh_ge.shape == (5,)
        assert traj.taus == tuple(np.linspace(0, 2, 5).tolist())
        assert traj.states is traj.states
        for k, (tau, state) in enumerate(traj):
            assert tau == traj.taus[k]
            assert state == XState(*traj.populations[k], coh_ge=traj.coh_ge[k],
                                   coh_as=traj.coh_as[k])

    def test_factory_attaches_evaluator(self):
        rates = build_rate_matrix(vacuum_like(0.2))
        traj = eigen_trajectory(XState.excited(), rates, np.linspace(0, 2, 5))
        assert traj.at is not None
        pops, coh_ge, coh_as = traj.at(np.array([1.234, 0.5]))
        assert pops.shape == (2, 4) and coh_ge.shape == coh_as.shape == (2,)
        mid = XState(*pops[0], coh_ge=coh_ge[0], coh_as=coh_as[0])
        assert state_distance(mid, propagate_eigen(XState.excited(), rates, 1.234)) < 1e-15
        assert np.array_equal(traj.at(np.array(traj.taus))[0], traj.populations)


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

    def test_draws_match_the_product_basis_route(self):
        # The default draw builds the state from its product-basis entries;
        # the 4x4 matrix through from_product_basis gives the same bits.
        def through_product_basis(rng):
            diag = rng.dirichlet(np.ones(4))
            mag_ge = math.sqrt(diag[0] * diag[3]) * rng.random()
            mag_as = math.sqrt(diag[1] * diag[2]) * rng.random()
            anti_ge = mag_ge * np.exp(2j * math.pi * rng.random())
            anti_as = mag_as * np.exp(2j * math.pi * rng.random())
            rho = np.zeros((4, 4), dtype=complex)
            rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = diag
            rho[0, 3], rho[3, 0] = anti_ge, np.conj(anti_ge)
            rho[1, 2], rho[2, 1] = anti_as, np.conj(anti_as)
            return from_product_basis(rho)

        direct, oracle = np.random.default_rng(2024), np.random.default_rng(2024)
        for _ in range(2000):
            got, expected = random_xstate(direct), through_product_basis(oracle)
            assert entries(got).tobytes() == entries(expected).tobytes()
        assert direct.bit_generator.state == oracle.bit_generator.state

    def test_diagonal_flag(self, rng):
        state = random_xstate(rng, diagonal=True)
        assert state.coh_ge == 0j and state.coh_as == 0j

    def test_pure_flag(self, rng):
        for _ in range(50):
            state = random_xstate(rng, pure=True)
            rho = to_product_basis(state)
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
