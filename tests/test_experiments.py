import time

import numpy as np
import pytest

from conftest import propagate_eigen, state_distance, vacuum_like
from massbath import (
    FieldBathConfig,
    NoGenerationError,
    NonConvergedMaxError,
    SweepCellError,
    XState,
    build_rate_matrix,
    closed_form_state,
    coefficients,
    decay_factor,
    detect_events,
    eigen_trajectory,
    enlargement_factor,
    entanglement,
    evolve_scan,
    generation_reach,
    gray_factor,
    integrate_ode_many,
    lifetime,
    random_xstate,
    run_verification,
    scaling_check,
    sudden_death_condition,
    thermal_generation_threshold,
    thermal_scan,
    vacuum_coefficients,
    verify_coefficients,
)
import massbath.experiments as experiments
from massbath.experiments import _vacuum_max_over_time
from massbath.xstate import RateStack
from paper_formulas import scalar_lifetime_by_bisection


class TestEvolveScan:
    def scan(self, mass_ratio, initial=None, temp_ratio=None, seps=None):
        return evolve_scan(
            mass_ratio, initial or XState.excited(), temp_ratio,
            np.linspace(0.1, 8.0, 12), np.linspace(0.2, 6.0, 10) if seps is None else seps,
        )

    def test_frozen_grid_is_zero(self):
        result = self.scan(1.2)
        assert np.all(result.concurrence == 0.0)
        assert np.all(result.negativity == 0.0)
        assert np.all(result.method == "frozen")

    def test_generation_occurs_at_subwavelength(self):
        result = evolve_scan(
            0.0, XState.excited(), None, np.linspace(0.5, 10.0, 30), np.linspace(0.5, 1.5, 3)
        )
        assert result.concurrence.max() > 1e-3

    def test_mass_rescaling_cell_by_cell(self):
        gray = gray_factor(0.995, 1.0)
        taus = np.linspace(0.5, 60.0, 8)
        seps = np.linspace(0.5, 12.0, 6)
        massive = evolve_scan(0.995, XState.excited(), None, taus, seps)
        massless = evolve_scan(
            0.0,
            XState.excited(),
            None,
            np.linspace(0.5 * gray, 60.0 * gray, 8),
            np.linspace(0.5 * gray, 12.0 * gray, 6),
        )
        assert np.max(np.abs(massive.concurrence - massless.concurrence)) < 1e-12
        assert np.max(np.abs(massive.negativity - massless.negativity)) < 1e-12

    def test_deterministic(self):
        first = self.scan(0.4, temp_ratio=0.2)
        second = self.scan(0.4, temp_ratio=0.2)
        assert np.array_equal(first.concurrence, second.concurrence)
        assert np.array_equal(first.negativity, second.negativity)

    def test_methods_recorded(self):
        result = self.scan(0.0)
        assert set(np.unique(result.method)) <= {"closed_form", "eigen", "frozen"}
        assert np.all(result.method == "closed_form")
        thermal = self.scan(0.0, temp_ratio=0.5)
        assert np.all(thermal.method == "eigen")

    def test_requires_tau_axis(self):
        with pytest.raises(TypeError, match="taus"):
            evolve_scan(
                mass_ratio=0.0,
                initial=XState.excited(),
                temp_ratio=None,
                seps=np.linspace(0.1, 1.0, 3),
            )

    @pytest.mark.parametrize(
        "mass, temp, sep_min, routes",
        [
            (0.6, None, 0.2, {"closed_form"}),
            # The first separation takes the expm route, the others eigen:
            # both share one propagator stack.
            (0.9, 0.028, 0.065, {"expm", "eigen"}),
            (1.2, None, 0.2, {"frozen"}),
        ],
        ids=["vacuum", "thermal-expm-and-eigen", "frozen"],
    )
    @pytest.mark.parametrize("kind", ["excited", "bell_ge", "random"])
    def test_cells_match_scalar_trajectories(self, mass, temp, sep_min, routes, kind):
        if kind == "random":
            initial = random_xstate(np.random.default_rng(11))
        else:
            initial = getattr(XState, kind)()
        result = self.scan(mass, initial, temp_ratio=temp, seps=np.linspace(sep_min, 3.0, 8))
        assert set(result.method.ravel()) == routes
        for j, sep in enumerate(result.axis2):
            config = FieldBathConfig.from_ratios(mass, sep, temp)
            trajectory = eigen_trajectory(
                initial, build_rate_matrix(coefficients(config)), result.axis1
            )
            assert np.all(result.method[:, j] == trajectory.method)
            values = [entanglement(state) for state in trajectory.states]
            conc = [value.concurrence for value in values]
            neg = [value.negativity for value in values]
            np.testing.assert_allclose(result.concurrence[:, j], conc, rtol=0, atol=1e-15)
            np.testing.assert_allclose(result.negativity[:, j], neg, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("block", [1, 36, 60])
    def test_separation_blocks_give_the_one_block_map(self, monkeypatch, block):
        """MAP_BLOCK // 12 taus separations per call (at least one), which
        splits the thermal map's expm and eigen columns across calls."""
        args = (0.9, XState.bell_ge(), 0.028, np.linspace(0.065, 3.0, 8))
        whole = self.scan(*args)
        monkeypatch.setattr(experiments, "MAP_BLOCK", block)
        blocked = self.scan(*args)
        for name in ("concurrence", "negativity", "method"):
            assert np.array_equal(getattr(blocked, name), getattr(whole, name))


class TestGridArrays:
    """The scans, scaling_check and the threshold take their grids as arrays:
    any non-empty 1-D grid, each cell independent of its neighbours. A bad
    grid fails before any cell, naming the argument and its first bad entry."""

    @pytest.fixture
    def no_cells(self, monkeypatch):
        def cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_cell_rates", cell)

    GOOD = np.linspace(0.1, 1.0, 3)
    # Each call takes (its other grid, seps), and names that other grid so.
    SCANS = {
        "evolve_scan": (lambda grid, seps: evolve_scan(0.5, XState.excited(), 0.2, grid, seps),
                        "taus (Gamma0*tau)", ">="),
        "scaling_check": (lambda grid, seps: scaling_check(0.5, XState.excited(), 0.2, grid, seps),
                          "taus (Gamma0*tau)", ">="),
        "thermal_scan": (lambda grid, seps: thermal_scan(0.5, XState.excited(), grid, seps),
                         "temps (T/omega)", ">"),
    }

    @pytest.mark.parametrize("scan", sorted(SCANS))
    @pytest.mark.parametrize("which", ["grid", "seps"])
    @pytest.mark.parametrize("bad, got", [
        ([0.5, -1.0, 2.0], "got -1.0 at entry 1"),
        ([0.1, np.nan], "got nan at entry 1"),
        ([0.1, 0.2, -np.inf], "got -inf at entry 2"),
        ([], "must be a non-empty 1-D grid, got shape (0,)"),
        (np.ones((2, 3)), "must be a non-empty 1-D grid, got shape (2, 3)"),
    ], ids=["negative", "nan", "inf", "empty", "2-D"])
    def test_bad_entry_anywhere_fails_before_any_cell(self, no_cells, scan, which, bad, got):
        call, grid_name, bound = self.SCANS[scan]
        grids = {"grid": self.GOOD, "seps": self.GOOD, which: bad}
        name, bound = (grid_name, bound) if which == "grid" else ("seps (omega*L)", ">=")
        with pytest.raises(ValueError) as info:
            call(grids["grid"], grids["seps"])
        message = str(info.value)
        assert message.startswith(name) and message.endswith(got)
        if "entry" in got:
            assert f"must be finite and {bound} 0" in message

    def test_zero_is_in_range_for_times_and_separations_only(self, no_cells):
        for name in ("evolve_scan", "scaling_check"):
            with pytest.raises(AssertionError, match="a cell ran"):
                self.SCANS[name][0]([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match=r"^temps \(T/omega\) .* got 0.0 at entry 0$"):
            thermal_scan(0.5, XState.excited(), [0.0, 1.0], [0.0, 1.0])

    def test_separations_are_checked_before_the_other_grid(self, no_cells):
        for call, *_ in self.SCANS.values():
            with pytest.raises(ValueError, match=r"^seps \(omega\*L\)"):
                call([-1.0], [-1.0])

    @pytest.mark.parametrize("sep_values, message", [
        ([0.5, -1.0, 2.0], "sep_values must be finite and > 0, got -1.0 at entry 1"),
        ([0.5, 0.0], "sep_values must be finite and > 0, got 0.0 at entry 1"),
        ([], r"sep_values must be a non-empty 1-D grid, got shape \(0,\)"),
        (np.geomspace(0.05, 6.0, 24).reshape(4, 6),
         r"sep_values must be a non-empty 1-D grid, got shape \(4, 6\)"),
    ], ids=["negative", "zero", "empty", "2-D"])
    def test_threshold_rejects_a_bad_grid_before_any_cell(self, no_cells, sep_values, message):
        with pytest.raises(ValueError, match=message):
            thermal_generation_threshold(0.0, sep_values=sep_values)

    def test_threshold_takes_a_scalar_as_a_one_point_grid(self):
        scalar = thermal_generation_threshold(0.0, tol=0.02, sep_values=1.2)
        assert scalar == thermal_generation_threshold(0.0, tol=0.02, sep_values=[1.2])
        assert type(scalar) is float and 0.1 < scalar < 0.4

    def test_non_uniform_grid_gives_the_matching_cells(self):
        seps = np.array([0.3, 1.1, 4.0])
        picked = thermal_scan(0.5, XState.bell_ge(), [0.05, 0.2], seps)
        full = thermal_scan(0.5, XState.bell_ge(), np.linspace(0.05, 0.2, 4), seps)
        for name in ("concurrence", "negativity", "method"):
            assert np.array_equal(getattr(picked, name), getattr(full, name)[[0, 3]]), name
        assert picked.axis1.tolist() == [0.05, 0.2]

    def test_time_grid_in_any_order_gives_the_matching_cells(self):
        seps = np.array([0.3, 1.1, 4.0])
        taus = np.array([7.5, 0.0, 2.25, 0.5])
        shuffled = evolve_scan(0.5, XState.excited(), 0.2, taus, seps)
        ordered = evolve_scan(0.5, XState.excited(), 0.2, np.sort(taus), seps)
        order = np.argsort(taus)
        for name in ("concurrence", "negativity", "method"):
            assert np.array_equal(getattr(shuffled, name)[order], getattr(ordered, name)), name


class TestSweepCellErrors:
    """A cell whose rates cannot be built names its grid coordinates."""

    @pytest.fixture(autouse=True)
    def fail_at_separation(self, monkeypatch):
        real = experiments.spatial_factor

        def spatial_factor(omega, separation, gray):
            if separation == 1.5:
                raise FloatingPointError("injected")
            return real(omega, separation, gray)

        monkeypatch.setattr(experiments, "spatial_factor", spatial_factor)

    SEPS = np.linspace(0.5, 2.0, 4)

    def test_time_sep_names_the_separation(self):
        with pytest.raises(SweepCellError, match="separation 1.5: injected") as info:
            evolve_scan(0.6, XState.excited(), 0.2, np.linspace(0.0, 5.0, 6), self.SEPS)
        assert (info.value.axis1, info.value.axis2) == (None, 1.5)
        assert isinstance(info.value.__cause__, FloatingPointError)

    def test_temp_sep_names_the_cell(self):
        with pytest.raises(SweepCellError, match=r"\(T/omega=0.1, omega\*L=1.5\)") as info:
            thermal_scan(0.6, XState.excited(), np.linspace(0.1, 0.2, 2), self.SEPS)
        assert (info.value.axis1, info.value.axis2) == (0.1, 1.5)
        assert isinstance(info.value.__cause__, FloatingPointError)

    def test_threshold_names_the_cell(self):
        # The bisection starts at the bracket's low end, T/omega = 0.1.
        with pytest.raises(SweepCellError, match=r"\(T/omega=0.1, omega\*L=1.5\)") as info:
            thermal_generation_threshold(0.6, sep_values=np.array([0.5, 1.5, 2.0]))
        assert (info.value.axis1, info.value.axis2) == (0.1, 1.5)
        assert isinstance(info.value.__cause__, FloatingPointError)


class TestOverflowingCell:
    """At T/omega = 1e308, coth(omega/2T) overflows and a1 = inf: a cell that
    fails for real, with nothing patched."""

    SEPS = np.linspace(0.5, 2.0, 4)

    def test_temp_sep_names_the_first_failing_cell(self):
        with pytest.raises(SweepCellError, match=r"\(T/omega=1e\+308, omega\*L=0.5\)") as info:
            thermal_scan(0.6, XState.excited(), np.linspace(0.1, 1e308, 2), self.SEPS)
        assert (info.value.axis1, info.value.axis2) == (1e308, 0.5)
        assert isinstance(info.value.__cause__, ValueError)

    def test_time_sep_names_the_first_separation(self):
        with pytest.raises(SweepCellError, match="separation 0.5: rates must be finite") as info:
            evolve_scan(0.6, XState.excited(), 1e308, np.linspace(0.0, 5.0, 6), self.SEPS)
        assert (info.value.axis1, info.value.axis2) == (None, 0.5)
        assert isinstance(info.value.__cause__, ValueError)


class TestCellRates:
    """The stacked cell builder equals build_rate_matrix(coefficients(...))
    cell by cell, bit for bit."""

    @staticmethod
    def assert_cells_equal(mass, seps, temps):
        got = experiments._cell_rates(mass, seps, temps)
        cell_temps = np.broadcast_to(np.asarray(temps, dtype=object), seps.shape)
        expected = RateStack.of([
            build_rate_matrix(coefficients(FieldBathConfig.from_ratios(mass, sep, temp)))
            for sep, temp in zip(seps.tolist(), cell_temps.tolist())
        ])
        for name, values in zip(RateStack._fields, expected):
            assert np.array_equal(getattr(got, name), values), (mass, name)

    # 1e-3: coth rounds to 1 (the cascade route); 0.0266 and 0.027 lie either
    # side of the switch to it on a default map; 1e2: a hot bath.
    EDGE_TEMPS = [1e-3, 0.0266, 0.027, 1e2]

    @pytest.mark.parametrize("mass", [0.0, 0.999999, 1.0, 1.2, 0.37, 0.9])
    def test_seeded_grid_and_edges(self, mass):
        rng = np.random.default_rng(int(mass * 1e6))
        gray = gray_factor(mass, 1.0)
        seps = [0.0, 1e-6] + ([np.pi / gray] if gray > 0.0 else [])  # lam = 0 at pi
        seps = np.array(seps + rng.uniform(0.0, 20.0, 12).tolist())
        temps = np.array(self.EDGE_TEMPS + rng.uniform(0.01, 2.0, 40).tolist())
        cell_temps, cell_seps = np.repeat(temps, seps.size), np.tile(seps, temps.size)
        self.assert_cells_equal(mass, cell_seps, cell_temps)
        for bath in (None, 0.027, 0.2):  # time-sep columns, vacuum and thermal
            self.assert_cells_equal(mass, seps, bath)
        if gray == 0.0:
            assert experiments._cell_rates(mass, cell_seps, cell_temps).frozen.all()


class TestThermalScan:
    def test_zero_temperature_limit_matches_vacuum(self):
        result = thermal_scan(
            0.0, XState.excited(), np.linspace(0.01, 0.014, 2), np.linspace(0.5, 2.0, 3)
        )
        for j, sep in enumerate(result.axis2):
            vacuum_max = _vacuum_max_over_time(XState.excited(), 0.0, sep, "concurrence")
            assert result.concurrence[0, j] == pytest.approx(vacuum_max, abs=2e-4)

    def test_high_temperature_kills_generation(self):
        result = thermal_scan(0.0, XState.excited(), np.linspace(0.5, 1.0, 2), np.linspace(0.2, 4.0, 6))
        assert result.concurrence.max() < 1e-3

    def test_mass_rescales_separation_axis(self):
        gray = gray_factor(0.8, 1.0)
        temps = np.linspace(0.05, 0.15, 2)
        massive = thermal_scan(0.8, XState.excited(), temps, np.linspace(1.0, 3.0, 3))
        massless = thermal_scan(
            0.0, XState.excited(), temps, np.linspace(gray, 3.0 * gray, 3)
        )
        assert np.max(np.abs(massive.concurrence - massless.concurrence)) < 1e-6


class TestScalingCheck:
    def test_vacuum_identity(self):
        deviation = scaling_check(
            0.8,
            XState.excited(),
            None,
            np.linspace(0.1, 8.0, 20),
            seps=np.linspace(0.1, 15.0, 20),
        )
        assert deviation < 1e-10

    def test_thermal_identity(self):
        deviation = scaling_check(
            0.8,
            XState.excited(),
            0.1,
            np.linspace(0.1, 8.0, 10),
            seps=np.linspace(0.1, 15.0, 10),
        )
        assert deviation < 1e-10

    def test_massless_is_exact_identity(self):
        deviation = scaling_check(
            0.0,
            XState.bell_ge(),
            None,
            np.linspace(0.1, 5.0, 5),
            seps=np.linspace(0.1, 5.0, 5),
        )
        assert deviation == 0.0


class TestMonotoneFreezing:
    def test_death_time_grows_with_mass(self):
        initial = XState.diagonal(e=0.5, g=0.0, a=0.5, s=0.0)
        death_times = []
        for mass in (0.0, 0.3, 0.6, 0.9):
            config = FieldBathConfig.from_ratios(mass, 1e6)
            rates = build_rate_matrix(vacuum_coefficients(config))
            gray = gray_factor(mass, 1.0)
            horizon = 1.0 / gray
            traj = eigen_trajectory(initial, rates, np.linspace(0.0, horizon, 100))
            events = detect_events(traj, "concurrence")
            assert len(events.death_times) == 1
            death_times.append(events.death_times[0])
        assert all(b > a for a, b in zip(death_times, death_times[1:]))


class TestGenerationReach:
    def test_reach_scales_inversely_with_gray(self):
        reach_massless = generation_reach(0.0)
        reach_massive = generation_reach(0.8)
        assert reach_massive * 0.6 == pytest.approx(reach_massless, rel=1e-6)

    def test_enlargement_factor_example(self):
        factor = enlargement_factor(0.8)
        assert factor == pytest.approx(1.0 / 0.6, rel=1e-6)

    def test_small_mass_approaches_unity(self):
        factor = enlargement_factor(0.05)
        assert factor == pytest.approx(1.0 / gray_factor(0.05, 1.0), rel=1e-6)

    def test_unreachable_cutoff(self):
        with pytest.raises(NoGenerationError):
            generation_reach(0.0, XState.excited(), cutoff=0.9)

    def test_results_are_python_floats(self):
        assert type(generation_reach(0.0)) is float
        assert type(enlargement_factor(0.8)) is float
        threshold = thermal_generation_threshold(cutoff=1e-3, bracket=(0.15, 0.3), tol=0.2)
        assert type(threshold) is float

    def test_unknown_measure_rejected_before_any_search(self, monkeypatch):
        def search(*args):
            raise AssertionError("searched with an unknown measure")

        monkeypatch.setattr(experiments, "_vacuum_max_over_time", search)
        with pytest.raises(ValueError, match="unknown measure 'bogus'"):
            generation_reach(0.5, measure="bogus", cutoff=1e-5)
        with pytest.raises(ValueError, match="unknown measure 'Concurrence'"):
            enlargement_factor(0.5, measure="Concurrence")

    def test_frozen_mass_rejected(self):
        with pytest.raises(ValueError):
            enlargement_factor(1.0)
        with pytest.raises(NoGenerationError):
            generation_reach(1.2)

    @pytest.mark.parametrize(
        "search, kwargs",
        [
            (thermal_generation_threshold, dict(tol=0.0)),
            (thermal_generation_threshold, dict(tol=-0.002)),
            (thermal_generation_threshold, dict(tol=float("nan"))),
            (thermal_generation_threshold, dict(bracket=(0.3, 0.2))),
            (thermal_generation_threshold, dict(bracket=(0.2, 0.2))),
            (thermal_generation_threshold, dict(bracket=(0.0, 0.4))),
            (thermal_generation_threshold, dict(bracket=(0.1, float("inf")))),
            (thermal_generation_threshold, dict(sep_values=[0.0, 1.0, 2.0])),
            (thermal_generation_threshold, dict(sep_values=[0.5, -1.0])),
            (thermal_generation_threshold, dict(sep_values=[0.5, float("nan")])),
            (thermal_generation_threshold, dict(cutoff=0.0)),
            (thermal_generation_threshold, dict(cutoff=float("nan"))),
            (generation_reach, dict(mass_ratio=0.5, cutoff=0.0)),
            (generation_reach, dict(mass_ratio=0.5, cutoff=float("nan"))),
            (generation_reach, dict(mass_ratio=0.5, cutoff=float("inf"))),
            (enlargement_factor, dict(mass_ratio=0.5, cutoff=float("nan"))),
        ],
        ids=lambda arg: getattr(arg, "__name__", None)
        or ",".join(f"{key}={value}" for key, value in arg.items()),
    )
    def test_bad_arguments_fail_before_any_cell(self, search, kwargs, monkeypatch):
        def cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_cell_rates", cell)
        monkeypatch.setattr(experiments, "_vacuum_max_over_time", cell)
        with pytest.raises(ValueError, match="must be finite and > 0|lo < hi"):
            search(**kwargs)


class TestCutoffDecidedSearches:
    """The headline searches ask only whether a maximum exceeds the cutoff;
    their results are pinned to the values of the full max-over-time search."""

    def test_threshold_values(self):
        for mass in (0.0, 0.3, 0.5, 0.9, 0.995):
            assert thermal_generation_threshold(mass) == 0.2318359375, mass
        # On six separations the zoom around the grid's best point decides
        # some temperatures that the grid alone leaves below the cutoff. Near
        # the threshold every grid maximum is roundoff, so roundoff picks the
        # bracket: at T/omega = 0.23125 it holds the generating window near
        # omega*L = 1.25 (1.28e-3), and the coarse value is the fine one.
        coarse = np.geomspace(0.05, 6.0, 6)
        assert thermal_generation_threshold(sep_values=coarse) == 0.2318359375

    @pytest.mark.xfail(strict=True, reason=(
        "the log-separation zoom brackets the argmax of grid maxima that are "
        "all roundoff near the threshold, so the coarse threshold moves with "
        "the mass (0.2271484375 at m/omega = 0.5, 0.2283203125 at 0.9); "
        "mended by maximizing the signed margin (ROADMAP item 4)"))
    def test_coarse_threshold_is_independent_of_the_mass(self):
        # The same six separations in units of 1/gray at every mass; the
        # default 24-separation grid gives 0.2318359375 at every mass.
        coarse = np.geomspace(0.05, 6.0, 6)
        massless = thermal_generation_threshold(0.0, sep_values=coarse)
        massive = {
            mass: thermal_generation_threshold(mass, sep_values=coarse / gray_factor(mass, 1.0))
            for mass in (0.5, 0.9)
        }
        assert massive == {0.5: massless, 0.9: massless}

    def test_reach_and_enlargement_values(self):
        expected = {
            0.0: 2.48740234375,
            0.5: 2.872204825493937,
            0.9: 5.706492341227617,
            0.995: 24.905174387010835,
        }
        for mass, reach in expected.items():
            assert generation_reach(mass) == reach, mass
        assert enlargement_factor(0.995) == 10.0125234864352
        reach = generation_reach(0.9, cutoff=1e-6, measure="negativity")
        assert reach == 10.889630039563016

    def test_threshold_below_float_spacing_ends_on_adjacent_floats(self):
        # A tol far below the spacing of floats near the threshold stops the
        # bisection on adjacent floats instead of repeating one temperature.
        start = time.perf_counter()
        threshold = thermal_generation_threshold(
            tol=1e-300, bracket=(0.2, 0.26), sep_values=np.geomspace(0.05, 6.0, 6))
        assert time.perf_counter() - start < 2.0
        assert type(threshold) is float and 0.2 < threshold < 0.26

    def test_threshold_bracket_still_generating(self):
        with pytest.raises(NonConvergedMaxError, match="generation persists at T/omega = 0.2"):
            thermal_generation_threshold(bracket=(0.1, 0.2))

    def test_threshold_bracket_never_generating(self):
        with pytest.raises(NoGenerationError, match="even at T/omega = 0.3"):
            thermal_generation_threshold(bracket=(0.3, 0.4))

    def test_reach_past_the_scan_window(self):
        # bell-GE starts maximally entangled at every separation.
        with pytest.raises(NoGenerationError, match="beyond the scan window"):
            generation_reach(0.5, XState.bell_ge())


class TestVerifyCoefficients:
    def test_vacuum_grid(self):
        for mass in (0.0, 0.3, 0.6, 0.9, 0.995):
            for sep in (0.1, 1.0, 5.0, 20.0):
                check = verify_coefficients(FieldBathConfig.from_ratios(mass, sep))
                assert check.max_relative_deviation < 1e-12
                assert check.kms_deviation is None

    def test_thermal_kms(self):
        for beta_omega in (0.5, 2.0, 10.0):
            config = FieldBathConfig.from_ratios(0.3, 1.5, 1.0 / beta_omega)
            check = verify_coefficients(config)
            assert check.max_relative_deviation < 1e-12
            assert check.kms_deviation < 1e-12

    def test_frozen_both_routes_zero(self):
        check = verify_coefficients(FieldBathConfig.from_ratios(1.5, 1.0))
        assert check.max_relative_deviation == 0.0

    def test_perturbation_detected(self):
        check = verify_coefficients(
            FieldBathConfig.from_ratios(0.3, 1.0), perturb=1e-6
        )
        assert check.max_relative_deviation > 1e-7


class TestRunVerification:
    def test_all_pass_and_deterministic(self):
        first = run_verification(seed=7)
        second = run_verification(seed=7)
        assert all(suite.passed for suite in first)
        assert [s.max_deviation for s in first] == [s.max_deviation for s in second]
        names = [s.name for s in first]
        assert names == [
            "scaling-vacuum",
            "scaling-thermal",
            "lifetime-bisection",
            "method-agreement",
            "coefficient-oracle",
        ]

    def test_perturbation_fails(self):
        results = run_verification(seed=7, perturb=1e-6)
        oracle = [s for s in results if s.name == "coefficient-oracle"][0]
        assert not oracle.passed

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_sudden_death_draws_match_one_at_a_time(self, seed):
        rng, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = experiments._sudden_death_draws(rng, 300)
        expected = []
        while len(expected) < 300:
            g, a, s, e = loop.dirichlet(np.ones(4))
            if sudden_death_condition(e, g, a, s):
                expected.append((g, a, s, e))
        assert drawn.tolist() == np.array(expected).tolist()
        assert rng.random(3).tolist() == loop.random(3).tolist()

    @pytest.mark.parametrize("seed", [3, 11])
    def test_array_suites_equal_one_system_loops(self, seed):
        # The lifetime and method-agreement suites, one state and one
        # propagator at a time, as the array passes must reproduce bit for bit.
        rng = np.random.default_rng(seed)
        lifetime_dev, count = 0.0, 0
        while count < 300:
            g, a, s, e = rng.dirichlet(np.ones(4))
            if not sudden_death_condition(e, g, a, s):
                continue
            count += 1
            formula = lifetime(e, g, a, s, 1.0, 1.0)
            oracle = scalar_lifetime_by_bisection(e, g, a, s, 1.0, 1.0)
            lifetime_dev = max(lifetime_dev, abs(formula - oracle) / oracle)
        method_dev, systems = 0.0, []
        for _ in range(30):
            state, lam, tau = random_xstate(rng), rng.uniform(-0.9, 0.9), rng.uniform(0.1, 5.0)
            rates = build_rate_matrix(vacuum_like(lam))
            closed = closed_form_state(state, lam, decay_factor(tau, 1.0, 1.0))
            eigen = propagate_eigen(state, rates, tau)
            method_dev = max(method_dev, state_distance(closed, eigen))
            systems.append((state, rates, tau, eigen))
        for _ in range(30):
            state, temp, sep = random_xstate(rng), rng.uniform(0.05, 2.0), rng.uniform(0.1, 10.0)
            tau = rng.uniform(0.1, 5.0)
            rates = build_rate_matrix(coefficients(FieldBathConfig.from_ratios(0.0, sep, temp)))
            systems.append((state, rates, tau, propagate_eigen(state, rates, tau)))
        states, rates, taus, eigens = zip(*systems)
        odes = integrate_ode_many(states, rates, taus, tol=1e-10)
        method_dev = max(method_dev, *map(state_distance, eigens, odes))
        suites = {suite.name: suite.max_deviation for suite in run_verification(seed)}
        assert suites["lifetime-bisection"] == lifetime_dev
        assert suites["method-agreement"] == method_dev
