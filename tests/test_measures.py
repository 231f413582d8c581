import dataclasses
import math

import numpy as np
import pytest

from conftest import partial_transpose_negativity, state_arrays, wootters_concurrence
from massbath import (
    FrozenDynamicsError,
    GklsCoefficients,
    NotAStateError,
    XState,
    build_rate_matrix,
    closed_form_state,
    closed_form_trajectory,
    coefficients,
    concurrence,
    detect_events,
    eigen_trajectory,
    entanglement,
    lifetime,
    lifetime_by_bisection,
    negativity,
    random_xstate,
    spatial_factor,
    sudden_death_condition,
    to_product_basis,
    vacuum_coefficients,
    FieldBathConfig,
)
from massbath.measures import (
    BOTH,
    RADICAND_TOL,
    _bisect,
    _measure_bounds,
    _measures_arrays,
    _safe_sqrt,
)
from massbath.xstate import POP_TOL, PSD_TOL
from paper_formulas import (
    AssumptionViolatedError,
    LambdaSingularError,
    closed_form_concurrence,
    closed_form_negativity,
    scalar_crossing,
    scalar_lifetime_by_bisection,
)


def random_ge_coherent_state(rng):
    """Random X state with coh_as = 0 (closed-form measure precondition)."""
    g, a, s, e = rng.dirichlet(np.ones(4))
    magnitude = math.sqrt(g * e) * rng.random()
    phase = np.exp(2j * math.pi * rng.random())
    return XState(g, a, s, e, coh_ge=magnitude * phase)


class TestConcurrence:
    def test_product_state(self):
        assert concurrence(XState.excited()) == 0.0
        assert concurrence(XState.ground()) == 0.0

    def test_maximally_entangled(self):
        value = entanglement(XState.antisymmetric())
        assert value.k1 == pytest.approx(1.0)
        assert value.concurrence == pytest.approx(1.0)
        bell = entanglement(XState.bell_ge())
        assert bell.k2 == pytest.approx(1.0)
        assert bell.concurrence == pytest.approx(1.0)

    def test_separable_mixture(self):
        value = entanglement(XState(0.5, 0.0, 0.0, 0.5))
        assert value.concurrence == 0.0
        assert value.k1 == pytest.approx(-1.0)

    def test_wootters_oracle(self, rng):
        worst = 0.0
        for _ in range(500):
            state = random_xstate(rng)
            worst = max(
                worst,
                abs(concurrence(state) - wootters_concurrence(to_product_basis(state))),
            )
        assert worst < 1e-10


class TestValidatedStateEdges:
    """States that XState accepts with roundoff-negative radicands."""

    def test_negative_population_within_tolerance(self):
        state = XState(-5e-11, 0.0, 0.5, 0.5 + 5e-11)
        value = entanglement(state)
        assert concurrence(state) == value.concurrence == 0.5
        assert negativity(state) == value.negativity

    def test_coherence_at_the_positivity_bound(self):
        # |coh_as|^2 just under pop_a*pop_s + PSD_TOL makes the k2 radicand
        # (a+s)^2 - 4 re(coh_as)^2 about -4e-10.
        state = XState(0.0, 0.5, 0.5, 0.0, coh_as=math.sqrt(0.25 + 0.99 * PSD_TOL))
        assert concurrence(state) == 0.0
        assert negativity(state) >= 0.0

    def test_radicand_beyond_the_bound_raises(self):
        assert RADICAND_TOL >= 4.0 * PSD_TOL + POP_TOL
        with pytest.raises(NotAStateError):
            _safe_sqrt(-1.01 * RADICAND_TOL)
        assert _safe_sqrt(-0.99 * RADICAND_TOL) == 0.0


class TestScalarMatchesArrays:
    def test_bit_for_bit(self, rng):
        states = [random_xstate(rng) for _ in range(3000)] + [
            XState(-5e-11, 0.0, 0.5, 0.5 + 5e-11),
            XState(0.0, 0.5, 0.5, 0.0, coh_as=math.sqrt(0.25 + 0.99 * PSD_TOL)),
        ]
        conc, neg = _measures_arrays(*state_arrays(states))
        for state, c, n in zip(states, conc.tolist(), neg.tolist()):
            value = entanglement(state)
            assert concurrence(state) == value.concurrence == c
            assert negativity(state) == value.negativity == n


def _tight_intervals(pop_g, pop_a, pop_s, pop_e, abs_ge, re_as, im_as):
    """The intervals of _measure_bounds that hold one state each, exactly."""
    return (np.abs(pop_a - pop_s), pop_a + pop_s, np.abs(pop_g - pop_e), pop_g, pop_e,
            abs_ge, re_as, im_as)


def _loose_intervals(rng, size):
    """(4, N) Dirichlet populations and the intervals of _measure_bounds that
    hold each with slack, so that pa + ps, pg and pe reach below zero."""
    pops = rng.dirichlet(np.ones(4), size=size).T
    pg, pa, ps, pe = pops
    slack = rng.uniform(0.0, 0.4, (5, size))
    return pops, (np.abs(pa - ps) + slack[0], pa + ps - slack[1], np.abs(pg - pe) + slack[2],
                  pg - slack[3], pe - slack[4])


def _reference_bounds(diff, total, gap, low_g, low_e, abs_ge, re_as, im_as):
    """The bounds of _measure_bounds as plain branch expressions, by name."""
    root = np.sqrt(np.maximum(low_g, 0.0)) * np.sqrt(np.maximum(low_e, 0.0))
    k1 = np.hypot(diff, 2.0 * im_as) - 2.0 * root
    k2 = 2.0 * abs_ge - np.sqrt(np.maximum(np.maximum(total, 0.0) ** 2 - 4.0 * re_as * re_as, 0.0))
    n1 = 0.5 * (low_g + low_e - np.sqrt(diff * diff + 4.0 * im_as * im_as + gap * gap))
    n2 = 0.5 * (total - 2.0 * np.hypot(abs_ge, re_as))
    low = np.minimum(n1 - 0.5e-12, 0.0) + np.minimum(n2 - 0.5e-12, 0.0)
    return {"concurrence": np.maximum(0.0, np.maximum(k1 + 1e-12, k2 + 1e-12)),
            "negativity": 0.0 - 2.0 * low}


class TestMeasureBounds:
    @pytest.mark.parametrize("select", [("concurrence",), ("negativity",), BOTH,
                                        ("negativity", "concurrence")],
                             ids=["concurrence", "negativity", "both", "reversed"])
    def test_bounds_match_the_plain_branch_expressions(self, rng, select):
        # The retirement certificate and the pinned pass counts rest on these bits.
        pops, intervals = _loose_intervals(rng, 2000)
        assert all(np.min(intervals[k]) < 0.0 for k in (1, 3, 4))
        for name, parts in _coherence_cases(pops, rng).items():
            expected = _reference_bounds(*intervals, *parts)
            got = _measure_bounds(*intervals, *parts, select=select)
            assert got.shape == (len(select), pops.shape[1]), name
            assert np.array_equal(_bits(got), _bits([expected[m] for m in select])), name

    def test_tight_intervals_bound_by_the_value_plus_the_margin(self, rng):
        states = [random_xstate(rng) for _ in range(2000)]
        states += [XState.excited(), XState.bell_ge(), XState(0.0, 0.5, 0.5, 0.0, coh_as=0.5j)]
        entries = state_arrays(states)
        bounds, values = _measure_bounds(*_tight_intervals(*entries)), np.array(
            _measures_arrays(*entries))
        # Each branch widens by 1e-12; negativity sums two of them.
        assert np.all(bounds >= values) and np.max(bounds - values) <= 2.5e-12
        # A sign flip of a coherence part leaves every bound as it is.
        flipped = _tight_intervals(*entries[:5], -entries[5], -entries[6])
        assert np.array_equal(_measure_bounds(*flipped), bounds)

    def test_wider_intervals_give_larger_bounds(self, rng):
        entries = state_arrays([random_xstate(rng) for _ in range(2000)])
        slack = rng.uniform(0.0, 0.05, (8, len(entries[0])))
        tight = _tight_intervals(*entries)
        # Lower bounds (pa + ps, pg, pe) fall, the other intervals grow.
        loose = [x - s if k in (1, 3, 4) else np.sign(x) * (np.abs(x) + s)
                 for k, (x, s) in enumerate(zip(tight, slack))]
        assert np.all(_measure_bounds(*loose) >= _measure_bounds(*tight))

    def test_branch_bounds_below_zero_bound_by_exactly_zero(self):
        # The maximally mixed state: k1 = k2 = -0.5 and n1 = n2 = 0.25.
        intervals = (0.0, 0.5, 0.0, 0.25, 0.25, 0.0, 0.0, 0.0)
        assert _measure_bounds(*intervals).tolist() == [0.0, 0.0]
        assert _measure_bounds(*intervals, select=("negativity",)).tolist() == [0.0]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def _shortcut_populations(rng) -> np.ndarray:
    """(4, N) populations (pg, pa, ps, pe): Dirichlet draws, then edges: pa =
    ps, pg*pe = 0, signed zeros, subnormals, k1 < 0 and a NaN in each slot."""
    tiny = 5e-324
    edges = [
        (0.2, 0.3, 0.3, 0.2), (0.0, 0.6, 0.1, 0.3), (0.4, 0.1, 0.5, 0.0),
        (-0.0, 0.0, -0.0, 1.0), (0.0, -0.0, 0.0, -0.0), (0.5, -0.0, 0.0, 0.5),
        (tiny, 2 * tiny, tiny, 1.0), (0.0, tiny, 0.0, 1e-310), (1e-310, -tiny, tiny, 1e-310),
        (0.5, 0.0, 0.0, 0.5),  # k1 = -1
        (np.nan, 0.3, 0.2, 0.5), (0.1, np.nan, 0.2, 0.7), (0.1, 0.2, np.nan, 0.7),
        (0.1, 0.2, 0.3, np.nan),
    ]
    return np.concatenate([rng.dirichlet(np.ones(4), size=600).T, np.array(edges).T], axis=1)


def _coherence_cases(pops, rng):
    """Coherence parts (|coh_ge|, re coh_as, im coh_as) with scalar zeros, as
    _faded_coherences leaves them for diagonal states, bell-GE and others.
    The arrays reach past positivity, so that k2 > 0 and n2 < 0 occur."""
    size = pops.shape[1]
    abs_ge = rng.uniform(0.0, 1.0, size)
    coh_as = rng.uniform(0.0, 1.0, size) * np.exp(2j * math.pi * rng.random(size))
    re_as, im_as = coh_as.real, coh_as.imag
    return {
        "diagonal": (0.0, 0.0, 0.0),
        "diagonal, signed zeros": (0.0, -0.0, -0.0),
        "diagonal, -0 ge": (-0.0, 0.0, 0.0),
        "ge only": (abs_ge, 0.0, 0.0),
        "ge only, -0 as": (abs_ge, -0.0, -0.0),
        "as only": (0.0, re_as, im_as),
        "real as": (0.0, re_as, 0.0),
        "imaginary as": (0.0, 0.0, im_as),
        "ge and imaginary as": (abs_ge, 0.0, im_as),
    }


def _reference_branches(pop_g, pop_a, pop_s, pop_e, abs_ge, re_as, im_as):
    """(k1, k2, n1, n2) with np.hypot and k2 always, in the kernel's steps."""
    k1 = np.hypot(pop_a - pop_s, 2.0 * im_as) - 2.0 * np.sqrt(np.maximum(pop_g * pop_e, 0.0))
    total = pop_a + pop_s
    k2 = 2.0 * abs_ge - np.sqrt(np.maximum(total * total - 4.0 * re_as * re_as, 0.0))
    diff, gap = pop_a - pop_s, pop_g - pop_e
    n1 = 0.5 * ((pop_g + pop_e) - np.sqrt(diff * diff + 4.0 * im_as * im_as + gap * gap))
    n2 = 0.5 * (total - 2.0 * np.hypot(abs_ge, re_as))
    return k1, k2, n1, n2


def _reference_measures(*entries):
    k1, k2, n1, n2 = _reference_branches(*entries)
    low = np.minimum(n1, 0.0) + np.minimum(n2, 0.0)
    return {"concurrence": np.maximum(0.0, np.maximum(k1, k2)), "negativity": 0.0 - 2.0 * low}


class TestZeroCoherenceShortcuts:
    """A scalar-zero coherence part takes |x| for hypot(x, 0) and, for
    |coh_ge|, skips k2; arrays of the same zeros take np.hypot and compute
    k2. Both give the bits of the formulas with np.hypot and k2."""

    @pytest.mark.parametrize("select", [("concurrence",), ("negativity",), BOTH])
    @pytest.mark.parametrize("buffers", [False, True])
    def test_scalar_zeros_give_the_bits_of_arrays_of_zeros(self, rng, select, buffers):
        pops = _shortcut_populations(rng)
        size = pops.shape[1]
        for name, parts in _coherence_cases(pops, rng).items():
            arrays = [np.full(size, part) if np.ndim(part) == 0 else part for part in parts]
            with np.errstate(invalid="ignore"):
                reference = _reference_measures(*pops, *arrays)
                expected = _bits([reference[measure] for measure in select])
                for entries in ((*pops, *parts), (*pops, *arrays)):
                    out = dict(out=np.empty((len(select), size)), spare=np.empty((2, size)))
                    got = _measures_arrays(*entries, select=select, **(out if buffers else {}))
                    assert np.array_equal(_bits(got), expected), name

    def test_bounds_of_scalar_zeros_are_the_bounds_of_arrays_of_zeros(self, rng):
        pops = _shortcut_populations(rng)[:, :600]
        pg, pa, ps, pe = pops
        intervals = (np.abs(pa - ps), pa + ps, np.abs(pg - pe), pg, pe)
        for name, parts in _coherence_cases(pops, rng).items():
            arrays = [np.full(pops.shape[1], part) if np.ndim(part) == 0 else part
                      for part in parts]
            assert np.array_equal(_bits(_measure_bounds(*intervals, *parts)),
                                  _bits(_measure_bounds(*intervals, *arrays))), name

    @pytest.mark.parametrize("state", [
        XState.excited(), XState.antisymmetric(), XState.bell_ge(),
        XState(0.1, 0.4, 0.3, 0.2, coh_as=0.2 - 0.25j),
    ], ids=["E", "A", "bell-GE", "coh_as only"])
    def test_entanglement_reports_the_branches(self, state):
        value = entanglement(state)
        entries = (*state.populations(), abs(state.coh_ge), state.coh_as.real, state.coh_as.imag)
        expected = _reference_branches(*map(np.float64, entries))
        assert _bits([value.k1, value.k2, value.n1, value.n2]).tolist() == _bits(expected).tolist()

    def test_named_states_keep_their_concurrence_branches(self):
        branches = [(entanglement(state).k1, entanglement(state).k2) for state in
                    (XState.excited(), XState.antisymmetric(), XState.bell_ge())]
        assert _bits(branches).tolist() == _bits([(0.0, 0.0), (1.0, -1.0), (-1.0, 1.0)]).tolist()


class TestNegativity:
    def test_maximally_entangled(self):
        assert negativity(XState.antisymmetric()) == pytest.approx(1.0)
        assert negativity(XState.bell_ge()) == pytest.approx(1.0)

    def test_partial_transpose_oracle(self, rng):
        worst = 0.0
        for _ in range(500):
            state = random_xstate(rng)
            worst = max(
                worst,
                abs(
                    negativity(state)
                    - partial_transpose_negativity(to_product_basis(state))
                ),
            )
        assert worst < 1e-10

    def test_bounds(self, rng):
        for _ in range(500):
            value = entanglement(random_xstate(rng))
            assert 0.0 <= value.concurrence <= 1.0
            assert 0.0 <= value.negativity <= 1.0

    def test_pure_states_match_concurrence(self, rng):
        for _ in range(300):
            state = random_xstate(rng, pure=True)
            assert abs(concurrence(state) - negativity(state)) < 1e-12


class TestClosedFormMeasures:
    def test_reduces_to_state_terms_at_unit_xi(self, rng):
        for _ in range(50):
            state = random_ge_coherent_state(rng)
            value = entanglement(state)
            k1, k2 = closed_form_concurrence(state, 0.3, 1.0)
            n1, n2 = closed_form_negativity(state, 0.3, 1.0)
            assert k1 == pytest.approx(value.k1, abs=1e-13)
            assert k2 == pytest.approx(value.k2, abs=1e-13)
            assert n1 == pytest.approx(value.n1, abs=1e-13)
            assert n2 == pytest.approx(value.n2, abs=1e-13)

    def test_excited_independent_baths_never_entangles(self):
        for xi in np.linspace(0.01, 1.0, 40):
            k1, k2 = closed_form_concurrence(XState.excited(), 0.0, xi)
            assert k1 == pytest.approx(-2.0 * xi * (1.0 - xi), abs=1e-12)
            assert k2 == pytest.approx(xi * (2.0 * xi - 2.0), abs=1e-12)
            assert max(0.0, k1, k2) == 0.0

    def test_matches_propagate_then_measure(self, rng):
        worst_k = worst_n = 0.0
        for _ in range(400):
            state = random_ge_coherent_state(rng)
            lam = rng.uniform(-0.95, 0.95)
            xi = rng.uniform(0.01, 1.0)
            value = entanglement(closed_form_state(state, lam, xi))
            k1, k2 = closed_form_concurrence(state, lam, xi)
            n1, n2 = closed_form_negativity(state, lam, xi)
            worst_k = max(worst_k, abs(k1 - value.k1), abs(k2 - value.k2))
            worst_n = max(worst_n, abs(n1 - value.n1), abs(n2 - value.n2))
        assert worst_k < 1e-12
        assert worst_n < 1e-12

    def test_pure_initial_measures_agree_at_start(self, rng):
        for _ in range(100):
            state = random_xstate(rng, pure=True)
            if abs(state.coh_as) > 0.0:
                continue  # closed form requires the G-E block
            k1, k2 = closed_form_concurrence(state, 0.2, 1.0)
            n1, n2 = closed_form_negativity(state, 0.2, 1.0)
            conc = max(0.0, k1, k2)
            neg = max(0.0, -2.0 * n1) + max(0.0, -2.0 * n2)
            assert abs(conc - neg) < 1e-12

    def test_requires_vanishing_as_coherence(self):
        state = XState(0.0, 0.5, 0.5, 0.0, coh_as=0.3)
        with pytest.raises(AssumptionViolatedError):
            closed_form_concurrence(state, 0.0, 0.5)

    def test_singular_band_rejected(self):
        with pytest.raises(LambdaSingularError):
            closed_form_negativity(XState.excited(), 1.0 - 1e-9, 0.5)


class TestSuddenDeath:
    def test_examples(self):
        assert sudden_death_condition(e=0.5, g=0.0, a=0.5, s=0.0) is True
        assert sudden_death_condition(e=0.0, g=0.0, a=1.0, s=0.0) is False
        assert sudden_death_condition(e=1.0, g=0.0, a=0.0, s=0.0) is False

    def test_validates_simplex(self):
        with pytest.raises(ValueError):
            sudden_death_condition(0.5, 0.5, 0.5, 0.5)

    def test_predicts_finite_root(self, rng):
        # finite death time (by root-finding) occurs iff the condition holds;
        # a batch of Dirichlet draws equals as many single draws
        weights = rng.dirichlet(np.ones(4), size=10_000)
        expected = [sudden_death_condition(e, g, a, s) for g, a, s, e in weights]
        g, a, s, e = weights.T
        roots = lifetime_by_bisection(e, g, a, s, 1.0, 1.0)
        assert ((0.0 < roots) & (roots < math.inf)).tolist() == expected
        # the array bisection gives each draw the bits of its own scalar call
        singles = [lifetime_by_bisection(e, g, a, s, 1.0, 1.0) for g, a, s, e in weights[:100]]
        assert roots[:100].tobytes() == np.array(singles).tobytes()


class TestLifetime:
    def test_reference_value(self):
        value = lifetime(e=0.5, g=0.0, a=0.5, s=0.0, gray=1.0, g0=1.0)
        assert value == pytest.approx(0.23206672112596227, rel=1e-12)

    def test_matches_bisection(self, rng):
        count = 0
        worst = 0.0
        while count < 200:
            g, a, s, e = rng.dirichlet(np.ones(4))
            if not sudden_death_condition(e, g, a, s):
                continue
            count += 1
            formula = lifetime(e, g, a, s, 1.0, 1.0)
            oracle = lifetime_by_bisection(e, g, a, s, 1.0, 1.0)
            worst = max(worst, abs(formula - oracle) / oracle)
        assert worst < 1e-10

    def test_gray_factor_rescales_exactly(self):
        base = lifetime(0.5, 0.0, 0.5, 0.0, gray=1.0, g0=1.0)
        assert lifetime(0.5, 0.0, 0.5, 0.0, gray=0.5, g0=1.0) == 2.0 * base

    def test_asymptotic_decay_is_infinite(self):
        assert lifetime(e=0.0, g=0.0, a=1.0, s=0.0, gray=1.0, g0=1.0) == math.inf

    def test_never_entangled_is_zero(self):
        assert lifetime(e=1.0, g=0.0, a=0.0, s=0.0, gray=1.0, g0=1.0) == 0.0
        assert lifetime(e=1.0, g=0.0, a=0.0, s=0.0, gray=0.0, g0=1.0) == 0.0

    def test_frozen_entangled_raises(self):
        with pytest.raises(FrozenDynamicsError):
            lifetime(e=0.5, g=0.0, a=0.5, s=0.0, gray=0.0, g0=1.0)

    @pytest.mark.parametrize(
        "gray, g0, match",
        [(1.0, math.nan, "gamma0"), (1.0, math.inf, "gamma0"), (1.0, 0.0, "gamma0"),
         (1.0, -1.0, "gamma0"), (math.nan, 1.0, "gray"), (-0.1, 1.0, "gray"),
         (2.0, 1.0, "gray"), (math.inf, 1.0, "gray")],
    )
    def test_bad_rates_raise(self, gray, g0, match):
        with pytest.raises(ValueError, match=match):
            lifetime(0.5, 0.0, 0.4, 0.1, gray, g0)


class TestLifetimeBisection:
    def test_array_bisection_equals_scalar_loop(self, rng):
        weights = []
        while len(weights) < 300:
            g, a, s, e = rng.dirichlet(np.ones(4))
            if sudden_death_condition(e, g, a, s):
                weights.append((e, g, a, s))
        # Never entangled (0.0), and entangled as xi -> 0 (inf).
        weights += [(1.0, 0.0, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25), (0.0, 0.0, 1.0, 0.0),
                    (0.1, 0.0, 0.9, 0.0)]
        for gray, g0 in ((1.0, 1.0), (0.3, 2.5)):
            e, g, a, s = np.array(weights).T
            times = lifetime_by_bisection(e, g, a, s, gray, g0)
            expected = [scalar_lifetime_by_bisection(*w, gray, g0) for w in weights]
            assert times.shape == (304,)
            assert times.tolist() == expected
            assert times[-4:].tolist() == [0.0, 0.0, math.inf, math.inf]

    def test_scalar_call_returns_a_float(self):
        value = lifetime_by_bisection(0.5, 0.0, 0.5, 0.0, 1.0, 1.0)
        assert type(value) is float
        assert value == scalar_lifetime_by_bisection(0.5, 0.0, 0.5, 0.0, 1.0, 1.0)
        assert type(lifetime_by_bisection(1.0, 0.0, 0.0, 0.0, 1.0, 1.0)) is float

    def test_weights_broadcast(self):
        a = np.array([[0.5], [0.4]])
        times = lifetime_by_bisection(0.5, 0.0, a, 0.5 - a, 1.0, 1.0)
        assert times.shape == (2, 1)
        assert times[1, 0] == lifetime_by_bisection(0.5, 0.0, 0.4, 0.1, 1.0, 1.0)

    @pytest.mark.parametrize(
        "weights, match",
        [((0.5, 0.2, math.inf, 0.3), "finite"), ((-0.5, 0.2, 0.9, 0.3), ">= 0"),
         ((math.nan, 0.2, 0.3, 0.5), "finite"), ((0.5, 0.2, 0.3, 0.5), "sum to 1")],
    )
    def test_bad_weights_raise(self, weights, match):
        with pytest.raises(ValueError, match=match):
            lifetime_by_bisection(*weights, 1.0, 1.0)
        e, g, a, s = np.array([(0.5, 0.0, 0.5, 0.0), (0.5, 0.0, 0.5, 0.0), weights]).T
        with pytest.raises(ValueError, match=f"entry 2: .*{match}"):
            lifetime_by_bisection(e, g, a, s, 1.0, 1.0)

    @pytest.mark.parametrize(
        "gray, g0, match",
        [(1.0, math.nan, "gamma0"), (1.0, math.inf, "gamma0"), (1.0, 0.0, "gamma0"),
         (1.0, -1.0, "gamma0"), (math.nan, 1.0, "gray"), (0.0, 1.0, r"\(0, 1\]"),
         (-0.1, 1.0, "gray"), (2.0, 1.0, "gray"), (math.inf, 1.0, "gray")],
    )
    def test_bad_rates_raise(self, gray, g0, match):
        with pytest.raises(ValueError, match=match):
            lifetime_by_bisection(0.5, 0.0, 0.4, 0.1, gray, g0)
        with pytest.raises(ValueError, match=match):
            lifetime_by_bisection(np.array([0.5, 0.5]), 0.0, 0.4, 0.1, gray, g0)

    def test_non_finite_weights_fail_the_lifetime_checks(self):
        with pytest.raises(ValueError, match="finite"):
            lifetime(math.nan, 0.2, 0.3, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            sudden_death_condition(math.nan, 0.2, 0.3, 0.5)
        with pytest.raises(ValueError, match="finite"):
            sudden_death_condition(0.5, 0.2, math.inf, 0.3)


class TestBisect:
    """The one bisection kernel behind lifetime_by_bisection, detect_events,
    generation_reach and thermal_generation_threshold."""

    @staticmethod
    def recorded(moves_hi, calls):
        def wrapped(mid, k):
            calls.append(k.tolist())
            return moves_hi(mid, k)
        return wrapped

    def test_step_without_done_ends_on_adjacent_floats(self):
        steps, calls = np.array([0.3, 2.2]), []
        lo, hi = _bisect(self.recorded(lambda mid, k: mid >= steps[k], calls), [0.0, 1.0],
                         [1.0, 3.0], lambda lo, hi: np.zeros(lo.shape, dtype=bool))
        assert len(calls) < 100  # well before the cap of 200 halvings
        assert np.all(lo < steps) and np.all(steps <= hi)
        assert np.array_equal(np.nextafter(lo, np.inf), hi)

    def test_one_call_per_level_on_open_brackets_only(self):
        calls = []
        lo, hi = _bisect(self.recorded(lambda mid, k: np.ones(k.size, dtype=bool), calls),
                         [0.0, 0.0, 0.0], [1.0, 0.25, 0.5], lambda lo, hi: hi - lo <= 1 / 16)
        assert calls == [[0, 1, 2], [0, 1, 2], [0, 2], [0]]
        assert lo.tolist() == [0.0, 0.0, 0.0] and hi.tolist() == [1 / 16] * 3

    def test_bracket_closed_at_the_start_is_never_evaluated(self):
        # Bracket 1 is done at the start, and bracket 2's midpoint is its ends.
        calls = []
        lo, hi = _bisect(self.recorded(lambda mid, k: mid > 0.3, calls),
                         [0.0, 0.0, 2.0], [1.0, 1e-3, 2.0], lambda lo, hi: hi - lo <= 1e-2)
        assert calls and all(k == [0] for k in calls)
        assert lo[1:].tolist() == [0.0, 2.0] and hi[1:].tolist() == [1e-3, 2.0]

    def test_stops_after_200_halvings(self):
        calls = []
        lo, hi = _bisect(self.recorded(lambda mid, k: mid >= 1e-300, calls), [0.0], [1.0],
                         lambda lo, hi: np.zeros(lo.shape, dtype=bool))
        assert len(calls) == 200
        assert lo.tolist() == [0.0] and hi.tolist() == [2.0**-200]


class TestDetectEvents:
    def test_frozen_dynamics_has_no_events(self):
        rates = build_rate_matrix(
            vacuum_coefficients(FieldBathConfig.from_ratios(1.5, 1.0))
        )
        bell = XState.bell_ge()
        traj = eigen_trajectory(bell, rates, np.linspace(0.0, 100.0, 50))
        events = detect_events(traj, "concurrence")
        assert events.birth_times == ()
        assert events.death_times == ()
        assert events.final_value == pytest.approx(1.0)

    def test_single_death_matches_lifetime(self):
        initial = XState.diagonal(e=0.5, g=0.0, a=0.5, s=0.0)
        rates = build_rate_matrix(GklsCoefficients(0.25, 0.25, 0.0, 0.0))
        traj = eigen_trajectory(initial, rates, np.linspace(0.0, 5.0, 120))
        events = detect_events(traj, "concurrence")
        assert len(events.death_times) == 1
        assert events.birth_times == ()
        assert events.death_times[0] == pytest.approx(
            lifetime(0.5, 0.0, 0.5, 0.0, 1.0, 1.0), abs=1e-6
        )

    def test_late_death_ends_on_adjacent_floats(self):
        # Past tau = 2**23 adjacent floats are farther apart than the 1e-9
        # bisection width; the refinement stops on them instead.
        traj = closed_form_trajectory(
            XState.diagonal(0.3, 0.05, 0.6, 0.05), 0.0, 1e-8, 1.0, np.linspace(0.0, 1e9, 50)
        )
        events = detect_events(traj, "concurrence")
        expected = lifetime(0.3, 0.05, 0.6, 0.05, 1e-8, 1.0)
        assert expected > 2.0**23
        assert events.death_times == pytest.approx((expected,), rel=1e-12)

    def test_birth_at_subwavelength_separation(self):
        lam = spatial_factor(1.0, 0.5, 1.0)
        traj = closed_form_trajectory(
            XState.excited(), lam, 1.0, 1.0, np.linspace(0.0, 15.0, 400)
        )
        events = detect_events(traj, "concurrence")
        assert len(events.birth_times) >= 1
        assert events.final_value > 0.0

    def test_threshold_crossings(self):
        initial = XState.diagonal(e=0.5, g=0.0, a=0.5, s=0.0)
        rates = build_rate_matrix(GklsCoefficients(0.25, 0.25, 0.0, 0.0))
        traj = eigen_trajectory(initial, rates, np.linspace(0.0, 5.0, 200))
        events = detect_events(traj, "concurrence", threshold=0.05)
        assert len(events.death_times) == 1
        pops, coh_ge, coh_as = traj.at(np.array(events.death_times))
        crossing = XState(*pops[0], coh_ge=coh_ge[0], coh_as=coh_as[0])
        assert concurrence(crossing) == pytest.approx(0.05, abs=1e-6)

    @pytest.mark.parametrize("route", ["closed_form", "eigen"])
    def test_brackets_refine_together_as_one_bracket_bisections(self, route):
        # A birth and a death, refined in one array bisection: each level is
        # one evaluator call over the brackets still open, and each crossing
        # equals the scalar one-bracket bisection bit for bit.
        initial = XState.excited()
        if route == "closed_form":
            lam = spatial_factor(1.0, 1.0, 1.0)
            traj = closed_form_trajectory(initial, lam, 1.0, 1.0, np.linspace(0.0, 15.0, 400))
        else:
            rates = build_rate_matrix(coefficients(FieldBathConfig.from_ratios(0.5, 0.5, 0.1)))
            traj = eigen_trajectory(initial, rates, np.linspace(0.0, 40.0, 400))
        assert traj.method == route
        calls = []
        counted = dataclasses.replace(traj, at=lambda t: calls.append(len(t)) or traj.at(t))
        events = detect_events(counted, "concurrence", threshold=0.01)
        assert len(events.birth_times) == len(events.death_times) == 1
        assert calls[0] == 2 and len(calls) < 40

        def state_at(t):
            pops, coh_ge, coh_as = traj.at(np.array([t]))
            return XState(*pops[0], coh_ge=coh_ge[0], coh_as=coh_as[0])

        alive = [concurrence(state) > 0.01 for state in traj.states]
        expected = [
            scalar_crossing(state_at, concurrence, 0.01, traj.taus[k - 1], traj.taus[k])
            for k in range(1, len(traj)) if alive[k] != alive[k - 1]
        ]
        assert sorted(events.birth_times + events.death_times) == expected

    @pytest.mark.xfail(strict=True, reason=(
        "V·V^-1 roundoff in pop_g at tau -> 0 on the eigen route: sample 0 reads "
        "concurrence 7.05e-16 and a death is reported at 3.03e-8 (ROADMAP item 5)"))
    def test_eigen_route_reports_no_event_for_a_never_entangled_state(self):
        # E is unentangled at tau = 0, and a 40-digit mpmath expm gives
        # k1 <= 0 (k1 = -7.28e-10 at tau = 1e-9) on all of linspace(0, 10, 201).
        rates = build_rate_matrix(coefficients(FieldBathConfig.from_ratios(0.5, 0.3, 0.2)))
        traj = eigen_trajectory(XState.excited(), rates, np.linspace(0.0, 10.0, 200))
        assert traj.method == "eigen"
        events = detect_events(traj, "concurrence")
        assert events.birth_times == () and events.death_times == ()

    def test_rejects_negative_threshold(self):
        rates = build_rate_matrix(GklsCoefficients(0.25, 0.25, 0.0, 0.0))
        traj = eigen_trajectory(XState.excited(), rates, np.linspace(0.0, 1.0, 5))
        with pytest.raises(ValueError):
            detect_events(traj, "concurrence", threshold=-0.1)
        for threshold in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="threshold must be finite"):
                detect_events(traj, "concurrence", threshold=threshold)
        with pytest.raises(ValueError):
            detect_events(traj, "fidelity")
