"""The search workspace: the in-place kernels keep every bit of the
allocating formulas on every route, public results never share memory with
each other or with a workspace, and a warm headline search stays within its
page-fault budget."""

import sys

import numpy as np
import pytest

from massbath import experiments
from massbath.experiments import _propagated_measures, _workspace, _zoom
from massbath.field_bath import FieldBathConfig, GklsCoefficients, thermal_coefficients
from massbath.measures import BOTH
from massbath.xstate import (
    CLOSED_FORM,
    EIGEN,
    EXPM,
    FROZEN,
    EigenPropagator,
    RateStack,
    XState,
    _cascade,
    _vacuum_rates,
    build_rate_matrix,
    random_xstate,
)


def _thermal(mass, sep, temp):
    return build_rate_matrix(thermal_coefficients(FieldBathConfig.from_ratios(mass, sep, temp)))


def _stack(*stacks: RateStack) -> RateStack:
    return RateStack(*(np.concatenate(parts) for parts in zip(*stacks)))


# One stack per route, and all four in one stack (each route then fills its
# own part of the planes). lam = +-1 stops one cascade channel (d_a or d_s
# = 0), where _decay's span falls back to t.
ROUTE_STACKS = {
    FROZEN: RateStack.of([build_rate_matrix(GklsCoefficients(0.0, 0.0, 0.0, 0.0))] * 2),
    CLOSED_FORM: _vacuum_rates([1.0, -1.0, 0.3, 1.0 - 1e-9]),
    EIGEN: RateStack.of([_thermal(0.5, 0.7, 0.3), _thermal(0.0, 3.0, 0.1)]),
    EXPM: RateStack.of([_thermal(0.9, 0.07, 0.028)]),
}
ROUTE_STACKS["mixed"] = _stack(*ROUTE_STACKS.values())

# Zero coherences (E), a real G-E coherence (bell-GE), a purely imaginary
# A-S coherence, and seeded random X states with both coherences complex.
STATES = {
    "E": XState.excited(),
    "bell-GE": XState.bell_ge(),
    "imaginary-AS": XState(0.1, 0.4, 0.4, 0.1, coh_as=0.2j),
    **{f"random-{seed}": random_xstate(np.random.default_rng(seed)) for seed in (3, 41)},
}


def _plain_cascade(pops0, d_a, d_s, t):
    """The cascade populations (g, a, s, e) by allocating expressions."""
    g0, a0, s0, e0 = pops0

    def decay(rate, t):
        live = rate > 0.0
        span = np.expm1(-rate * t) / -np.where(live, rate, 1.0)
        return np.exp(-rate * t), np.where(live, span, t)

    fade_a, span_a = decay(d_a, t)
    fade_s, span_s = decay(d_s, t)
    pop_a = (e0 * d_a * span_s + a0) * fade_a
    pop_s = (e0 * d_s * span_a + s0) * fade_s
    pop_e = e0 * fade_a * fade_s
    return (g0 + a0 + s0 + e0) - pop_a - pop_s - pop_e, pop_a, pop_s, pop_e


def _plain_measures(pops, abs_ge, re_as, im_as):
    """Concurrence and negativity by allocating expressions."""
    pop_g, pop_a, pop_s, pop_e = pops
    total, diff, gap = pop_a + pop_s, pop_a - pop_s, pop_g - pop_e
    k1 = np.hypot(diff, 2.0 * im_as) - 2.0 * np.sqrt(np.maximum(pop_g * pop_e, 0.0))
    k2 = 2.0 * abs_ge - np.sqrt(np.maximum(total * total - 4.0 * re_as * re_as, 0.0))
    n1 = 0.5 * (pop_g + pop_e - np.sqrt(diff * diff + 4.0 * im_as * im_as + gap * gap))
    n2 = 0.5 * (pop_a + pop_s - 2.0 * np.hypot(abs_ge, re_as))
    return (np.maximum(0.0, np.maximum(k1, k2)),
            0.0 - 2.0 * (np.minimum(n1, 0.0) + np.minimum(n2, 0.0)))


def _reference(initial, prop, taus):
    """(2, N, S, K) concurrence and negativity at per-cell times taus (N, S,
    K): public populations, coherences faded as arrays, allocating formulas."""
    pops = np.moveaxis(prop.populations(initial.populations(), taus), -1, 0)
    fade_ge = np.exp(-prop.rates.decay_ge[:, None, None] * taus)
    fade_as = np.exp(-prop.rates.decay_as[:, None, None] * taus)
    coh_ge, coh_as = np.abs(initial.coh_ge), initial.coh_as
    return np.array(_plain_measures(pops, coh_ge * fade_ge, coh_as.real * fade_as,
                                    coh_as.imag * fade_as))


@pytest.mark.parametrize("lam", [1.0, -1.0, 0.3, 1.0 - 1e-9])
def test_in_place_cascade_matches_the_allocating_expressions(lam):
    d_a, d_s = np.array([[[1.0 - lam]]]), np.array([[[1.0 + lam]]])
    t = np.array([[[0.0, 1e-9, 0.5, 3.0, 40.0, 1e4]]])
    for name, initial in STATES.items():
        pops0 = initial.populations()
        got = _cascade(pops0, d_a, d_s, t, np.full((4,) + t.shape, np.nan))
        for plane, want in zip(got, _plain_cascade(pops0, d_a, d_s, t)):
            assert np.array_equal(plane, want), name


@pytest.mark.parametrize("route", list(ROUTE_STACKS))
@pytest.mark.parametrize("state", list(STATES))
def test_workspace_measures_match_the_allocating_formulas(route, state):
    initial, prop = STATES[state], EigenPropagator(ROUTE_STACKS[route])
    assert route == "mixed" or set(prop.routes) == {route}
    cells = len(prop.routes)
    grid = np.linspace(0.0, 12.0, 97)
    # A search's first pass (one row per cell), then a zoom's (one row per
    # measure, each cell its own brackets), in one dirty workspace.
    rows = np.broadcast_to(grid, (cells, 1, grid.size))
    scale = np.arange(1.0, cells + 1)[:, None, None]  # each cell its own brackets
    brackets = np.linspace([0.5, 2.0], [1.5, 9.0], 33, axis=-1) * scale
    work = _workspace(len(BOTH), rows.size)
    for chunk in work:
        chunk.fill(np.nan)
    measures = _propagated_measures(initial, prop, BOTH, work)
    for taus in (rows, brackets, rows):
        got = measures(taus)
        assert np.shares_memory(got, work[0])
        want = _reference(initial, prop, taus)
        if taus.shape[1] == 1:
            assert np.array_equal(got, want[:, :, 0])
        else:  # row s holds measure s
            assert np.array_equal(got, want[[0, 1], :, [0, 1]])
        fresh = _propagated_measures(initial, prop, BOTH, _workspace(len(BOTH), taus.size))
        assert np.array_equal(got, fresh(taus))
    for select in [("concurrence",), ("negativity",)]:
        got = _propagated_measures(initial, prop, select, work)(rows)
        assert np.array_equal(got[0], _reference(initial, prop, rows)[BOTH.index(select[0]), :, 0])


class TestFreshResults:
    """Public results own their memory: a later call, with or without a
    workspace anywhere in between, leaves an earlier result as it was."""

    TAUS = np.linspace(0.0, 30.0, 61)

    @staticmethod
    def columns(prop, pops0, taus):
        """(N, ..., K, 4, M): one populations call per column of pops0 (4, M)."""
        return np.stack([prop.populations(p, taus) for p in pops0.T], axis=-1)

    @pytest.fixture(params=list(ROUTE_STACKS))
    def prop(self, request):
        return EigenPropagator(ROUTE_STACKS[request.param])

    def initial_columns(self):
        return np.stack([s.populations() for s in STATES.values()], axis=1)

    def test_consecutive_populations_stay_distinct(self, prop):
        pops0 = self.initial_columns()
        first = prop.populations(pops0[:, 0], self.TAUS)
        kept = first.copy()
        second = prop.populations(pops0[:, 1], 2.0 * self.TAUS)
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)

    def test_stacked_columns_are_each_their_own_call(self, prop):
        # As TestUniformizedExponential stacks its columns, on every route.
        pops0 = self.initial_columns()
        got = self.columns(prop, pops0, self.TAUS)
        for m in range(pops0.shape[1]):
            assert np.array_equal(got[..., m], prop.populations(pops0[:, m], self.TAUS))
        # Per-cell zoom rows (N, S, K) and a log row, likewise.
        cells = len(prop.routes)
        rows = np.linspace([0.5, 3.0], [1.0, 40.0], 33, axis=-1) * np.ones((cells, 1, 1))
        for taus in (rows, np.geomspace(1e-3, 3000.0, 50)):
            got = self.columns(prop, pops0, taus)
            for m in range(pops0.shape[1]):
                assert np.array_equal(got[..., m], prop.populations(pops0[:, m], taus))

    def test_consecutive_evolve_results_stay_distinct(self, prop):
        initial = STATES["random-3"]
        args = (initial.populations(), initial.coh_ge, initial.coh_as)
        first = prop.evolve(*args, self.TAUS)
        kept = [part.copy() for part in first]
        # A search's measures in between run on their own workspace.
        rows = np.broadcast_to(self.TAUS, (len(prop.routes), 1, self.TAUS.size))
        _propagated_measures(initial, prop, BOTH, _workspace(len(BOTH), rows.size))(rows)
        second = prop.evolve(*args, 3.0 * self.TAUS)
        for part, copy, other in zip(first, kept, second):
            assert np.array_equal(part, copy)
            assert not np.shares_memory(part, other)

    def test_zoom_keeps_its_first_values_through_the_vertex_call(self):
        # An evaluator that, like a search's measures, returns views of one
        # buffer that its next call overwrites. The best samples the zoom
        # starts from are the caller's own, as a search keeps them.
        buffer = np.empty(4 * experiments.ZOOM_POINTS)

        def shared(grid):
            out = buffer[:grid.size].reshape(grid.shape)
            np.subtract(1.0, (grid - 0.31) ** 2, out=out)
            out[0] -= 11.0  # peaks at -10, below the vertex value of the third bracket
            out[1] = -grid[1]  # falls: the best sample is the bracket's start
            return out

        def fresh(grid):
            return shared(grid).copy()

        lo, hi = np.array([0.0, 0.2, 0.3, 0.0]), np.array([1.0, 0.35, 0.6, 1.0])
        best = fresh(np.array([[0.5], [0.2], [0.3], [0.5]]))[:, 0]
        best[3] = 5.0  # a best sample above anything the refinement finds
        expected = _zoom(fresh, best.copy(), lo, hi)
        assert np.array_equal(_zoom(shared, best, lo, hi), expected)
        assert expected[0] == pytest.approx(-10.0, abs=1e-15) and expected[1] == -0.2
        assert expected[2] == pytest.approx(1.0, abs=1e-15) and expected[3] == 5.0


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads minor page faults from Linux getrusage")
def test_warm_enlargement_factor_stays_within_its_page_fault_budget():
    import resource

    experiments.enlargement_factor(0.995)  # warm: imports, caches, allocator
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    value = experiments.enlargement_factor(0.995)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert value == 10.0125234864352
    assert faults <= 2000, f"{faults} minor page faults"
