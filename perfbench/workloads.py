"""Seeded operation batches for the three benchmark workloads.

Each workload is a fixed list of op slots. A slot fixes what drives the cost
of its op (grid or trajectory size, propagation route, bath, mass class); the
seed draws every other parameter inside the slot's stratum and the order of
the batch. Different seeds therefore give different inputs with nearly the
same amount of work, which keeps the run-to-run spread small.

The program only ever sees the generated inputs: CLI argument lists for the
`cli.main` ops, plain numbers for the headline calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NAMED_STATES = {
    "E": (0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
    "G": (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    "A": (0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    "S": (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    "bell-GE": (0.5, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.0),
}

# Cells with T/omega below this and omega*L*g below SLOW_CORNER_XG have
# generators whose eigendecomposition fails its residual check, so every time
# point goes through scipy's expm: 60-350 ms instead of ~6 ms. Drawn at random
# they would dominate the spread of every timing, so random grids stay out of
# that corner and a fixed anchor op (identical for every seed) keeps it in the
# measured work.
SLOW_CORNER_T = 0.06
SLOW_CORNER_XG = 0.08
THERMAL_ANCHOR = dict(mass=0.9, temps=(0.027, 0.03, 2, "linear"),
                      seps=(0.065, 0.085, 3, "linear"), initial="E")


@dataclass
class Op:
    """One user-visible call: a CLI command or one headline library call."""

    slot: int
    kind: str
    params: dict
    argv: list[str] = field(default_factory=list)
    # Ops of one kind and route share their lazy set-up (scipy's expm is
    # imported on first use); the cheapest of each is the warm-up op.
    route: str = ""
    cost: float = 0.0


def gray(mass: float) -> float:
    return math.sqrt(1.0 - mass * mass) if mass < 1.0 else 0.0


def _num(value: float) -> str:
    return repr(float(value))


def random_x_state(rng: np.random.Generator) -> tuple[float, ...]:
    """A valid X state as the 8 raw CLI values (coupled basis).

    Drawn in the product basis (Dirichlet diagonal, anti-diagonal entries
    inside the positivity bound) and converted, so positivity holds by
    construction.
    """
    d00, d01, d10, d11 = rng.dirichlet(np.ones(4))
    c03 = 0.95 * math.sqrt(d00 * d11) * rng.random() * np.exp(2j * math.pi * rng.random())
    c12 = 0.95 * math.sqrt(d01 * d10) * rng.random() * np.exp(2j * math.pi * rng.random())
    half = 0.5 * (d01 + d10)
    return (
        float(d00),
        float(half - c12.real),
        float(half + c12.real),
        float(d11),
        float(c03.real),
        float(c03.imag),
        float(0.5 * (d10 - d01)),
        float(-c12.imag),
    )


def draw_initial(rng: np.random.Generator, kind: str) -> tuple[str, tuple]:
    """(CLI --initial text, 8 raw values): a named state, diag or random X."""
    if kind in NAMED_STATES:
        return kind, NAMED_STATES[kind]
    if kind == "diag":
        g, a, s, e = (float(x) for x in rng.dirichlet(np.ones(4)))
        return f"diag:{_num(e)},{_num(g)},{_num(a)},{_num(s)}", (g, a, s, e, 0.0, 0.0, 0.0, 0.0)
    raw = random_x_state(rng)
    return ",".join(_num(v) for v in raw), raw


def draw_mass(rng: np.random.Generator, mass_class: str) -> float:
    if mass_class == "massless":
        return 0.0
    if mass_class == "general":
        return float(rng.uniform(0.1, 0.95))
    if mass_class == "paper":
        return 0.995
    if mass_class == "near":
        return float(rng.uniform(0.99, 0.9995))
    if mass_class == "frozen":
        return 1.0 if rng.random() < 0.25 else float(rng.uniform(1.0, 1.2))
    raise ValueError(mass_class)


def _axis_args(prefix: str, lo: float, hi: float, count: int, scale: str) -> list[str]:
    return [f"--{prefix}-min", _num(lo), f"--{prefix}-max", _num(hi),
            f"--{prefix}-count", str(count), f"--{prefix}-scale", scale]


# ---------------------------------------------------------------- figure-maps

# (tau count, sep count, bath, mass class, tau scale, sep axis kind, initial)
# The initial state is fixed per slot too: CSV formatting is most of a map's
# cost and depends on the digits printed (a state that never entangles prints
# zeros). Random diag and X states, whose zero counts vary by seed, sit in
# slots far from the median and 90th-percentile ops.
_TIME_SEP_SLOTS = [
    (40, 40, "vacuum", "massless", "linear", "linear", "diag"),
    (40, 200, "vacuum", "paper", "log", "log-band", "bell-GE"),
    (200, 40, "thermal", "general", "linear", "linear", "E"),
    (60, 120, "vacuum", "general", "log", "log-band", "x"),
    (120, 60, "vacuum", "frozen", "linear", "linear", "x"),
    (80, 80, "thermal", "paper", "log", "log-band", "E"),
    (100, 60, "vacuum", "near", "linear", "log-band", "E"),
    (100, 100, "vacuum", "near", "log", "linear", "A"),
    (150, 100, "vacuum", "paper", "linear", "linear", "E"),
    (100, 150, "thermal", "massless", "log", "linear", "G"),
    (160, 160, "vacuum", "general", "linear", "linear", "A"),
    (200, 200, "vacuum", "paper", "linear", "linear", "bell-GE"),
    (50, 180, "thermal", "frozen", "log", "log-band", "S"),
]

# (steps, route, mass class, initial)
_EVOLVE_SLOTS = [
    (4000, "closed_form", "paper", "E"),
    (1000, "closed_form", "general", "x"),
    (200, "closed_form", "massless", "A"),
    (3000, "eigen_thermal", "general", "x"),
    (600, "eigen_thermal", "paper", "G"),
    (1000, "eigen_band", "general", "bell-GE"),
    (300, "eigen_band", "near", "E"),
    (1500, "frozen", "frozen", "diag"),
    (300, "frozen", "frozen", "S"),
]


def _time_sep_op(rng, slot, spec) -> Op:
    n_tau, n_sep, bath, mass_class, tau_scale, sep_kind, initial = spec
    n_tau = int(np.clip(n_tau + rng.integers(-3, 4), 40, 200))
    n_sep = int(np.clip(n_sep + rng.integers(-3, 4), 40, 200))
    mass = draw_mass(rng, mass_class)
    g = gray(mass)
    temp = float(rng.uniform(0.05, 0.4)) if bath == "thermal" else None
    text, raw = draw_initial(rng, initial)
    # Band columns cost ~250 us per time point (the eigen route falls back to
    # expm there, and expm's cost grows with log(tau)), so the ranges that set
    # their number and their times are kept narrow.
    if tau_scale == "log":
        tau_lo, tau_hi = float(rng.uniform(1e-3, 0.1)), float(rng.uniform(50.0, 150.0))
    else:
        tau_lo, tau_hi = float(rng.uniform(0.01, 0.5)), float(rng.uniform(20.0, 60.0))
    if sep_kind == "log-band":
        # omega*L*g from ~1e-4 (1 - |lambda| = 1.7e-9, deep in the closed
        # form's |lambda| -> 1 band) through the band edge at 2.4e-3 to ~10.
        lo, hi = float(rng.uniform(1e-4, 1.1e-4)), float(rng.uniform(10.0, 11.0))
        sep_lo, sep_hi = (lo / g, hi / g) if g > 0.0 else (lo, hi)
        sep_scale = "log"
    else:
        # omega*L*g from 0.05 up: the closed form (vacuum) or eigen route.
        lo, hi = float(rng.uniform(0.05, 1.0)), float(rng.uniform(3.0, 30.0))
        sep_lo, sep_hi = (lo / g, hi / g) if g > 0.0 else (lo, hi)
        sep_scale = "linear"
    argv = ["map", "time-sep", "--mass-ratio", _num(mass), "--initial", text]
    if temp is not None:
        argv += ["--temp-ratio", _num(temp)]
    argv += _axis_args("tau", tau_lo, tau_hi, n_tau, tau_scale)
    argv += _axis_args("sep", sep_lo, sep_hi, n_sep, sep_scale)
    params = dict(mass=mass, temp=temp, initial=raw, band=sep_kind == "log-band",
                  tau=(tau_lo, tau_hi, n_tau, tau_scale), sep=(sep_lo, sep_hi, n_sep, sep_scale))
    route = "frozen" if mass_class == "frozen" else f"{bath}-{sep_kind}"
    return Op(slot, "map-time-sep", params, argv, route, cost=n_tau * n_sep)


def _evolve_op(rng, slot, spec) -> Op:
    steps, route, mass_class, initial = spec
    steps = int(np.clip(steps + rng.integers(-20, 21), 200, 4000))
    mass = draw_mass(rng, mass_class)
    g = gray(mass)
    temp = float(rng.uniform(0.05, 0.4)) if route == "eigen_thermal" else None
    if route == "eigen_band":
        # 1 - |lambda| in [2.4e-7, 9.6e-7]: inside the band, eigen route.
        xg = float(rng.uniform(1.2e-3, 2.4e-3))
    else:
        xg = float(np.exp(rng.uniform(math.log(0.01), math.log(30.0))))
    sep = xg / g if g > 0.0 else xg
    tmax = float(rng.uniform(20.0, 40.0)) / max(g, 0.1)
    text, raw = draw_initial(rng, initial)
    argv = ["evolve", "--initial", text, "--mass-ratio", _num(mass), "--sep", _num(sep),
            "--tmax", _num(tmax), "--steps", str(steps)]
    if temp is not None:
        argv += ["--temp-ratio", _num(temp)]
    params = dict(mass=mass, temp=temp, sep=sep, tmax=tmax, steps=steps, initial=raw)
    return Op(slot, "evolve", params, argv, route, cost=steps)


def figure_maps(rng: np.random.Generator) -> list[Op]:
    ops = [_time_sep_op(rng, 0, s) for s in _TIME_SEP_SLOTS]
    ops += [_evolve_op(rng, 0, s) for s in _EVOLVE_SLOTS]
    return _number(ops, rng)


# --------------------------------------------------------------- thermal-maps

# (temperature count, separation count, mass class, initial)
# Three grids of 16 cells sit at the median op and two of 30 at the 90th
# percentile, so those percentiles do not jump between grid sizes by seed.
_TEMP_SEP_SLOTS = [
    (2, 3, "massless", "E"), (2, 5, "general", "bell-GE"), (2, 8, "paper", "x"),
    (3, 3, "near", "E"), (3, 4, "general", "x"), (4, 4, "massless", "bell-GE"),
    (3, 8, "paper", "E"), (4, 3, "general", "bell-GE"), (4, 5, "near", "x"),
    (4, 7, "massless", "E"), (5, 3, "paper", "x"), (5, 4, "general", "E"),
    (5, 6, "near", "bell-GE"), (5, 6, "general", "x"), (2, 4, "paper", "bell-GE"),
    (3, 5, "general", "E"), (4, 4, "massless", "x"), (4, 6, "paper", "E"),
    (5, 5, "general", "bell-GE"), (2, 6, "near", "E"),
]


def _temp_sep_op(rng, slot, spec) -> Op:
    n_temp, n_sep, mass_class, initial = spec
    mass = min(draw_mass(rng, mass_class), 0.995)
    g = gray(mass)
    t_lo = float(np.exp(rng.uniform(math.log(0.02), math.log(0.2))))
    t_hi = min(0.4, t_lo + float(rng.uniform(0.05, 0.25)))
    s_lo = float(np.exp(rng.uniform(math.log(0.05), math.log(2.0))))
    if t_lo < SLOW_CORNER_T:
        s_lo = max(s_lo, SLOW_CORNER_XG / g)
    s_hi = float(rng.uniform(max(3.0, 2.0 * s_lo), 20.0))
    t_scale = "log" if rng.random() < 0.5 else "linear"
    s_scale = "log" if rng.random() < 0.5 else "linear"
    text, raw = draw_initial(rng, initial)
    return _temp_sep(slot, mass, (t_lo, t_hi, n_temp, t_scale), (s_lo, s_hi, n_sep, s_scale),
                     text, raw, "grid")


def _temp_sep(slot, mass, temps, seps, text, raw, route) -> Op:
    argv = ["map", "temp-sep", "--mass-ratio", _num(mass), "--initial", text]
    argv += _axis_args("temp", *temps)
    argv += _axis_args("sep", *seps)
    params = dict(mass=mass, initial=raw, temp_axis=temps, sep=seps)
    return Op(slot, "map-temp-sep", params, argv, route, cost=temps[2] * seps[2])


def thermal_maps(rng: np.random.Generator) -> list[Op]:
    ops = [_temp_sep_op(rng, 0, s) for s in _TEMP_SEP_SLOTS]
    anchor = THERMAL_ANCHOR
    ops.append(_temp_sep(0, anchor["mass"], anchor["temps"], anchor["seps"],
                         anchor["initial"], NAMED_STATES[anchor["initial"]], "slow-corner"))
    return _number(ops, rng)


# ------------------------------------------------------------------ headlines

def _lifetime_op(rng, slot) -> Op:
    while True:
        g, a, s, e = (float(x) for x in rng.dirichlet(np.ones(4)))
        gap2 = (a - s) ** 2
        # Strict sudden-death condition with margin, so the death time is
        # finite and well away from 0.
        if 4.0 * e * g + 1e-3 < gap2 < 4.0 * e - 1e-3:
            break
    mass = float(rng.uniform(0.0, 0.995))
    # omega*L*g = pi puts the spatial factor at 0: independent baths.
    sep = math.pi / gray(mass)
    # 4e - (a-s)^2 >= 1e-3 bounds the death time by ln(4e3)/g < 10/g.
    params = dict(mass=mass, sep=sep, e=e, g=g, a=a, s=s, tmax=10.0 / gray(mass), samples=400)
    return Op(slot, "lifetime", params)


def headlines(rng: np.random.Generator) -> list[Op]:
    ef_mass = 0.995 if rng.random() < 0.5 else float(rng.uniform(0.5, 0.995))
    threshold_mass = float(rng.uniform(0.0, 0.995))
    verify_seed = int(rng.integers(0, 2**31 - 1))
    ops = [
        _lifetime_op(rng, 0),
        _lifetime_op(rng, 0),
        Op(0, "enlargement", dict(mass=ef_mass)),
        Op(0, "threshold", dict(mass=threshold_mass)),
        Op(0, "verify", dict(seed=verify_seed), ["verify", "--seed", str(verify_seed)]),
    ]
    return _number(ops, rng)


def _number(ops: list[Op], rng: np.random.Generator) -> list[Op]:
    """Shuffle the batch and number its ops in run order."""
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    for i, op in enumerate(ops):
        op.slot = i
    return ops


WORKLOADS = {
    "figure-maps": figure_maps,
    "thermal-maps": thermal_maps,
    "headlines": headlines,
}


def build(workload: str, seed: int) -> list[Op]:
    """The workload's batch of ops for this seed."""
    return WORKLOADS[workload](np.random.default_rng([seed, 0x6d617373]))


def warmup_ops(ops: list[Op]) -> list[Op]:
    """The cheapest op of each kind and route, run once before any timing."""
    cheapest: dict[tuple[str, str], Op] = {}
    for op in ops:
        key = (op.kind, op.route)
        if key not in cheapest or op.cost < cheapest[key].cost:
            cheapest[key] = op
    return list(cheapest.values())
