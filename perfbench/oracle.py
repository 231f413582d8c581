"""Independent output checks for every op kind, run outside the timed region.

- time-sep map cells and evolve rows: the state from a 40-digit mpmath matrix
  exponential of the rate generator, and for trajectory rows also the RKF45
  integrator (`integrate_ode`, tol 1e-10), with the scalar measures of that
  state, within 1e-8. The measures are not Lipschitz where a population
  vanishes (sqrt of a product), so a float reference with absolute error
  1e-12, like RKF45 at late times, would move them by up to 1e-7; the
  high-precision state does not;
- temp-sep map cells: a dense-grid maximum over time on a matrix-exponential
  route, with concurrence and negativity from the product-basis formulas,
  within 1e-6 (the sweep's own stability tolerance);
- headline numbers: the paper's identities (enlargement 1/g, m-independent
  thermal threshold, closed-form lifetime) and the `verify` exit code.

Each check returns a `Check`: whether the output passed, the largest
deviation it saw and a message naming the first failure. Deviations that
pass are still reported (for example the ~1e-10 error of the closed form
near the |lambda| -> 1 band edge).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAP_TOL = 1e-8
MAX_OVER_TIME_TOL = 1e-6
LIFETIME_TOL = 1e-8
ENLARGEMENT_TOL = 0.02
THRESHOLD_RANGE = (0.21, 0.25)
THRESHOLD_TOL = 0.002


@dataclass
class Check:
    ok: bool
    deviation: float = 0.0
    message: str = ""


def _fail(message: str, deviation: float = math.inf) -> Check:
    return Check(False, deviation, message)


def axis_values(lo: float, hi: float, count: int, scale: str) -> np.ndarray:
    if scale == "log":
        return np.exp(np.linspace(math.log(lo), math.log(hi), count))
    return lo + (hi - lo) * np.arange(count) / (count - 1)


def _read_csv(path: Path) -> dict[str, list[str]]:
    rows = list(csv.reader(io.StringIO(path.read_text())))
    header, body = rows[0], rows[1:]
    return {name: [r[i] for r in body] for i, name in enumerate(header)}


def _check_manifest(csv_path: Path, command: str) -> str:
    manifest_path = csv_path.with_name(csv_path.name + ".manifest.json")
    manifest = json.loads(manifest_path.read_text())
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    if manifest.get("command") != command:
        return f"manifest command {manifest.get('command')!r} != {command!r}"
    if [o.get("sha256") for o in manifest.get("outputs", [])] != [digest]:
        return "manifest sha256 does not match the CSV"
    return ""


def _xstate(mb, raw):
    return mb.XState(raw[0], raw[1], raw[2], raw[3],
                     coh_ge=complex(raw[4], raw[5]), coh_as=complex(raw[6], raw[7]))


def _rates(mb, mass, sep, temp):
    config = mb.FieldBathConfig.from_ratios(mass, sep, temp)
    return mb.build_rate_matrix(mb.coefficients(config))


def _ode_state(mb, initial, rates, tau):
    if tau == 0.0:
        return initial
    return mb.integrate_ode(initial, rates, tau, tol=1e-10).states[-1]


def reference_state(mb, rates, raw, tau):
    """State at tau from a 40-digit matrix exponential of the generator."""
    import mpmath

    with mpmath.workdps(40):
        generator = mpmath.matrix([[mpmath.mpf(float(x)) for x in row] for row in rates.generator])
        pops = mpmath.expm(generator * mpmath.mpf(tau)) * mpmath.matrix([mpmath.mpf(x) for x in raw[:4]])
        fade = float(mpmath.exp(-mpmath.mpf(rates.decay_ge) * mpmath.mpf(tau)))
    return mb.XState(*(float(x) for x in pops),
                     coh_ge=complex(raw[4], raw[5]) * fade, coh_as=complex(raw[6], raw[7]) * fade)


def _entries(state) -> tuple:
    return (state.pop_g, state.pop_a, state.pop_s, state.pop_e,
            state.coh_ge.real, state.coh_ge.imag, state.coh_as.real, state.coh_as.imag)


def _close_axis(values: list[str], expected: np.ndarray) -> bool:
    got = np.array([float(v) for v in values])
    return got.shape == expected.shape and bool(
        np.all(np.abs(got - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected))))


def _read_map(csv_path: Path, command: str, axis1: np.ndarray, axis2: np.ndarray):
    """(table, concurrence, negativity) of a map CSV, or a failed Check."""
    try:
        table = _read_csv(csv_path)
        problem = _check_manifest(csv_path, command)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return _fail(f"unreadable output: {exc}")
    if problem:
        return _fail(problem)
    if len(table.get("concurrence", ())) != axis1.size * axis2.size:
        return _fail("wrong number of map rows")
    if not (_close_axis(table["axis1"], np.repeat(axis1, axis2.size))
            and _close_axis(table["axis2"], np.tile(axis2, axis1.size))):
        return _fail("map axes differ from the requested grid")
    conc = np.array([float(v) for v in table["concurrence"]])
    neg = np.array([float(v) for v in table["negativity"]])
    if not (np.all(np.isfinite(conc)) and np.all(np.isfinite(neg))
            and conc.min() >= 0.0 and conc.max() <= 1.0 + 1e-12
            and neg.min() >= 0.0 and neg.max() <= 1.0 + 1e-12):
        return _fail("map value outside [0, 1]")
    return table, conc, neg


def check_time_sep(mb, op, csv_path: Path, rng: np.random.Generator) -> Check:
    p = op.params
    taus = axis_values(*p["tau"])
    seps = axis_values(*p["sep"])
    read = _read_map(csv_path, "map time-sep", taus, seps)
    if isinstance(read, Check):
        return read
    table, conc, neg = read
    # The smallest separation is always checked: on band-reaching axes it is
    # the cell closest to |lambda| = 1.
    cells = [(int(rng.integers(taus.size)), 0)]
    cells += [(int(rng.integers(taus.size)), int(rng.integers(seps.size))) for _ in range(2)]
    worst = 0.0
    for i, j in cells:
        k = i * seps.size + j
        tau, sep = float(table["axis1"][k]), float(table["axis2"][k])
        state = reference_state(mb, _rates(mb, p["mass"], sep, p["temp"]), p["initial"], tau)
        dev = max(abs(conc[k] - mb.concurrence(state)), abs(neg[k] - mb.negativity(state)))
        worst = max(worst, dev)
        if not dev <= MAP_TOL:
            return _fail(f"cell tau={tau!r} sep={sep!r} off by {dev:.3e}", dev)
    return Check(True, worst)


_EVOLVE_COLUMNS = ("rho_G", "rho_A", "rho_S", "rho_E", "re_GE", "im_GE", "re_AS", "im_AS")


def check_evolve(mb, op, csv_path: Path, rng: np.random.Generator) -> Check:
    p = op.params
    try:
        table = _read_csv(csv_path)
        problem = _check_manifest(csv_path, "evolve")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return _fail(f"unreadable output: {exc}")
    if problem:
        return _fail(problem)
    taus = p["tmax"] * np.arange(p["steps"]) / (p["steps"] - 1)
    if not _close_axis(table.get("tau", []), taus):
        return _fail("trajectory times differ from the requested grid")
    initial = _xstate(mb, p["initial"])
    rates = _rates(mb, p["mass"], p["sep"], p["temp"])
    worst = 0.0
    for row in (1, int(rng.integers(taus.size)), taus.size - 1):
        tau = float(table["tau"][row])
        got = [float(table[c][row]) for c in _EVOLVE_COLUMNS + ("concurrence", "negativity")]
        state = reference_state(mb, rates, p["initial"], tau)
        reference = _entries(state) + (mb.concurrence(state), mb.negativity(state))
        dev = max(abs(x - y) for x, y in zip(got, reference))
        try:
            ode = _entries(_ode_state(mb, initial, rates, tau))
        except mb.StepUnderflowError:
            # integrate_ode can end on a last step shorter than its 1e-14
            # floor through roundoff; the 40-digit reference still checks.
            ode = ()
        dev = max([dev] + [abs(x - y) for x, y in zip(got, ode)])
        worst = max(worst, dev)
        if not dev <= MAP_TOL:
            return _fail(f"row tau={tau!r} off by {dev:.3e}", dev)
    return Check(True, worst)


def _product_measures(pops: np.ndarray, coh_ge: np.ndarray, coh_as: np.ndarray):
    """Concurrence and negativity of X states from product-basis entries.

    Wootters' X-state form C = 2 max(0, |r14| - sqrt(r22 r33),
    |r23| - sqrt(r11 r44)) and the partial transpose's two 2x2 blocks; an
    independent construction from the coupled-basis formulas in the package.
    """
    r11, r44 = pops[:, 0], pops[:, 3]
    half = 0.5 * (pops[:, 1] + pops[:, 2])
    r22 = half - coh_as.real
    r33 = half + coh_as.real
    r23 = np.hypot(0.5 * (pops[:, 2] - pops[:, 1]), coh_as.imag)
    r14 = np.abs(coh_ge)
    sq = lambda x: np.sqrt(np.maximum(x, 0.0))  # noqa: E731
    conc = 2.0 * np.maximum(0.0, np.maximum(r14 - sq(r22 * r33), r23 - sq(r11 * r44)))
    low1 = 0.5 * (r11 + r44) - np.hypot(0.5 * (r11 - r44), r23)
    low2 = 0.5 * (r22 + r33) - np.hypot(0.5 * (r22 - r33), r14)
    neg = 2.0 * (np.maximum(0.0, -low1) + np.maximum(0.0, -low2))
    return conc, neg


def max_over_time(generator: np.ndarray, decay: float, initial: tuple) -> tuple[float, float]:
    """Max over tau >= 0 of concurrence and negativity, by expm stepping.

    The time axis runs to 50 e-foldings of the slowest mode, in segments
    [T, 2T] of 400 equal steps each (propagated with expm(G dt)), then the
    best sample of each measure is zoomed in on three times.
    """
    from scipy.linalg import expm

    pops0 = np.array(initial[:4])
    coh_ge0 = complex(initial[4], initial[5])
    coh_as0 = complex(initial[6], initial[7])
    rates = np.abs(np.linalg.eigvals(generator).real)
    scale = max(float(np.max(np.abs(generator))), decay)
    slow = min([r for r in rates if r > 1e-13 * scale] + [decay])
    t_end = 50.0 / slow

    def sample(t0: float, width: float, steps: int):
        times = t0 + width * np.arange(steps + 1) / steps
        pops = np.empty((steps + 1, 4))
        pops[0] = expm(generator * t0) @ pops0
        step = expm(generator * (width / steps))
        for k in range(steps):
            pops[k + 1] = step @ pops[k]
        fade = np.exp(-decay * times)
        return times, _product_measures(pops, coh_ge0 * fade, coh_as0 * fade)

    segments = [sample(0.0, 0.01 / scale, 400)]
    start = 0.01 / scale
    while start < t_end:
        segments.append(sample(start, start, 400))
        start *= 2.0
    times = np.concatenate([s[0] for s in segments])
    best = []
    for m in range(2):
        values = np.concatenate([s[1][m] for s in segments])
        i = int(np.argmax(values))
        top = float(values[i])
        lo, hi = times[max(i - 1, 0)], times[min(i + 1, times.size - 1)]
        for _ in range(3):
            zoom_t, zoom_v = sample(lo, hi - lo, 200)
            k = int(np.argmax(zoom_v[m]))
            top = max(top, float(zoom_v[m][k]))
            lo, hi = zoom_t[max(k - 1, 0)], zoom_t[min(k + 1, 200)]
        best.append(top)
    return best[0], best[1]


def check_temp_sep(mb, op, csv_path: Path, rng: np.random.Generator) -> Check:
    p = op.params
    temps = axis_values(*p["temp_axis"])
    seps = axis_values(*p["sep"])
    read = _read_map(csv_path, "map temp-sep", temps, seps)
    if isinstance(read, Check):
        return read
    table, conc, neg = read
    worst = 0.0
    for _ in range(2):
        k = int(rng.integers(temps.size)) * seps.size + int(rng.integers(seps.size))
        temp, sep = float(table["axis1"][k]), float(table["axis2"][k])
        rates = _rates(mb, p["mass"], sep, temp)
        best_c, best_n = max_over_time(np.array(rates.generator), rates.decay_ge, p["initial"])
        dev = max(abs(conc[k] - best_c), abs(neg[k] - best_n))
        worst = max(worst, dev)
        if not dev <= MAX_OVER_TIME_TOL:
            return _fail(f"cell T={temp!r} sep={sep!r} off by {dev:.3e}", dev)
    return Check(True, worst)


def check_lifetime(mb, op, value) -> Check:
    p = op.params
    expected = mb.lifetime(p["e"], p["g"], p["a"], p["s"], math.sqrt(1.0 - p["mass"] ** 2), 1.0)
    if not value:
        return _fail(f"no death detected; closed form says {expected!r}")
    dev = abs(value[0] - expected) / max(1.0, expected)
    if not dev <= LIFETIME_TOL:
        return _fail(f"death at {value[0]!r}, closed form {expected!r}", dev)
    return Check(True, dev)


def check_enlargement(op, value) -> Check:
    dev = abs(value * math.sqrt(1.0 - op.params["mass"] ** 2) - 1.0)
    if not dev <= ENLARGEMENT_TOL:
        return _fail(f"enlargement {value!r} is not 1/g within 2%", dev)
    return Check(True, dev)


def check_threshold(value, massless: float) -> Check:
    dev = abs(value - massless)
    lo, hi = THRESHOLD_RANGE
    if not lo <= value <= hi:
        return _fail(f"threshold {value!r} outside [{lo}, {hi}]", dev)
    if not dev <= THRESHOLD_TOL:
        return _fail(f"threshold {value!r} differs from the m=0 value {massless!r}", dev)
    return Check(True, dev)


def check_verify(value) -> Check:
    code, out = value
    lines = [line for line in out.splitlines() if line.strip()]
    if code != 0 or not lines or not all(line.endswith("PASS") for line in lines):
        return _fail(f"verify exited {code}: {out.strip()!r}")
    return Check(True, 0.0)
