"""Command line interface.

Subcommands:
    coeffs   print the rate coefficients for one parameter point
    evolve   write a trajectory CSV (state, concurrence, negativity vs time)
    map      write sweep grids: `map time-sep` or `map temp-sep`
    verify   run the built-in verification suites

All quantities on the CLI are dimensionless: --mass-ratio is m/omega,
--temp-ratio is T/omega, --sep is omega*L, and times are Gamma0*tau.
Exit codes: 0 success, 1 verification failure, 2 usage error (bad input or
an output file that cannot be written), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import MassbathError, NotAStateError
from .field_bath import FieldBathConfig, coefficients, gray_factor, spatial_factor
from .measures import _coherence_parts, _measures_arrays
from .experiments import evolve_scan, run_verification, thermal_scan
from .xstate import XState, build_rate_matrix, eigen_trajectory

EVOLVE_HEADER = (
    "tau,rho_G,rho_A,rho_S,rho_E,re_GE,im_GE,re_AS,im_AS,concurrence,negativity"
)
MAP_HEADER = "axis1,axis2,concurrence,negativity,method"

_NAMED_STATES = {
    "E": XState.excited,
    "G": XState.ground,
    "A": XState.antisymmetric,
    "S": XState.symmetric,
    "bell-GE": XState.bell_ge,
}


def parse_initial(text: str) -> XState:
    """Parse --initial: a named state, diag:e,g,a,s, or 8 raw values.

    Raw values follow the trajectory CSV column order:
    rho_G, rho_A, rho_S, rho_E, re_GE, im_GE, re_AS, im_AS.
    """
    try:
        if text in _NAMED_STATES:
            return _NAMED_STATES[text]()
        if text.startswith("diag:"):
            parts = [float(p) for p in text[5:].split(",")]
            if len(parts) != 4:
                raise ValueError("diag: takes exactly 4 values e,g,a,s")
            return XState.diagonal(*parts)
        parts = [float(p) for p in text.split(",")]
        if len(parts) != 8:
            raise ValueError(
                "expected a named state, diag:e,g,a,s, or 8 comma-separated values"
            )
        coh_ge, coh_as = complex(parts[4], parts[5]), complex(parts[6], parts[7])
        return XState(*parts[:4], coh_ge=coh_ge, coh_as=coh_as)
    except NotAStateError as exc:
        raise ValueError(f"--initial does not describe a state: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"invalid --initial {text!r}: {exc}") from exc


def _load_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def _merge_config(argv: list[str]) -> list[str]:
    """Append flags from the --config file for keys not already on the line."""
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return argv
    merged = list(argv)
    for key, value in _load_config_file(path).items():
        flag = f"--{key}"
        present = any(tok == flag or tok.startswith(flag + "=") for tok in argv)
        if not present:
            merged.extend([flag, value])
    return merged


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        moment = datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc)
    except (ValueError, OverflowError, OSError) as exc:
        raise ValueError(
            f"SOURCE_DATE_EPOCH must be an integer number of seconds that a date "
            f"can hold, got {epoch!r}"
        ) from exc
    return moment.isoformat()


def _write_manifest(
    command: str, params: dict, outputs: list[tuple[Path, str]], timestamp: str
) -> None:
    """Write `<first output>.manifest.json` for (path, sha256 hex) pairs."""
    manifest = {
        "command": command,
        "params": params,
        "version": __version__,
        "timestamp": timestamp,
        "outputs": [{"path": path.name, "sha256": digest} for path, digest in outputs],
    }
    manifest_path = outputs[0][0].with_name(outputs[0][0].name + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


_CSV_BLOCK = 1024


def _text(values: np.ndarray) -> list[str]:
    """str of every element; floats format each distinct bit pattern once."""
    if values.dtype != np.float64:
        return list(map(str, values.tolist()))
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array(list(map(str, bits.view(np.float64).tolist())), dtype=object)
    return text[where.ravel()].tolist()


def _csv(header: str, columns):
    """CSV text in pieces: the header line, then row k from element k of every
    column, as str (a float's shortest round-trip repr). Rows come _CSV_BLOCK
    at a time, and a block is formatted only when the previous one has been
    taken, so a consumer that writes each block holds one block of text."""
    columns = [np.asarray(column) for column in columns]
    yield header + "\n"
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        cells = [_text(column[start:start + _CSV_BLOCK]) for column in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _emit(text: str, stream, digest=None) -> None:
    """Write one piece of output: `text` to a text stream, or its UTF-8 bytes
    to a binary file and to the `digest` that hashes that file."""
    if digest is None:
        stream.write(text)
        return
    data = text.encode()
    stream.write(data)
    digest.update(data)


def _write_csv(command: str, params: dict, blocks, out: str | None) -> None:
    """Write CSV blocks as they come: to stdout when `out` is None, else to the
    file `out`, hashing the bytes written, followed by its manifest."""
    if out is None:
        for text in blocks:
            _emit(text, sys.stdout)
        return
    timestamp = _timestamp()  # a bad SOURCE_DATE_EPOCH fails before any file exists
    path = Path(out)
    digest = hashlib.sha256()
    with path.open("wb") as handle:
        for text in blocks:
            _emit(text, handle, digest)
    _write_manifest(command, params, [(path, digest.hexdigest())], timestamp)


def cmd_coeffs(args) -> int:
    config = FieldBathConfig.from_ratios(args.mass_ratio, args.sep, args.temp_ratio)
    gray = gray_factor(config.mass, config.omega)
    lam = spatial_factor(config.omega, config.separation, gray)
    coeffs = coefficients(config)
    g0 = config.gamma0
    rows = [
        ("gray_factor", gray),
        ("spatial_factor", lam),
        ("a1", coeffs.a1 / g0),
        ("b1", coeffs.b1 / g0),
        ("a2", coeffs.a2 / g0),
        ("b2", coeffs.b2 / g0),
    ]
    for name, value in rows:
        print(f"{name:<16}{value:.12g}")
    return 0


def cmd_evolve(args) -> int:
    initial = parse_initial(args.initial)
    config = FieldBathConfig.from_ratios(args.mass_ratio, args.sep, args.temp_ratio)
    if not (np.isfinite(args.tmax) and args.tmax >= 0.0):
        raise ValueError(f"--tmax must be finite and >= 0, got {args.tmax}")
    if args.steps < 1:
        raise ValueError(f"--steps must be >= 1, got {args.steps}")
    taus = np.linspace(0.0, args.tmax, args.steps)
    if np.any(np.diff(taus) <= 0.0):
        raise ValueError(f"--tmax must give {args.steps} increasing times, got {args.tmax}")
    traj = eigen_trajectory(initial, build_rate_matrix(coefficients(config)), taus)
    pops, coh_ge, coh_as = traj.populations.T, traj.coh_ge, traj.coh_as
    columns = (
        taus, *pops, coh_ge.real, coh_ge.imag, coh_as.real, coh_as.imag,
        *_measures_arrays(*pops, *_coherence_parts(coh_ge, coh_as)),
    )
    params = {
        "initial": args.initial,
        "mass-ratio": args.mass_ratio,
        "sep": args.sep,
        "temp-ratio": args.temp_ratio,
        "tmax": args.tmax,
        "steps": args.steps,
        "method": traj.method,
    }
    _write_csv("evolve", params, _csv(EVOLVE_HEADER, columns), args.out)
    return 0


def _grid_from_args(args, prefix: str) -> np.ndarray:
    """np.linspace, or np.geomspace on the log scale, from the flags
    --{prefix}-{min,max,count,scale}; a bad flag raises ValueError naming it."""
    start, stop, count, scale = (getattr(args, f"{prefix}_{key}")
                                 for key in ("min", "max", "count", "scale"))
    if count < 2:
        raise ValueError(f"--{prefix}-count must be >= 2, got {count}")
    for key, value in (("min", start), ("max", stop)):
        if not np.isfinite(value):
            raise ValueError(f"--{prefix}-{key} must be finite, got {value}")
    if not start < stop:
        raise ValueError(f"--{prefix}-min must be < --{prefix}-max, got {start}, {stop}")
    if scale == "log" and start <= 0.0:
        raise ValueError(f"--{prefix}-scale log requires --{prefix}-min > 0, got {start}")
    return (np.geomspace if scale == "log" else np.linspace)(start, stop, count)


def _write_map(result, command: str, params: dict, out: str) -> int:
    rows, cols = result.concurrence.shape
    columns = (
        np.repeat(result.axis1, cols),
        np.tile(result.axis2, rows),
        result.concurrence.ravel(),
        result.negativity.ravel(),
        result.method.ravel(),
    )
    _write_csv(command, params, _csv(MAP_HEADER, columns), out)
    return 0


def cmd_map_time_sep(args) -> int:
    # Both map commands check the state, the separation axis, the other axis
    # and then the bath, so a line with several bad inputs names the first.
    initial, seps = parse_initial(args.initial), _grid_from_args(args, "sep")
    result = evolve_scan(
        args.mass_ratio, initial, args.temp_ratio, _grid_from_args(args, "tau"), seps
    )
    params = {
        "initial": args.initial,
        "mass-ratio": args.mass_ratio,
        "temp-ratio": args.temp_ratio,
        "axis1": "tau",
        "axis2": "sep",
    }
    return _write_map(result, "map time-sep", params, args.out)


def cmd_map_temp_sep(args) -> int:
    initial, seps = parse_initial(args.initial), _grid_from_args(args, "sep")
    result = thermal_scan(args.mass_ratio, initial, _grid_from_args(args, "temp"), seps)
    params = {
        "initial": args.initial,
        "mass-ratio": args.mass_ratio,
        "axis1": "temp-ratio",
        "axis2": "sep",
    }
    return _write_map(result, "map temp-sep", params, args.out)


def cmd_verify(args) -> int:
    results = run_verification(seed=args.seed, perturb=args.perturb)
    failed = False
    for suite in results:
        status = "PASS" if suite.passed else "FAIL"
        print(
            f"{suite.name:<20} max deviation {suite.max_deviation:.3e} "
            f"(threshold {suite.threshold:.0e}) {status}"
        )
        failed = failed or not suite.passed
    return 1 if failed else 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        help="flat key=value file whose keys mirror flag names; flags override",
    )


def _add_axis(parser, prefix: str, lo: float, hi: float, count: int) -> None:
    parser.add_argument(f"--{prefix}-min", type=float, default=lo)
    parser.add_argument(f"--{prefix}-max", type=float, default=hi)
    parser.add_argument(f"--{prefix}-count", type=int, default=count)
    parser.add_argument(
        f"--{prefix}-scale", choices=("linear", "log"), default="linear"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves no
    state on it, and a build costs more than many parses. Each subcommand
    names its handler, which main looks up in this module when it runs."""
    parser = argparse.ArgumentParser(
        prog="massbath",
        description="Entanglement dynamics of two qubits in a massive scalar bath.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    coeffs = sub.add_parser("coeffs", help="print rate coefficients (units of Gamma0)",
                            allow_abbrev=False)
    _add_common(coeffs)
    coeffs.add_argument("--mass-ratio", type=float, required=True)
    coeffs.add_argument("--sep", type=float, required=True)
    coeffs.add_argument("--temp-ratio", type=float, default=None)
    coeffs.set_defaults(func="cmd_coeffs")

    evolve = sub.add_parser("evolve", help="trajectory CSV for one parameter point",
                            allow_abbrev=False)
    _add_common(evolve)
    evolve.add_argument(
        "--initial",
        required=True,
        help="E, G, A, S, bell-GE, diag:e,g,a,s, or 8 raw values "
        "(rho_G,rho_A,rho_S,rho_E,re_GE,im_GE,re_AS,im_AS)",
    )
    evolve.add_argument("--mass-ratio", type=float, required=True)
    evolve.add_argument("--sep", type=float, default=0.0)
    evolve.add_argument("--temp-ratio", type=float, default=None)
    evolve.add_argument("--tmax", type=float, default=10.0)
    evolve.add_argument("--steps", type=int, default=200)
    evolve.add_argument("--out", default=None, help="CSV path (default: stdout)")
    evolve.set_defaults(func="cmd_evolve")

    map_parser = sub.add_parser("map", help="sweep grids as long-format CSV", allow_abbrev=False)
    map_sub = map_parser.add_subparsers(dest="submode", required=True)

    time_sep = map_sub.add_parser("time-sep", help="instantaneous measures vs (tau, L)",
                                  allow_abbrev=False)
    _add_common(time_sep)
    time_sep.add_argument("--mass-ratio", type=float, required=True)
    time_sep.add_argument("--temp-ratio", type=float, default=None)
    time_sep.add_argument("--initial", default="E")
    _add_axis(time_sep, "tau", 0.05, 20.0, 40)
    _add_axis(time_sep, "sep", 0.05, 20.0, 40)
    time_sep.add_argument("--out", required=True)
    time_sep.set_defaults(func="cmd_map_time_sep")

    temp_sep = map_sub.add_parser("temp-sep", help="max-over-time measures vs (T/omega, L)",
                                  allow_abbrev=False)
    _add_common(temp_sep)
    temp_sep.add_argument("--mass-ratio", type=float, required=True)
    temp_sep.add_argument("--initial", default="E")
    _add_axis(temp_sep, "temp", 0.02, 0.4, 20)
    _add_axis(temp_sep, "sep", 0.05, 20.0, 40)
    temp_sep.add_argument("--out", required=True)
    temp_sep.set_defaults(func="cmd_map_temp_sep")

    verify = sub.add_parser("verify", help="run the self-verification suites", allow_abbrev=False)
    _add_common(verify)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--perturb",
        type=float,
        default=0.0,
        help="fault-injection hook: perturb the coefficient comparison",
    )
    verify.set_defaults(func="cmd_verify")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _merge_config(argv)
    except (OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return globals()[args.func](args)
    except MassbathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
