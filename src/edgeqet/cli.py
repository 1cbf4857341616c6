"""Command-line front end.

Subcommands
-----------
validate   check a parameter file and print the resolved parameter set
budget     full energy budget (budget.json, budget.csv, printed table)
sweep      sweep one parameter, tabulate E_B and fit the scaling slope
simulate   run the Gaussian protocol oracle shot by shot
convert    convert between edge current and energy density

Each command reads ``--params`` and ``--set`` once; the parameters,
every sweep point and the manifest come from that one read.  Only the
file-producing commands (budget, sweep, simulate) take ``--out`` and
``--tol``.  Each hands its raw results to one writer
(``_write_outputs``), which writes them and a ``manifest.json`` last,
holding the fully resolved inputs (parameters, regulators,
tolerances, grid, seed, tool version) so that any result can be
reproduced bit-exactly: replay with ``--set`` for every ``params``
entry not listed in ``derived``.  The wall-clock duration lives only
in the manifest, never in data files.

One rule writes a number, and only the writer applies it: every
number in every file, the manifest included, is checked for
finiteness and written with -0.0 folded to 0.0, before ``--out``
exists.

Exit codes: 0 success, 1 usage or validation error (a command line
argparse refuses while parsing, naming the flag, or any ValueError),
2 numerical failure (any ArithmeticError, a NaN or an infinity bound
for a file among them).  No command body checks its options: each
option's type does, and the library checks parameters and protocol.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import params as P
from .energetics import (compute_EA, compute_EB, compute_E1, energy_budget,
                         eb_order_estimate, current_from_energy_density,
                         energy_density_from_current, loglog_slope)
from .oracle import default_grid, run_protocol


# Rows of a CSV file formatted at a time: simulate's default 1000 shots,
# and perfbench's 4000, are one chunk.
_CSV_CHUNK_ROWS = 4096

_MEV = 1e3 / P.E_CHARGE
_UEV = 1e6 / P.E_CHARGE

# EnergyBudget field -> (SI unit, scale to display unit, display unit,
# reference order of magnitude in SI or None).  The printed pass band
# around a reference is [ref/10, ref*10].
_QUANTITIES = {
    "delta_v": ("V", 1e6, "uV", 10e-6),
    "signal_rms": ("V", 1e6, "uV", 100e-6),
    "signal_rms_unregularized": ("V", 1e6, "uV", None),
    "E_A": ("J", _MEV, "meV", 1e-3 * P.E_CHARGE),
    "E_1": ("J", _MEV, "meV", 10e-3 * P.E_CHARGE),
    "E_1_unregularized": ("J", _MEV, "meV", None),
    "E_B": ("J", _UEV, "ueV", 100e-6 * P.E_CHARGE),  # at the default L = 2l
    "E_B_unregularized": ("J", _UEV, "ueV", None),
    "E_B_unregularized_shift": ("", 100.0, "%", None),
    "E_B_error": ("J", _UEV, "ueV", None),
    "E_B_evals": ("", 1.0, "", None),
    "E_B_order_estimate": ("J", _UEV, "ueV", None),
    "thermal": ("J", _UEV, "ueV", None),
    "detect_current": ("A", 1e9, "nA", None),
    "eps_uv": ("m", 1e6, "um", None),
    "omega_c": ("rad/s", 1.0, "rad/s", None),
    "rel_tol": ("", 1.0, "", None),
}


def _clean(value, *keys):
    """``value`` (a scalar, a float array, or dicts, lists and tuples of
    them) as it is written: every float and numpy scalar a Python
    number, -0.0 folded to 0.0.  A NaN or an infinity raises
    FloatingPointError whose args are the keys down to it.  An array is
    only checked, in one pass, and searched only if it fails; the CSV
    writer folds it a chunk at a time."""
    if isinstance(value, dict):
        return {k: _clean(v, *keys, k) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_clean(v, *keys, i) for i, v in enumerate(value))
    if isinstance(value, np.ndarray):
        finite = np.isfinite(value).all()
        return value if finite else _clean(list(value), *keys)
    if isinstance(value, np.generic):
        value = value.item()
    if not isinstance(value, float):
        return value
    if not math.isfinite(value):
        raise FloatingPointError(*keys)
    return value + 0.0


def _write_json(path: Path, payload: dict):
    """Write ``payload`` as JSON; a NaN or infinity raises ValueError
    before the file is opened."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _csv_field(v) -> str:
    """One CSV cell as csv.writer writes it: text quoted when it holds a
    comma, a quote or a line break (a float's str is its repr)."""
    text = str(v)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_cells(column):
    """The cells of one CSV column; a numeric array is formatted in one
    pass, not value by value."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return map(repr, (column + 0.0).tolist())
        if column.dtype.kind in "iu":
            return map(str, column.tolist())
    return map(_csv_field, column)


def _write_csv(path: Path, header, columns):
    """Write equal-length ``columns`` (float arrays or sequences of
    cells) under ``header``, one row per index, in csv.writer's default
    format (comma-separated, CRLF line ends).  Rows are formatted and
    written _CSV_CHUNK_ROWS at a time, so memory stays bounded by one
    chunk whatever the row count."""
    columns = list(columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(_csv_field, header)) + "\r\n")
        for lo in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            cells = [_csv_cells(c[lo:lo + _CSV_CHUNK_ROWS]) for c in columns]
            fh.writelines(",".join(row) + "\r\n" for row in zip(*cells))


def _resolve(given: dict) -> P.ExperimentParams:
    """Validated parameters from the given values (one call site, so a
    validation warning shows once per command)."""
    return P.validate(P.ExperimentParams(**given))


def _load(args):
    """(given, params): the parameter values given by ``--params`` and
    ``--set``, read once, and the validated parameters they resolve to."""
    given = P.read_inputs(args.params, dict(args.set or ()))
    return given, _resolve(given)


def _write_outputs(args, command, params, given, t0, files, **extra):
    """Write ``files``, {name: JSON payload or (CSV header, columns)},
    into ``--out`` in order, then ``manifest.json``: everything needed
    to reproduce them bit-exactly (``extra`` included) and the
    wall-clock time since ``t0``.  ``derived`` lists the params entries
    that followed other inputs instead of being ``given``; a replay
    leaves them out so that they follow again.

    Every number of every file, the manifest included, passes
    ``_clean`` first: a NaN or an infinity raises FloatingPointError
    naming the file and the key, or the column and the row's first
    cell, before ``--out`` exists.  Returns ``files`` as they passed."""
    manifest = {
        "command": command, "version": __version__,
        "params": params.as_dict(),
        "derived": [k for k in P.DERIVED_FIELDS if k not in given],
        "eps_uv": params.eps_uv, "omega_c": params.omega_c,
        "rel_tol": args.tol, **extra}
    files = {**files, "manifest.json": manifest}
    for name, data in files.items():
        try:
            files[name] = _clean(data)
        except FloatingPointError as exc:
            if isinstance(data, tuple):     # keys: columns, column, row
                (header, columns), (_, col, row) = data, exc.args
                first = np.asarray(columns[0][row]).item()
                where = f"{header[col]} at {header[0]} = {first!r}"
            else:
                where = ".".join(map(str, exc.args))
            raise FloatingPointError(f"{name} {where} is not finite")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = files.pop("manifest.json")
    for name, data in files.items():
        if isinstance(data, tuple):
            _write_csv(out / name, *data)
        else:
            _write_json(out / name, data)
    _write_json(out / "manifest.json",
                {**manifest, "duration_s": time.perf_counter() - t0})
    return files


# Subcommands -----------------------------------------------------------

def cmd_validate(args) -> int:
    _, params = _load(args)
    print(f"parameter set valid ({len(params.as_dict())} keys)")
    for key, value in params.as_dict().items():
        unit = P.PARAM_UNITS.get(key, "")
        print(f"  {key:14s} = {value:.6g} {unit}")
    return 0


def cmd_budget(args) -> int:
    given, params = _load(args)
    t0 = time.perf_counter()
    budget = energy_budget(params, rel_tol=args.tol)
    rows = []
    for key, value in budget.as_dict().items():
        si_unit, scale, disp_unit, ref = _QUANTITIES[key]
        if value is None:       # a ratio to a zero E_B
            rows.append([key, "", si_unit, "", disp_unit, "", "", ""])
            continue
        lo = ref / 10.0 if ref else ""
        hi = ref * 10.0 if ref else ""
        in_band = (lo <= value <= hi) if ref else ""
        rows.append([key, float(value), si_unit, float(value * scale),
                     disp_unit, lo, hi, in_band])
    written = _write_outputs(args, "budget", params, given, t0, {
        "budget.csv": (["quantity", "value_si", "si_unit", "value_display",
                        "display_unit", "band_lo_si", "band_hi_si",
                        "in_band"], list(zip(*rows))),
        "budget.json": {"budget": budget.as_dict(),
                        "si_units": {k: q[0] for k, q in _QUANTITIES.items()},
                        "order_bands": {k: [q[3] / 10.0, q[3] * 10.0]
                                        for k, q in _QUANTITIES.items()
                                        if q[3] is not None}}})

    # the table printed is the one written, -0.0 folded
    print(f"{'quantity':24s} {'value':>12s} {'unit':6s} {'order band':>24s} ok")
    for key, value, _, disp, unit, lo, hi, ok in zip(
            *written["budget.csv"][1]):
        if disp == "":
            print(f"{key:24s} {'n/a':>12s} {unit:6s}")
        elif lo == "":
            print(f"{key:24s} {disp:12.4g} {unit:6s}")
        else:
            scale = _QUANTITIES[key][1]
            band = f"[{lo * scale:.3g}, {hi * scale:.3g}]"
            print(f"{key:24s} {disp:12.4g} {unit:6s} {band:>24s} "
                  f"{'pass' if ok else 'FAIL'}")
    return 0


def cmd_sweep(args) -> int:
    given, params = _load(args)
    key, values = args.sweep, args.values
    t0 = time.perf_counter()
    header = [key, "E_B_J", "E_B_error_J", "E_B_order_estimate_J"]
    rows = []
    for v in values:
        p = _resolve(P.read_inputs(None, {**given, key: v}))
        e_b = compute_EB(p, rel_tol=args.tol)
        rows.append([float(v), float(e_b), float(e_b.error_estimate),
                     float(eb_order_estimate(p))])

    slope, stderr = loglog_slope([r[0] for r in rows], [r[1] for r in rows])
    if slope is not None:
        fit = {"slope": slope, "slope_stderr": stderr,
               "n_points": len(rows), "fitted_on": "log|E_B| vs log x"}
    else:
        fit = {"slope": None, "status": "not-computable",
               "n_points": len(rows)}
    _write_outputs(args, "sweep", params, given, t0,
                   {"sweep.csv": (header, list(zip(*rows))), "fit.json": fit},
                   sweep={"key": key, "values": values})
    slope_txt = (f"slope = {fit['slope']:.4f}" if fit.get("slope") is not None
                 else "slope not computable")
    print(f"swept {key} over {len(values)} points; {slope_txt}")
    return 0


def cmd_simulate(args) -> int:
    given, params = _load(args)
    t0 = time.perf_counter()
    grid = default_grid(params, n_modes=args.modes)
    # the closed forms and run_protocol check the remaining options and
    # parameters (compute_EB refuses L < 2l): they raise before the
    # output directory exists
    closed_forms = {
        "compute_EA_J": compute_EA(params),
        "compute_E1_J": compute_E1(params),
        "scaled_compute_EB_J":
            args.coupling_scale * compute_EB(params, rel_tol=args.tol),
    }
    result = run_protocol(
        params, grid, feedback_mode=args.feedback, n_shots=args.shots,
        seed=args.seed, coupling_scale=args.coupling_scale,
        ramp_fraction=args.ramp_fraction, n_profile=args.profile_points)

    stderr = float(result.E_B_stderr)
    # zero spread (e.g. no coupling and no feedback): not computable
    significance = (float(result.E_B_oracle) / stderr if stderr > 0
                    else None)
    summary = {
        "feedback_mode": result.feedback_mode,
        "n_shots": args.shots, "n_modes": args.modes, "seed": args.seed,
        "coupling_scale": args.coupling_scale,
        "E_B_oracle_J": result.E_B_oracle,
        "E_B_stderr_J": stderr,
        "E_B_significance_sigma": significance,
        "E_A_oracle_J": result.E_A_oracle,
        "E_1_oracle_J": result.E_1_oracle,
        **closed_forms,
        "profile_times_s": [result.t_f],
        "subspace_rank": result.subspace_rank,
        "symplectic_residual": result.symplectic_residual,
        "mirror_residual": result.mirror_residual,
        "reversal_residual": result.reversal_residual,
        "wrap_margin_m": result.wrap_margin_m,
    }
    _write_outputs(
        args, "simulate", params, given, t0, {
            "shots.csv": (["shot", "outcome_V", "E_B_J"],
                          [np.arange(args.shots), result.outcome_samples,
                           result.e_b_samples]),
            "profile.csv": (["x_m", "eps_S_J_per_m_t0"],
                            [result.profile_x,
                             result.energy_density_profile]),
            "summary.json": summary},
        grid={"n_modes": grid.n_modes, "ring_length": grid.ring_length},
        seed=args.seed, shots=args.shots, feedback=args.feedback,
        coupling_scale=args.coupling_scale, ramp_fraction=args.ramp_fraction,
        profile_points=args.profile_points)
    print(f"{args.feedback} feedback, {args.shots} shots: "
          f"E_B = {result.E_B_oracle * _UEV:.4f} +- {stderr * _UEV:.4f} ueV "
          + (f"({significance:.1f} sigma)" if significance is not None
             else "(significance not computable)"))
    return 0


def cmd_convert(args) -> int:
    _, params = _load(args)
    # the result converted back is compared with the input, so an
    # underflow to 0 either way is a mismatch
    if args.current is not None:
        j = args.current
        eps = energy_density_from_current(j, params)
        # eps grows as j^2, so the round trip gives |j|
        check = "|j|", abs(j), current_from_energy_density(eps, params), "A"
    else:
        eps = args.energy_density
        j = current_from_energy_density(eps, params)
        check = "eps", eps, energy_density_from_current(j, params), "J/m"
    name, given, back, unit = check
    eps_disp = eps / P.E_CHARGE * 1e6 / 1e6  # J/m -> ueV/um
    print(f"current         j   = {j:.6g} A ({j * 1e9:.6g} nA)")
    print(f"energy density  eps = {eps:.6g} J/m ({eps_disp:.6g} ueV/um)")
    ok = math.isclose(back, given, rel_tol=1e-12)
    print(f"round trip: {name} = {back:.6g} {unit} "
          f"({'consistent' if ok else 'MISMATCH'})")
    return 0 if ok else 2


# Parser ----------------------------------------------------------------

def _override(text: str) -> tuple:
    """The argparse type of ``--set``: KEY=VALUE as (key, number); the
    key and the value's domain are the library's to check."""
    key, _, value = text.partition("=")
    try:
        return key.strip(), float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects KEY=VALUE with a numeric VALUE, got {text!r}")


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _grid(text: str) -> list:
    """The argparse type of ``sweep --values``: a non-empty, strictly
    monotone, comma-separated list of finite numbers."""
    values = [_finite(v) for v in text.split(",") if v.strip()]
    steps = list(zip(values, values[1:]))
    if not values or not (all(a < b for a, b in steps)
                          or all(a > b for a, b in steps)):
        raise argparse.ArgumentTypeError(
            f"must be a non-empty, strictly monotone list, got {text!r}")
    return values


def _rel_tol(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"must lie in the open interval (0, 1), got {text!r}")
    return value


def _count(least: int):
    """The argparse type of an integer option that is at least ``least``."""
    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {text!r}")
        return value
    return count


def build_parser() -> argparse.ArgumentParser:
    # every command reads the parameters; only the file-producing ones
    # take an output directory and a quadrature tolerance
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--params", metavar="FILE",
                        help="parameter file (key = value [unit] lines)")
    common.add_argument("--set", action="append", type=_override,
                        metavar="KEY=VALUE",
                        help="override one parameter (repeatable)")
    producing = argparse.ArgumentParser(add_help=False, parents=[common])
    producing.add_argument("--out", default=".", metavar="DIR",
                           help="output directory (default: .)")
    producing.add_argument("--tol", type=_rel_tol, default=1e-4,
                           help="quadrature relative tolerance, in (0, 1) "
                                "(default 1e-4)")

    parser = argparse.ArgumentParser(
        prog="edgeqet",
        description="Energy budget of measurement-feedback energy "
                    "extraction on quantum Hall edge channels.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", parents=[common],
                   help="check parameters and print the resolved set"
                   ).set_defaults(func=cmd_validate)
    sub.add_parser("budget", parents=[producing],
                   help="compute the full energy budget"
                   ).set_defaults(func=cmd_budget)

    p_sweep = sub.add_parser("sweep", parents=[producing],
                             help="sweep a parameter and fit the E_B slope")
    p_sweep.add_argument("--sweep", default="L", metavar="KEY",
                         help="parameter to sweep (default L)")
    p_sweep.add_argument("--values", required=True, type=_grid,
                         metavar="V1,V2,...",
                         help="comma-separated grid of finite numbers "
                              "(strictly monotone)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", parents=[producing],
                           help="run the Gaussian protocol oracle")
    p_sim.add_argument("--shots", type=_count(2), default=1000,
                       help="shots to draw, at least 2 (default 1000)")
    p_sim.add_argument("--seed", type=_count(0), default=0,
                       help="seed of the outcome draws, >= 0 (default 0)")
    p_sim.add_argument("--modes", type=_count(1), default=256,
                       help="momentum modes per channel, at least 1 "
                            "(default 256)")
    p_sim.add_argument("--feedback", default="correlated",
                       choices=("correlated", "scrambled", "off"),
                       help="feedback from each shot's own outcome, from "
                            "a permutation of the outcomes, or none "
                            "(default correlated)")
    p_sim.add_argument("--coupling-scale", type=float, default=1.0,
                       dest="coupling_scale",
                       help="factor on the Coulomb coupling, finite "
                            "(default 1.0)")
    p_sim.add_argument("--ramp-fraction", type=float, default=0.05,
                       dest="ramp_fraction",
                       help="share of the interaction window over which "
                            "the coupling ramps up, and again down, in "
                            "[0, 0.5]; 0 switches it suddenly "
                            "(default 0.05)")
    p_sim.add_argument("--profile-points", type=_count(1), default=512,
                       dest="profile_points",
                       help="points of the energy-density profile, at "
                            "least 1 (default 512)")
    p_sim.set_defaults(func=cmd_simulate)

    p_conv = sub.add_parser("convert", parents=[common],
                            help="convert current <-> energy density")
    p_conv.set_defaults(func=cmd_convert)
    one_of = p_conv.add_mutually_exclusive_group(required=True)
    one_of.add_argument("--current", type=_finite, metavar="A")
    one_of.add_argument("--energy-density", type=_finite, metavar="J_PER_M",
                        dest="energy_density")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract here is 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
