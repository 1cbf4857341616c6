"""Command-line front end.

Subcommands
-----------
validate   check a parameter file and print the resolved parameter set
budget     full energy budget (budget.json, budget.csv, printed table)
sweep      sweep one parameter, tabulate E_B and fit the scaling slope
simulate   run the Gaussian protocol oracle shot by shot
convert    convert between edge current and energy density

Every file-producing command writes a ``manifest.json`` holding the
fully resolved inputs (parameters, regulators, tolerances, grid, seed,
tool version) so that any result can be reproduced bit-exactly: replay
with ``--set`` for every ``params`` entry not listed in ``derived``.
The wall-clock duration lives only in the manifest, never in data files.

Exit codes: 0 success, 1 validation/usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import params as P
from .energetics import (ConvergenceFailure, compute_EA, compute_EB,
                         compute_E1, energy_budget, eb_order_estimate,
                         current_from_energy_density,
                         energy_density_from_current)
from .oracle import (DegenerateObservable, ModeGrid, StepInstability,
                     default_grid, run_protocol)


class UsageError(ValueError):
    """Bad command-line input (maps to exit code 1)."""


# Reference orders of magnitude for the printed budget comparison; the
# pass band around each is [ref/10, ref*10].
_ORDER_REFS = {
    "delta_v": 10e-6,        # V
    "signal_rms": 100e-6,    # V
    "E_A": 1e-3 * P.E_CHARGE,    # J (1 meV)
    "E_1": 10e-3 * P.E_CHARGE,   # J (10 meV)
    "E_B": 100e-6 * P.E_CHARGE,  # J (100 ueV, at the default L = 2l)
}

_UNITS = {
    # field -> (SI unit, scale to display unit, display unit)
    "delta_v": ("V", 1e6, "uV"),
    "signal_rms": ("V", 1e6, "uV"),
    "signal_rms_unregularized": ("V", 1e6, "uV"),
    "E_A": ("J", 1e3 / P.E_CHARGE, "meV"),
    "E_1": ("J", 1e3 / P.E_CHARGE, "meV"),
    "E_1_unregularized": ("J", 1e3 / P.E_CHARGE, "meV"),
    "E_B": ("J", 1e6 / P.E_CHARGE, "ueV"),
    "E_B_unregularized": ("J", 1e6 / P.E_CHARGE, "ueV"),
    "E_B_unregularized_shift": ("", 100.0, "%"),
    "E_B_error": ("J", 1e6 / P.E_CHARGE, "ueV"),
    "E_B_evals": ("", 1.0, ""),
    "E_B_order_estimate": ("J", 1e6 / P.E_CHARGE, "ueV"),
    "thermal": ("J", 1e6 / P.E_CHARGE, "ueV"),
    "detect_current": ("A", 1e9, "nA"),
    "eps_uv": ("m", 1e6, "um"),
    "omega_c": ("rad/s", 1.0, "rad/s"),
    "rel_tol": ("", 1.0, ""),
}


@dataclass
class RunManifest:
    """Everything needed to reproduce a command's outputs bit-exactly."""

    command: str
    version: str
    params: dict
    # the params entries that followed other inputs instead of being
    # given; a replay leaves them out so that they follow again
    derived: list
    eps_uv: float
    omega_c: float
    rel_tol: float
    grid: dict | None = None
    seed: int | None = None
    shots: int | None = None
    feedback: str | None = None
    coupling_scale: float | None = None
    ramp_fraction: float | None = None
    profile_points: int | None = None
    sweep: dict | None = None
    duration_s: float | None = None

    def write(self, out_dir: Path):
        payload = {k: v for k, v in asdict(self).items() if v is not None}
        _write_json(out_dir / "manifest.json", payload)


def _clean(v):
    """JSON-safe scalar; folds -0.0 to 0.0 for stable output bytes."""
    if isinstance(v, (np.floating, float)):
        return float(v) + 0.0
    if isinstance(v, np.integer):
        return int(v)
    return v


def _write_json(path: Path, payload: dict):
    """Write ``payload`` as JSON; a NaN or infinity raises ValueError
    before the file is opened."""
    text = json.dumps(payload, indent=2, default=_clean, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(_clean(v)) if isinstance(v, float)
                             else v for v in row])


def _parse_overrides(pairs):
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        try:
            overrides[key.strip()] = float(value)
        except ValueError:
            raise UsageError(f"--set {key}: not a number: {value!r}")
    return overrides


def _inputs(args, **point) -> dict:
    """Parameter values given by ``--params`` and ``--set``, with ``point``
    (one sweep point) applied last."""
    return P.read_inputs(args.params, {**_parse_overrides(args.set), **point})


def _load(args, **point) -> P.ExperimentParams:
    """Validated parameters from ``_inputs``."""
    return P.validate(P.ExperimentParams(**_inputs(args, **point)))


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", ".") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(command, params, args, **extra) -> RunManifest:
    given = _inputs(args)
    return RunManifest(
        command=command, version=__version__, params=params.as_dict(),
        derived=[k for k in P.DERIVED_FIELDS if k not in given],
        eps_uv=params.eps_uv, omega_c=params.omega_c,
        rel_tol=getattr(args, "tol", 1e-4), **extra)


# Subcommands -----------------------------------------------------------

def cmd_validate(args) -> int:
    params = _load(args)
    print(f"parameter set valid ({len(params.as_dict())} keys)")
    for key, value in params.as_dict().items():
        unit = P.PARAM_UNITS.get(key, "")
        print(f"  {key:14s} = {value:.6g} {unit}")
    return 0


def cmd_budget(args) -> int:
    params = _load(args)
    out = _out_dir(args)
    t0 = time.perf_counter()
    budget = energy_budget(params, rel_tol=args.tol)
    rows = []
    for key, value in budget.as_dict().items():
        si_unit, scale, disp_unit = _UNITS[key]
        if value is None:       # a ratio to a zero E_B
            rows.append([key, "", si_unit, "", disp_unit, "", "", ""])
            continue
        value = _clean(value)
        ref = _ORDER_REFS.get(key)
        lo = ref / 10.0 if ref else ""
        hi = ref * 10.0 if ref else ""
        in_band = (lo <= value <= hi) if ref else ""
        rows.append([key, float(value), si_unit,
                     float(value * scale), disp_unit, lo, hi, in_band])
    _write_csv(out / "budget.csv",
               ["quantity", "value_si", "si_unit", "value_display",
                "display_unit", "band_lo_si", "band_hi_si", "in_band"],
               rows)
    _write_json(out / "budget.json",
                {"budget": {k: _clean(v) for k, v in
                            budget.as_dict().items()},
                 "si_units": {k: u[0] for k, u in _UNITS.items()},
                 "order_bands": {k: [_clean(v / 10.0), _clean(v * 10.0)]
                                 for k, v in _ORDER_REFS.items()}})
    manifest = _manifest("budget", params, args)
    manifest.duration_s = time.perf_counter() - t0
    manifest.write(out)

    print(f"{'quantity':24s} {'value':>12s} {'unit':6s} {'order band':>24s} ok")
    for key, value, _, disp, unit, lo, hi, ok in rows:
        if disp == "":
            print(f"{key:24s} {'n/a':>12s} {unit:6s}")
        elif lo == "":
            print(f"{key:24s} {disp:12.4g} {unit:6s}")
        else:
            scale = _UNITS[key][1]
            band = f"[{lo * scale:.3g}, {hi * scale:.3g}]"
            print(f"{key:24s} {disp:12.4g} {unit:6s} {band:>24s} "
                  f"{'pass' if ok else 'FAIL'}")
    return 0


def cmd_sweep(args) -> int:
    params = _load(args)
    out = _out_dir(args)
    key = args.sweep
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"--values must be comma-separated numbers: "
                         f"{args.values!r}")
    if not values:
        raise UsageError("--values is empty")
    diffs = np.diff(values)
    if len(values) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise UsageError("sweep grid must be strictly monotone")

    t0 = time.perf_counter()
    rows = []
    for v in values:
        p = _load(args, **{key: v})
        e_b = compute_EB(p, rel_tol=args.tol)
        rows.append([float(v), float(e_b), float(e_b.error_estimate),
                     float(eb_order_estimate(p))])
    _write_csv(out / "sweep.csv",
               [key, "E_B_J", "E_B_error_J", "E_B_order_estimate_J"], rows)

    xs = np.array([r[0] for r in rows])
    ys = np.array([r[1] for r in rows])
    if len(rows) >= 2 and np.all(ys != 0.0) and xs.min() > 0:
        logx, logy = np.log(xs), np.log(np.abs(ys))
        if len(rows) > 2:
            coeffs, cov = np.polyfit(logx, logy, 1, cov=True)
            stderr = float(math.sqrt(cov[0, 0]))
        else:
            coeffs, stderr = np.polyfit(logx, logy, 1), None
        slope = float(coeffs[0])
        fit = {"slope": slope, "slope_stderr": stderr,
               "n_points": len(rows), "fitted_on": "log|E_B| vs log x"}
    else:
        fit = {"slope": None, "status": "not-computable",
               "n_points": len(rows)}
    _write_json(out / "fit.json", fit)

    manifest = _manifest("sweep", params, args,
                         sweep={"key": key, "values": values})
    manifest.duration_s = time.perf_counter() - t0
    manifest.write(out)
    slope_txt = (f"slope = {fit['slope']:.4f}" if fit.get("slope") is not None
                 else "slope not computable")
    print(f"swept {key} over {len(values)} points; {slope_txt}")
    return 0


def cmd_simulate(args) -> int:
    if args.shots < 2:
        raise UsageError(f"--shots must be at least 2 (the standard error "
                         f"needs two shots), got {args.shots}")
    if args.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, "
                         f"got {args.seed}")
    if args.modes < 1:
        raise UsageError(f"--modes must be at least 1, got {args.modes}")
    params = _load(args)
    t0 = time.perf_counter()
    grid = default_grid(params, n_modes=args.modes)
    # run_protocol checks the remaining options: it raises before the
    # output directory exists
    result = run_protocol(
        params, grid, feedback_mode=args.feedback, n_shots=args.shots,
        seed=args.seed, coupling_scale=args.coupling_scale,
        ramp_fraction=args.ramp_fraction, n_profile=args.profile_points)

    out = _out_dir(args)
    _write_csv(out / "shots.csv", ["shot", "outcome_V", "E_B_J"],
               [[i, float(u), float(e)] for i, (u, e) in
                enumerate(zip(result.outcome_samples, result.e_b_samples))])
    header = ["x_m"] + [f"eps_S_J_per_m_t{j}"
                        for j in range(len(result.profile_times))]
    _write_csv(out / "profile.csv", header,
               [[float(x)] + [float(result.energy_density_profile[j, i])
                              for j in range(len(result.profile_times))]
                for i, x in enumerate(result.profile_x)])

    stderr = float(result.E_B_stderr)
    # zero spread (e.g. no coupling and no feedback): not computable
    significance = (float(result.E_B_oracle) / stderr if stderr > 0
                    else None)
    summary = {
        "feedback_mode": result.feedback_mode,
        "n_shots": args.shots, "n_modes": args.modes, "seed": args.seed,
        "coupling_scale": args.coupling_scale,
        "E_B_oracle_J": _clean(result.E_B_oracle),
        "E_B_stderr_J": _clean(stderr),
        "E_B_significance_sigma": _clean(significance),
        "E_A_oracle_J": _clean(result.E_A_oracle),
        "E_1_oracle_J": _clean(result.E_1_oracle),
        "compute_EA_J": _clean(compute_EA(params)),
        "compute_E1_J": _clean(compute_E1(params)),
        "scaled_compute_EB_J": _clean(
            args.coupling_scale * compute_EB(params, rel_tol=args.tol)),
        "profile_times_s": [_clean(t) for t in result.profile_times],
        "subspace_rank": result.subspace_rank,
        "symplectic_residual": _clean(result.symplectic_residual),
        "wrap_margin_m": _clean(result.wrap_margin_m),
    }
    _write_json(out / "summary.json", summary)

    manifest = _manifest(
        "simulate", params, args,
        grid={"n_modes": grid.n_modes, "ring_length": grid.ring_length},
        seed=args.seed, shots=args.shots, feedback=args.feedback,
        coupling_scale=args.coupling_scale, ramp_fraction=args.ramp_fraction,
        profile_points=args.profile_points)
    manifest.duration_s = time.perf_counter() - t0
    manifest.write(out)
    ue = 1e6 / P.E_CHARGE
    print(f"{args.feedback} feedback, {args.shots} shots: "
          f"E_B = {result.E_B_oracle * ue:.4f} +- {stderr * ue:.4f} ueV "
          + (f"({significance:.1f} sigma)" if significance is not None
             else "(significance not computable)"))
    return 0


def cmd_convert(args) -> int:
    params = _load(args)
    if (args.current is None) == (args.energy_density is None):
        raise UsageError("pass exactly one of --current / --energy-density")
    if args.current is not None:
        j = args.current
        eps = energy_density_from_current(j, params)
    else:
        eps = args.energy_density
        j = current_from_energy_density(eps, params)
    eps_disp = eps / P.E_CHARGE * 1e6 / 1e6  # J/m -> ueV/um
    print(f"current         j   = {j:.6g} A ({j * 1e9:.6g} nA)")
    print(f"energy density  eps = {eps:.6g} J/m ({eps_disp:.6g} ueV/um)")
    round_trip = current_from_energy_density(
        energy_density_from_current(j, params), params)
    ok = math.isclose(round_trip, j, rel_tol=1e-12, abs_tol=1e-30)
    print(f"round trip: {round_trip:.6g} A ({'consistent' if ok else 'MISMATCH'})")
    return 0 if ok else 2


# Parser ----------------------------------------------------------------

def _rel_tol(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"must lie in the open interval (0, 1), got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--params", metavar="FILE",
                        help="parameter file (key = value [unit] lines)")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one parameter (repeatable)")
    common.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: .)")
    common.add_argument("--tol", type=_rel_tol, default=1e-4,
                        help="quadrature relative tolerance, in (0, 1) "
                             "(default 1e-4)")

    parser = argparse.ArgumentParser(
        prog="edgeqet",
        description="Energy budget of measurement-feedback energy "
                    "extraction on quantum Hall edge channels.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", parents=[common],
                   help="check parameters and print the resolved set")
    sub.add_parser("budget", parents=[common],
                   help="compute the full energy budget")

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="sweep a parameter and fit the E_B slope")
    p_sweep.add_argument("--sweep", default="L", metavar="KEY",
                         help="parameter to sweep (default L)")
    p_sweep.add_argument("--values", required=True, metavar="V1,V2,...",
                         help="comma-separated grid (strictly monotone)")

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run the Gaussian protocol oracle")
    p_sim.add_argument("--shots", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--modes", type=int, default=256)
    p_sim.add_argument("--feedback", default="correlated",
                       choices=("correlated", "scrambled", "off"))
    p_sim.add_argument("--coupling-scale", type=float, default=1.0,
                       dest="coupling_scale")
    p_sim.add_argument("--ramp-fraction", type=float, default=0.05,
                       dest="ramp_fraction")
    p_sim.add_argument("--profile-points", type=int, default=512,
                       dest="profile_points")

    p_conv = sub.add_parser("convert", parents=[common],
                            help="convert current <-> energy density")
    p_conv.add_argument("--current", type=float, metavar="A")
    p_conv.add_argument("--energy-density", type=float, metavar="J_PER_M",
                        dest="energy_density")
    return parser


_HANDLERS = {
    "validate": cmd_validate,
    "budget": cmd_budget,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "convert": cmd_convert,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract here is 1
        return 0 if exc.code in (0, None) else 1
    try:
        return _HANDLERS[args.command](args)
    except (UsageError, P.ParamFileError, P.ValidationError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceFailure, StepInstability,
            DegenerateObservable) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
