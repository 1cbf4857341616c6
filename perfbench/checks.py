"""Correctness checks on the program's outputs.

Each check returns a list of problems; an iteration with any problem
counts as failed.  Standard library only, so ``run.py`` can check CLI
outputs without importing numpy.
"""

import csv
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# Shot-noise bound for shot means of a squared Gaussian outcome: the
# relative standard deviation of mean(u^2) over n shots is sqrt(2/n), and
# the chi-square tail beyond 6 of them is below 1e-8 for n >= 1000
# (Wilson-Hilferty), so a correct program fails on far fewer than one
# seed in 10^6.
SHOT_SIGMAS = 6.0
# Systematic offsets of the oracle from the closed forms: E_A matches to
# rounding, E_1 is 1.3% high on the default grid (both 128 and 256 modes).
SYSTEMATIC = {"E_A": 0.01, "E_1": 0.03}

# oracle-scan thresholds, in standard errors of each call's E_B.
MIN_CORRELATED_SIGMA = 5.0
MAX_SCRAMBLED_SIGMA = 3.0
# "off" has no first-order term; its O(g^2) residue must stay below this
# share of the correlated E_B at the same coupling (measured: <= 1.3%).
MAX_OFF_SHARE = 0.05


def load_reference():
    return read_json(REFERENCE)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def read_json(path):
    """json.load that refuses NaN and Infinity."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def _numbers(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)


def nonfinite_problems(out_dir):
    """Every JSON file must parse without NaN/Infinity; every CSV cell
    that reads as a number must be finite."""
    problems = []
    for path in sorted(Path(out_dir).iterdir()):
        if path.suffix == ".json":
            try:
                payload = read_json(path)
            except ValueError as exc:
                problems.append(f"{path.name}: {exc}")
                continue
            if not all(math.isfinite(v) for v in _numbers(payload)):
                problems.append(f"{path.name}: non-finite number")
        elif path.suffix == ".csv":
            with open(path, encoding="utf-8", newline="") as fh:
                for row in csv.reader(fh):
                    for cell in row:
                        try:
                            value = float(cell)
                        except ValueError:
                            continue
                        if not math.isfinite(value):
                            problems.append(f"{path.name}: {cell!r}")
                            break
    return problems


def _rel_off(value, ref):
    return abs(value / ref - 1.0)


def check_sweep(out_dir, ref, tol):
    """Every E_B within 2*tol of the reference, measured against the
    largest |E_B| of the sweep (E_B crosses zero near 4.5l); the fit holds
    a finite slope."""
    out_dir = Path(out_dir)
    problems = nonfinite_problems(out_dir)
    if problems:
        return problems
    with open(out_dir / "sweep.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    ref_L, ref_eb = ref["sweep"]["L_m"], ref["sweep"]["E_B_J"]
    if len(rows) != len(ref_L):
        return [f"sweep.csv has {len(rows)} rows, expected {len(ref_L)}"]
    allowed = 2.0 * tol * max(abs(e) for e in ref_eb)
    for row, L, e_ref in zip(rows, ref_L, ref_eb):
        if float(row[0]) != L:
            problems.append(f"L {row[0]} != {L!r}")
        elif abs(float(row[1]) - e_ref) > allowed:
            problems.append(f"E_B({L!r}) = {row[1]}, reference {e_ref!r} "
                            f"+- {allowed:.3g}")
    slope = read_json(out_dir / "fit.json").get("slope")
    if not isinstance(slope, float) or not math.isfinite(slope):
        problems.append(f"fit.json slope {slope!r} is not a finite number")
    return problems


def shot_bound(quantity, n_shots):
    return SYSTEMATIC[quantity] + SHOT_SIGMAS * math.sqrt(2.0 / n_shots)


def check_simulate(out_dir, ref, tol, n_shots, coupling=1.0):
    """summary.json is finite JSON; the oracle's E_A and E_1 agree with the
    closed forms within the shot-noise bound; the closed forms and the
    scaled E_B the program reports match the reference."""
    out_dir = Path(out_dir)
    problems = nonfinite_problems(out_dir)
    if problems:
        return problems
    s = read_json(out_dir / "summary.json")
    if s.get("n_shots") != n_shots:
        problems.append(f"n_shots {s.get('n_shots')!r} != {n_shots}")
    for q, closed_key in (("E_A", "compute_EA_J"), ("E_1", "compute_E1_J")):
        off = _rel_off(s[f"{q}_oracle_J"], ref[f"{q}_J"])
        if not off <= shot_bound(q, n_shots):
            problems.append(f"{q}_oracle off the closed form by {off:.3%} "
                            f"> {shot_bound(q, n_shots):.3%}")
        off = _rel_off(s[closed_key], ref[f"{q}_J"])
        if not off <= 1e-9:
            problems.append(f"{closed_key} off the reference by {off:.3g}")
    eb_ref = coupling * ref["sweep"]["E_B_J"][0]
    if not abs(s["scaled_compute_EB_J"] - eb_ref) <= 2.0 * tol * abs(eb_ref):
        problems.append(f"scaled_compute_EB_J {s['scaled_compute_EB_J']!r} "
                        f"!= reference {eb_ref!r}")
    return problems


def check_scan(records):
    """records: one dict per run_protocol call with keys feedback,
    coupling, E_B, E_B_stderr and finite (all returned arrays finite)."""
    problems = []
    correlated = {}
    for r in records:
        if not r["finite"] or not (math.isfinite(r["E_B"])
                                   and math.isfinite(r["E_B_stderr"])):
            problems.append(f"{r['feedback']} g={r['coupling']}: non-finite")
        elif r["feedback"] == "correlated":
            correlated[r["coupling"]] = r["E_B"]
            if not r["E_B"] >= MIN_CORRELATED_SIGMA * r["E_B_stderr"]:
                problems.append(
                    f"correlated g={r['coupling']}: E_B {r['E_B']!r} below "
                    f"{MIN_CORRELATED_SIGMA} s.e. {r['E_B_stderr']!r}")
        elif r["feedback"] == "scrambled":
            if not r["E_B"] <= MAX_SCRAMBLED_SIGMA * r["E_B_stderr"]:
                problems.append(
                    f"scrambled g={r['coupling']}: E_B {r['E_B']!r} above "
                    f"{MAX_SCRAMBLED_SIGMA} s.e. {r['E_B_stderr']!r}")
    for r in records:
        if r["feedback"] == "off" and r["coupling"] in correlated:
            limit = MAX_OFF_SHARE * abs(correlated[r["coupling"]])
            if not abs(r["E_B"]) <= limit:
                problems.append(f"off g={r['coupling']}: |E_B| {r['E_B']!r} "
                                f"> {limit!r}")
    return problems
