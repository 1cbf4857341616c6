"""Tests of the benchmark itself: each output check fires on a bad output,
the tracer restores what it wraps, BENCHMARK.json matches the tables, and
run.py refuses to run without the program's sources.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from tracing import Tracer, add_self_times  # noqa: E402
from workloads import (END_TO_END, PER_LAYER, SIM_SHOTS, TOL,  # noqa: E402
                       WORKLOADS, scan_calls, sweep_argv)

from edgeqet import cli  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return checks.load_reference()


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    assert cli.main(sweep_argv(0, str(out))) == 0
    return out


@pytest.fixture(scope="module")
def simulate_out(tmp_path_factory):
    # 32 modes keeps this fast; E_A, E_1 and the checks do not depend on it
    out = tmp_path_factory.mktemp("simulate")
    assert cli.main(["simulate", "--modes", "32", "--shots", str(SIM_SHOTS),
                     "--seed", "3", "--tol", repr(TOL),
                     "--out", str(out)]) == 0
    return out


def _copy(src, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


def _edit_json(path, key, fn):
    payload = json.loads(path.read_text())
    payload[key] = fn(payload[key])
    path.write_text(json.dumps(payload))


def test_sweep_check_accepts_program_output(sweep_out, ref):
    assert checks.check_sweep(sweep_out, ref, TOL) == []


def test_sweep_check_fires_on_scaled_EB(sweep_out, ref, tmp_path):
    bad = _copy(sweep_out, tmp_path)
    lines = (bad / "sweep.csv").read_text().splitlines()
    head, rows = lines[0], [line.split(",") for line in lines[1:]]
    for row in rows:
        row[1] = repr(float(row[1]) * 1.01)
    (bad / "sweep.csv").write_text(
        "\n".join([head] + [",".join(r) for r in rows]) + "\n")
    assert checks.check_sweep(bad, ref, TOL)


def test_sweep_check_fires_on_missing_point(sweep_out, ref, tmp_path):
    bad = _copy(sweep_out, tmp_path)
    lines = (bad / "sweep.csv").read_text().splitlines()
    (bad / "sweep.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_sweep(bad, ref, TOL)


def test_sweep_check_fires_on_nan_slope(sweep_out, ref, tmp_path):
    bad = _copy(sweep_out, tmp_path)
    _edit_json(bad / "fit.json", "slope", lambda s: math.nan)
    assert checks.check_sweep(bad, ref, TOL)


def test_simulate_check_accepts_program_output(simulate_out, ref):
    assert checks.check_simulate(simulate_out, ref, TOL, SIM_SHOTS) == []


@pytest.mark.parametrize("key, corrupt", [
    ("E_B_oracle_J", lambda v: math.nan),
    ("E_1_oracle_J", lambda v: 1.2 * v),
    ("E_A_oracle_J", lambda v: 0.8 * v),
    ("compute_EA_J", lambda v: 1.01 * v),
    ("scaled_compute_EB_J", lambda v: 1.01 * v),
])
def test_simulate_check_fires(simulate_out, ref, tmp_path, key, corrupt):
    bad = _copy(simulate_out, tmp_path)
    _edit_json(bad / "summary.json", key, corrupt)
    assert checks.check_simulate(bad, ref, TOL, SIM_SHOTS)


def test_simulate_check_fires_on_nan_in_csv(simulate_out, ref, tmp_path):
    bad = _copy(simulate_out, tmp_path)
    lines = (bad / "shots.csv").read_text().splitlines()
    lines[5] = ",".join(lines[5].split(",")[:-1] + ["nan"])
    (bad / "shots.csv").write_text("\n".join(lines) + "\n")
    assert checks.check_simulate(bad, ref, TOL, SIM_SHOTS)


def test_shot_bound_shrinks_with_shots():
    assert checks.shot_bound("E_1", 16000) < checks.shot_bound("E_1", 4000)


def _scan_records():
    # E_B and s.e. in ueV as measured at 128 modes and 20000 shots
    measured = {("correlated", 0.04): (0.618, 0.0061),
                ("correlated", 0.02): (0.564, 0.0056),
                ("correlated", 0.01): (0.345, 0.0035),
                ("scrambled", 0.04): (-1.012, 0.0155),
                ("scrambled", 0.02): (-0.252, 0.0063),
                ("scrambled", 0.01): (-0.062, 0.0030),
                ("off", 0.04): (0.0082, 1e-6),
                ("off", 0.02): (0.0021, 1e-6),
                ("off", 0.01): (0.0005, 1e-6)}
    return [{"feedback": mode, "coupling": g, "E_B": e, "E_B_stderr": se,
             "finite": True}
            for (mode, g), (e, se) in measured.items()]


@pytest.mark.parametrize("index, change", [
    (0, {"E_B": math.nan}),
    (2, {"E_B": 0.01}),                 # correlated below 5 s.e.
    (5, {"E_B": 0.05}),                 # scrambled extracts
    (8, {"E_B": 0.2}),                  # off is not ~0
    (4, {"finite": False}),
])
def test_scan_check_fires(index, change):
    records = _scan_records()
    assert checks.check_scan(records) == []
    records[index].update(change)
    assert checks.check_scan(records)


def test_scan_calls_never_share_a_seed():
    seeds = [s for i in range(50) for _, _, s in scan_calls(7, i)]
    assert len(set(seeds)) == len(seeds) == 450


def test_tracer_records_nested_spans_and_restores():
    import edgeqet.energetics as E

    original = cli.compute_EB
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.compute_EB is E.compute_EB is not original
        with tracer.span("outer"):
            E.compute_EA(E.P.default_paper_params())
    finally:
        tracer.uninstall()
    assert cli.compute_EB is E.compute_EB is original
    add_self_times(tracer.spans)
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["energetics.compute_EA"]["parent"] == by_name["outer"]["id"]
    assert 0.0 <= by_name["outer"]["self_s"] <= (by_name["outer"]["end"]
                                                - by_name["outer"]["start"])


def test_benchmark_json_matches_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: unit for k, (unit, _) in PER_LAYER.items()}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-L",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
