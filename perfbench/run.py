"""Benchmark of edgeqet on three workloads (see workloads.py for why each).

Run from the repository root:

    python3 perfbench/run.py --workload sweep-L --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` it measures the end-to-end metrics: ``wall_s`` (median
wall time of one iteration; on the CLI workloads from starting the
iteration's interpreter to its exit), ``setup_s`` (median time to import the entry
module, plus building the shared grid on oracle-scan-128, in a fresh
interpreter; interpreter start-up is not counted) and ``peak_rss_mb``
(peak resident memory of the workload's process).  With ``--trace 1`` even
iterations run with spans around the calls into each edgeqet module, a
probe times the layers the iterations do not call, and the per-layer
metrics are reported; the spans, with self times, go to
``.perfbench_runs/``.  Every iteration's outputs are checked (checks.py);
``fail_frac`` is failed over attempted iterations.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Every process runs with the BLAS and
OpenMP thread pools pinned to one thread and the checkout's ``src`` as
its only PYTHONPATH entry.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_simulate, check_sweep, load_reference
from tracing import add_self_times, children_of, duration, summarize
from workloads import (END_TO_END, PER_LAYER, QUAD_METRICS, SIM_SHOTS, TOL,
                       WORKLOADS)

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 170

CHECKS = {
    "sweep-L": lambda out, ref: check_sweep(out, ref, TOL),
    "simulate-ramped-256": lambda out, ref: check_simulate(out, ref, TOL,
                                                           SIM_SHOTS),
}

median = statistics.median


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failed iteration)."""


class Runner:
    def __init__(self, root, work_dir):
        self.root = root
        self.work_dir = work_dir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        **{v: "1" for v in THREAD_VARS})
        self._jobs = 0

    def worker(self, mode, entry, job):
        """Run one worker to completion: (exit code, result, stderr).

        The exit code is None when the worker timed out and was killed.
        """
        self._jobs += 1
        result_path = self.work_dir / f"job{self._jobs}.json"
        argv = [sys.executable, str(HERE / "worker.py"), mode, entry,
                json.dumps(dict(job, result=str(result_path)))]
        try:
            proc = subprocess.run(argv, env=self.env, cwd=self.root,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, None, f"timed out after {CHILD_TIMEOUT_S} s"
        result = None
        if result_path.exists():
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
            result_path.unlink()
        return proc.returncode, result, proc.stderr

    def required(self, mode, entry, job):
        rc, result, err = self.worker(mode, entry, job)
        if rc != 0 or result is None:
            raise BenchmarkError(f"{mode} worker failed ({rc}): {err}")
        return result

    def importtime(self, module):
        """Cumulative -X importtime of ``module`` after numpy, seconds."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             f"import numpy; import {module}"],
            env=self.env, cwd=self.root, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == module:
                return int(fields[1]) * 1e-6
        raise BenchmarkError(f"no importtime line for {module}")


def cli_iterations(runner, name, seed, seconds, trace):
    w = WORKLOADS[name]
    ref = load_reference()
    iterations, spans = [], []
    start = time.perf_counter()
    i = 0
    while i < (2 if trace else 1) or time.perf_counter() - start < seconds:
        out = runner.work_dir / f"it{i}"
        out.mkdir()
        traced = bool(trace) and i % 2 == 0
        span_id = f"run.{i}"
        job = {"argv": w["argv"](seed, str(out)), "traced": traced,
               "parent": span_id, "trace_id": i}
        t0 = time.perf_counter()
        rc, res, err = runner.worker("cli", w["entry"], job)
        t1 = time.perf_counter()
        if rc != 0 or res is None or res["rc"] != 0:
            problems = [f"exit code {rc}, cli.main returned "
                        f"{res and res['rc']}: {err[-2000:]}"]
        else:
            problems = CHECKS[name](out, ref)
        it = {"wall_s": t1 - t0, "traced": traced, "problems": problems,
              "out_bytes": sum(p.stat().st_size for p in out.iterdir())}
        if res is not None:
            it.update(setup_s=res["setup_s"], rss_kb=res["peak_rss_kb"])
            if traced:
                spans.append({"id": span_id, "trace": i, "name": "iteration",
                              "parent": None, "start": t0, "end": t1})
                spans.append({"id": f"{span_id}.import", "trace": i,
                              "name": f"import {w['entry']}",
                              "parent": span_id,
                              "start": res["setup_span"][0],
                              "end": res["setup_span"][1]})
                spans.extend(res["spans"])
        iterations.append(it)
        shutil.rmtree(out)
        i += 1
    return iterations, spans


def scan_iterations(runner, name, seed, seconds, trace):
    res = runner.required("scan", WORKLOADS[name]["entry"],
                          {"workload": name, "seed": seed,
                           "seconds": seconds, "trace": bool(trace)})
    for it in res["iterations"]:
        it["rss_kb"] = res["peak_rss_kb"]
    return res["iterations"], res["spans"], res["setup_s"]


def layer_metrics(spans, iterations, out_bytes, importtime):
    """Per-layer metrics from the spans of the traced iterations and the
    probe (see PER_LAYER for what each should move)."""
    named = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)
    kids = children_of(spans)

    def med_duration(name):
        return median(duration(s) for s in named[name])

    m = {"import.scipy_linalg_s": median(importtime),
         "energetics.compute_EB_s": med_duration("energetics.compute_EB")}
    quad = named.get("energetics._eb_integral", [])
    if quad:
        m["quadrature.eb_evals"] = median(s["n_evals"] for s in quad)
        m["quadrature.eb_subdivisions"] = median(s["subdivisions"]
                                                 for s in quad)
        m["quadrature.eb_evals_per_s"] = median(s["n_evals"] / duration(s)
                                                for s in quad)
        m["quadrature.eb_rel_err_est"] = median(s["rel_err_est"]
                                                for s in quad)
    # E_A and E_1 are computed side by side: sum them per calling span
    closed = {}
    for s in (named["energetics.compute_EA"]
              + named["energetics.compute_E1"]):
        closed[s["parent"]] = closed.get(s["parent"], 0.0) + duration(s)
    m["energetics.closed_forms_s"] = median(closed.values())
    protocol = named["oracle.run_protocol"]
    m["oracle.run_protocol_s"] = med_duration("oracle.run_protocol")
    m["oracle.profile_s"] = median(
        sum(duration(c) for c in kids.get(s["id"], ())
            if c["name"] == "oracle.local_energy_density") for s in protocol)
    m["oracle.expm_s"] = median(
        sum(duration(c) for c in kids.get(s["id"], ())
            if c["name"] == "oracle.expm") for s in protocol)
    m["oracle.expm_calls"] = median(
        sum(c["name"] == "oracle.expm" for c in kids.get(s["id"], ()))
        for s in protocol)
    m["oracle.build_hamiltonians_s"] = med_duration("oracle.build_hamiltonians")
    m["oracle.evolve_s"] = med_duration("oracle.evolve")
    m["oracle.measure_s"] = med_duration("oracle.measure_gaussian")
    m["cli.overhead_s"] = median(s["self_s"] for s in named["cli.main"])
    m["cli.out_bytes"] = median(out_bytes)
    walls = {flag: [it["wall_s"] for it in iterations
                    if it["traced"] == flag and not it["problems"]]
             for flag in (True, False)}
    if walls[True] and walls[False]:
        m["trace.overhead_s"] = median(walls[True]) - median(walls[False])
    return m


def breakdown(spans):
    """Share of traced iteration wall time and of the parent span's time,
    per span name, over the traced iterations (the probe excluded)."""
    spans = [s for s in spans if s["trace"] != "probe"]
    by_id = {s["id"]: s for s in spans}
    total_wall = sum(duration(s) for s in spans if s["name"] == "iteration")
    summary = summarize(spans)
    rows = {}
    for name, stats in summary.items():
        if name == "iteration":
            continue
        parents = {}
        for s in spans:
            if s["name"] == name and s["parent"] in by_id:
                p = by_id[s["parent"]]["name"]
                parents.setdefault(p, 0.0)
                parents[p] += duration(s)
        parent = max(parents, key=parents.get) if parents else None
        rows[name] = dict(stats, of_iteration=stats["total_s"] / total_wall,
                          parent=parent,
                          of_parent=(parents[parent]
                                     / summary[parent]["total_s"]
                                     if parent else None))
    return rows


def run_workload(root, name, seed, seconds, trace):
    w = WORKLOADS[name]
    runs_dir = root / ".perfbench_runs"
    work_dir = runs_dir / f"tmp-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work_dir)
    setup_job = {"workload": name, "shared_inputs": w["kind"] == "scan"}
    try:
        # untimed warm-up: byte-compiles src and pages the libraries in
        facts = runner.required("setup", w["entry"],
                                dict(setup_job, facts=True))["facts"]
        setup = [runner.required("setup", w["entry"], setup_job)["setup_s"]
                 for _ in range(SETUP_REPEATS)]
        if w["kind"] == "cli":
            iterations, spans = cli_iterations(runner, name, seed, seconds,
                                               trace)
            setup += [it["setup_s"] for it in iterations if "setup_s" in it]
        else:
            iterations, spans, scan_setup = scan_iterations(
                runner, name, seed, seconds, trace)
            setup.append(scan_setup)
        out_bytes = [it["out_bytes"] for it in iterations
                     if "out_bytes" in it and not it["problems"]]
        if trace:
            probe_out = work_dir / "probe"
            probe_out.mkdir()
            spans += runner.required("probe", "edgeqet",
                                     {"workload": name, "seed": seed,
                                      "out": str(probe_out)})["spans"]
            if "cli" in w["probe"]:
                out_bytes.append(sum(p.stat().st_size
                                     for p in probe_out.iterdir()))
            importtime = [runner.importtime("scipy.linalg")
                          for _ in range(IMPORTTIME_REPEATS)]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(iterations)
    failed = sum(1 for it in iterations if it["problems"])
    ok = [it for it in iterations if not it["problems"]] or iterations
    walls = [it["wall_s"] for it in ok if not it["traced"]
             and it["wall_s"] is not None]
    rss = [it["rss_kb"] for it in ok if "rss_kb" in it]
    e2e = {"wall_s": median(walls) if walls else None,
           "setup_s": median(setup),
           "peak_rss_mb": median(rss) / 1024.0 if rss else None}
    facts.update(nproc=os.cpu_count(),
                 cpus_usable=len(os.sched_getaffinity(0)),
                 thread_env={v: runner.env[v] for v in THREAD_VARS})
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": facts, "attempted": attempted,
              "failed": failed, "fail_frac": failed / attempted,
              "samples": {"wall_s": len(walls), "setup_s": len(setup),
                          "peak_rss_mb": len(rss)},
              "setup_samples_s": setup, "iterations": iterations,
              "end_to_end": e2e}
    if trace:
        add_self_times(spans)
        layers = layer_metrics(spans, iterations, out_bytes, importtime)
        shares = breakdown(spans)
        record.update(per_layer=layers, breakdown=shares)
        with open(runs_dir / f"trace-{name}-seed{seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed, "spans": spans,
                       "summary": summarize(spans), "breakdown": shares},
                      fh, indent=1)
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]}
                   for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in e2e.items()}
    with open(runs_dir / f"result-{name}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    report(record)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def report(rec):
    n = rec["samples"]
    e2e = {k: "n/a" if v is None else f"{v:.4f}"
           for k, v in rec["end_to_end"].items()}
    print(f"{rec['workload']}  seed={rec['seed']}  trace={rec['trace']}  "
          f"{rec['attempted']} iterations")
    print(f"  wall_s       {e2e['wall_s']} s   median of {n['wall_s']} "
          f"untraced iterations")
    print(f"  setup_s      {e2e['setup_s']} s   median of "
          f"{n['setup_s']} fresh interpreters")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']} MB  median of "
          f"{n['peak_rss_mb']} workload processes")
    print(f"  fail_frac    {rec['fail_frac']:.4g}      {rec['failed']} of "
          f"{rec['attempted']} iterations failed")
    for it in rec["iterations"]:
        for problem in it["problems"]:
            print(f"  FAILED: {problem}")
    m = rec["machine"]
    print(f"  machine: nproc={m['nproc']} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} blas={m['blas']} "
          f"blas_threads={m['blas_threads']} (thread pools pinned to 1)")
    if "per_layer" in rec:
        print("  per-layer (traced run):")
        for k, v in rec["per_layer"].items():
            unit, mover = PER_LAYER[k]
            print(f"    {k:30s} {v:12.6g} {unit:6s} moves {mover}")
        absent = [k for k in QUAD_METRICS if k not in rec["per_layer"]]
        if absent:
            print(f"    absent (no energetics._eb_integral): {absent}")
        print("  breakdown: span, calls, total s, self s, share of traced "
              "iteration wall, share of parent span")
        for k, r in sorted(rec["breakdown"].items(),
                           key=lambda kv: -kv[1]["total_s"]):
            of_parent = (f"{r['of_parent']:6.1%} of {r['parent']}"
                         if r["parent"] else "")
            print(f"    {k:30s} {r['calls']:4d} {r['total_s']:9.3f} "
                  f"{r['self_s']:9.3f} {r['of_iteration']:6.1%}  {of_parent}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = Path.cwd()
    if not (root / "src" / "edgeqet" / "__init__.py").is_file():
        print(f"error: no src/edgeqet under {root}; run from the root of an "
              "edgeqet checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(root, name, args.seed, args.seconds,
                                      args.trace) for name in names}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
