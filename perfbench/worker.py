"""One fresh interpreter of the benchmark: ``worker.py MODE ENTRY JOB``.

MODE is one of
  setup  import ENTRY and build the workload's shared inputs, nothing more;
  cli    import edgeqet.cli and run cli.main(JOB["argv"]) once;
  scan   the oracle-scan-128 workload in this one warm process;
  probe  time the layers a traced workload's iterations do not call.
ENTRY is the module whose import is timed as set-up, before anything
else runs.  JOB is a JSON object; the worker writes its result as JSON to
JOB["result"].  run.py starts workers with the BLAS thread pools pinned.
"""

import sys
import time


def main():
    t0 = time.perf_counter()
    __import__(sys.argv[2])
    setup_s = time.perf_counter() - t0

    import json
    import resource
    import warnings

    mode, job = sys.argv[1], json.loads(sys.argv[3])
    from edgeqet.params import FastDetectorWarning
    warnings.simplefilter("ignore", FastDetectorWarning)
    result = {"setup_span": [t0, t0 + setup_s]}
    if mode == "setup":
        if job.get("shared_inputs"):
            _shared_inputs(job["workload"])
        result["setup_s"] = time.perf_counter() - t0
        if job.get("facts"):
            result["facts"] = _machine_facts()
    elif mode == "cli":
        result.update(_run_cli(job), setup_s=setup_s)
    elif mode == "scan":
        params, grid = _shared_inputs(job["workload"])
        result["setup_s"] = time.perf_counter() - t0
        result.update(_run_scan(job, params, grid))
    elif mode == "probe":
        result.update(_run_probe(job))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _shared_inputs(workload):
    """Parameters and mode grid that every iteration of a workload reuses."""
    from edgeqet import default_grid, default_paper_params, validate
    from workloads import WORKLOADS

    params = validate(default_paper_params())
    return params, default_grid(params,
                                n_modes=WORKLOADS[workload]["oracle"]["n_modes"])


def _machine_facts():
    import ctypes
    import os
    import platform

    import numpy as np
    import scipy

    blas = {}
    for name, lib in (("numpy", np), ("scipy", scipy)):
        info = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[name] = f"{info.get('name')} {info.get('version')}"
    # threads the loaded OpenBLAS builds actually use
    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": threads, "machine": platform.machine()}


def _run_cli(job):
    import edgeqet.cli as cli
    from tracing import Tracer

    tracer = Tracer(root_parent=job.get("parent"))
    tracer.trace = job.get("trace_id")
    if job["traced"]:
        tracer.install()
    try:
        with tracer.span("cli.main"):
            rc = cli.main(job["argv"])
    finally:
        tracer.uninstall()
    return {"rc": rc, "spans": tracer.spans}


def _run_scan(job, params, grid):
    """Iterations of 9 run_protocol calls until job["seconds"] have passed
    (at least two when traced: even iterations traced, odd ones not)."""
    import traceback
    from contextlib import nullcontext

    import numpy as np

    from checks import check_scan
    from edgeqet import oracle as O
    from tracing import Tracer
    from workloads import WORKLOADS, scan_calls

    cfg = WORKLOADS[job["workload"]]["oracle"]
    tracer = Tracer()
    iterations = []
    start = time.perf_counter()
    i = 0
    while (i < (2 if job["trace"] else 1)
           or time.perf_counter() - start < job["seconds"]):
        traced = job["trace"] and i % 2 == 0
        tracer.trace = i
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            with tracer.span("iteration") if traced else nullcontext():
                runs = [(mode, g, O.run_protocol(
                            params, grid, feedback_mode=mode,
                            n_shots=cfg["n_shots"], seed=seed,
                            coupling_scale=g,
                            ramp_fraction=cfg["ramp_fraction"],
                            n_profile=cfg["n_profile"]))
                        for mode, g, seed in scan_calls(job["seed"], i)]
            wall = time.perf_counter() - t0
            records = [{"feedback": mode, "coupling": g,
                        "E_B": r.E_B_oracle, "E_B_stderr": r.E_B_stderr,
                        "finite": bool(all(np.isfinite(a).all() for a in (
                            r.e_b_samples, r.outcome_samples,
                            r.energy_density_profile)))}
                       for mode, g, r in runs]
            problems = check_scan(records)
        except Exception:  # a failed iteration is counted, not fatal
            wall, problems = None, [traceback.format_exc()]
        finally:
            tracer.uninstall()
        iterations.append({"wall_s": wall, "traced": traced,
                           "problems": problems})
        i += 1
    return {"iterations": iterations, "spans": tracer.spans}


def _run_probe(job):
    """One call per layer group the workload's iterations leave out, plus
    evolve at the plateau coupling and measure_gaussian on the vacuum,
    all with the workload's oracle settings.  Calls go through module
    attributes so that the tracer's wrappers see them."""
    import numpy as np

    import edgeqet.cli as cli
    from edgeqet import energetics as E
    from edgeqet import oracle as O
    from edgeqet.detector import delta_v, detector_from_params
    from tracing import Tracer
    from workloads import TOL, WORKLOADS

    w = WORKLOADS[job["workload"]]
    cfg, groups = w["oracle"], w["probe"]
    params, grid = _shared_inputs(job["workload"])
    tracer = Tracer()
    tracer.trace = "probe"
    tracer.install()
    try:
        with tracer.span("probe"):
            if "eb" in groups:
                E.compute_EB(params, rel_tol=TOL)
            if "closed_forms" in groups:
                E.compute_EA(params)
                E.compute_E1(params)
            if "protocol" in groups:
                O.run_protocol(params, grid, feedback_mode="correlated",
                             n_shots=cfg["n_shots"], seed=job["seed"],
                             coupling_scale=cfg["coupling"],
                             ramp_fraction=cfg["ramp_fraction"],
                             n_profile=cfg["n_profile"])
            if "cli" in groups:
                with tracer.span("cli.main"):
                    cli.main(["budget", "--tol", repr(TOL),
                              "--out", job["out"]])
            g_s, g_u, g_int = O.build_hamiltonians(params, grid)
            t_i, t_f = O.interaction_window(params)
            plateau = (t_f - t_i) * (1.0 - 2.0 * cfg["ramp_fraction"])
            O.evolve(O.vacuum_state(grid), g_s + g_u + cfg["coupling"] * g_int,
                     plateau)
            O.measure_gaussian(O.vacuum_state(grid),
                               O.measurement_observable(params, grid),
                               delta_v(detector_from_params(params)),
                               rng=np.random.default_rng(job["seed"]))
    finally:
        tracer.uninstall()
    return {"spans": tracer.spans}


if __name__ == "__main__":
    main()
