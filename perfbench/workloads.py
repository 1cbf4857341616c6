"""Workload and metric tables shared by the orchestrator and the worker.

Standard library only: ``run.py`` reads these tables without importing
numpy, so that the BLAS thread pools can be pinned before any process
of the benchmark loads it.
"""

# Quadrature tolerance of every E_B the workloads ask for (the CLI default).
TOL = 1e-4

# L = 2l, 2.5l, ..., 6l at the default l = 10 um; the sign change of E_B
# near 4.5l is inside the grid.
SWEEP_L = tuple(float(f"{20 + 5 * k}e-6") for k in range(9))

SIM_SHOTS = 4000

SCAN_MODES = ("correlated", "scrambled", "off")
SCAN_COUPLINGS = (0.04, 0.02, 0.01)


def sweep_argv(seed, out):
    # E_B takes no seed: the sweep's inputs are the same for every seed.
    return ["sweep", "--values", ",".join(repr(v) for v in SWEEP_L),
            "--tol", repr(TOL), "--out", out]


def simulate_argv(seed, out):
    return ["simulate", "--shots", str(SIM_SHOTS), "--seed", str(seed),
            "--tol", repr(TOL), "--out", out]


def scan_calls(seed, iteration):
    """(feedback_mode, coupling_scale, run_protocol seed) of one iteration.

    No two calls of a run share a seed, so no two share all inputs.
    """
    pairs = [(mode, g) for mode in SCAN_MODES for g in SCAN_COUPLINGS]
    return [(mode, g, seed * 10_000 + len(pairs) * iteration + j)
            for j, (mode, g) in enumerate(pairs)]


# Why each workload was chosen, and what should move on it, is the "why"
# of its entry in BENCHMARK.json.
# kind "cli": every iteration is a fresh interpreter running cli.main(argv).
# kind "scan": one warm process calls the library API.
# "oracle" holds the run_protocol settings of the workload; the traced
# run's probe uses them for the oracle layers the iterations do not call.
# "probe" names the layer groups the probe must cover for that reason;
# evolve and measure_gaussian are called by no workload and always probed.
WORKLOADS = {
    "sweep-L": {
        "kind": "cli",
        "entry": "edgeqet.cli",
        "argv": sweep_argv,
        "oracle": {"n_modes": 128, "ramp_fraction": 0.0, "n_shots": 20000,
                   "n_profile": 1024, "coupling": 0.01},
        "probe": ("closed_forms", "protocol"),
    },
    "simulate-ramped-256": {
        "kind": "cli",
        "entry": "edgeqet.cli",
        "argv": simulate_argv,
        "oracle": {"n_modes": 256, "ramp_fraction": 0.05,
                   "n_shots": SIM_SHOTS, "n_profile": 512, "coupling": 1.0},
        "probe": (),
    },
    "oracle-scan-128": {
        "kind": "scan",
        "entry": "edgeqet",
        "oracle": {"n_modes": 128, "ramp_fraction": 0.0, "n_shots": 20000,
                   "n_profile": 1024, "coupling": max(SCAN_COUPLINGS)},
        "probe": ("eb", "closed_forms", "cli"),
    },
}

# Per-layer metric -> (unit, which end-to-end metric it should move, where).
PER_LAYER = {
    "import.scipy_linalg_s": (
        "s", "setup_s on all three workloads, most on sweep-L"),
    "energetics.compute_EB_s": (
        "s", "wall_s on sweep-L, a little on simulate-ramped-256, "
             "none on oracle-scan-128"),
    "quadrature.eb_evals": ("count", "wall_s on sweep-L"),
    "quadrature.eb_subdivisions": ("count", "wall_s on sweep-L"),
    "quadrature.eb_evals_per_s": ("1/s", "wall_s on sweep-L"),
    "quadrature.eb_rel_err_est": ("ratio", "wall_s on sweep-L"),
    "energetics.closed_forms_s": (
        "s", "wall_s on simulate-ramped-256 (small)"),
    "oracle.run_protocol_s": (
        "s", "wall_s on simulate-ramped-256 and oracle-scan-128"),
    # both per run_protocol call; sudden switching still makes 11 calls,
    # 10 of them with a zero time step
    "oracle.expm_s": ("s", "wall_s on simulate-ramped-256"),
    "oracle.expm_calls": ("count", "wall_s on simulate-ramped-256"),
    "oracle.evolve_s": ("s", "wall_s on simulate-ramped-256"),
    "oracle.profile_s": ("s", "wall_s on oracle-scan-128"),
    "oracle.build_hamiltonians_s": (
        "s", "wall_s on simulate-ramped-256 and oracle-scan-128"),
    "oracle.measure_s": (
        "s", "wall_s on simulate-ramped-256 and oracle-scan-128"),
    "cli.overhead_s": ("s", "wall_s on sweep-L and simulate-ramped-256"),
    "cli.out_bytes": ("bytes", "wall_s on sweep-L and simulate-ramped-256"),
    "trace.overhead_s": (
        "s", "none: traced minus untraced iteration wall time"),
}

# Reported only while energetics._eb_integral returns a QuadResult.
QUAD_METRICS = ("quadrature.eb_evals", "quadrature.eb_subdivisions",
                "quadrature.eb_evals_per_s", "quadrature.eb_rel_err_est")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
