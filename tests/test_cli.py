"""Command-line interface: artifacts, exit codes, and reproducibility."""

import argparse
import ast
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import edgeqet
from edgeqet import cli, energetics, oracle, propagator
from edgeqet import params as P


def run(argv):
    return cli.main(argv)


# validate ---------------------------------------------------------------

def test_validate_defaults(capsys):
    assert run(["validate"]) == 0
    out = capsys.readouterr().out
    assert "parameter set valid" in out
    assert "v_g" in out and "nu_S" in out


def test_validate_rejects_bad_file(tmp_path, capsys):
    f = tmp_path / "bad.par"
    f.write_text("v_g = snail\n", encoding="utf-8")
    assert run(["validate", "--params", str(f)]) == 1
    assert "1" in capsys.readouterr().err  # line number surfaced
    # R = 0 leaves omega_c = 100/(R*C) undefined: a validation error
    f.write_text("R = 0 ohm\n", encoding="utf-8")
    assert run(["validate", "--params", str(f)]) == 1
    assert "R = 0.0" in capsys.readouterr().err


def test_validate_rejects_bad_override(capsys):
    assert run(["validate", "--set", "v_g=-1"]) == 1
    assert run(["validate", "--set", "R=0"]) == 1
    assert run(["validate", "--set", "warp=9"]) == 1
    assert run(["validate", "--set", "v_g"]) == 1
    err = capsys.readouterr().err
    assert "v_g" in err


def test_unknown_subcommand_is_usage_error():
    assert run(["teleport"]) == 1


@pytest.mark.parametrize("argv", [
    ["validate", "--out", "{out}"],
    ["validate", "--tol", "0.5"],
    ["convert", "--current", "1e-8", "--out", "{out}"],
    ["convert", "--current", "1e-8", "--tol", "0.5"],
])
def test_options_only_where_they_act(tmp_path, capsys, argv):
    """validate and convert write no file and run no quadrature, so they
    refuse --out and --tol as usage errors instead of ignoring them."""
    out = tmp_path / "out"
    argv = [a.format(out=out) for a in argv]
    assert run(argv) == 1
    assert argv[-2] in capsys.readouterr().err
    assert not out.exists()


def test_every_exported_name_resolves():
    for name in edgeqet.__all__:
        assert getattr(edgeqet, name) is not None, name


@pytest.fixture(scope="module")
def loaded_modules(tmp_path_factory):
    """The modules one fresh interpreter has loaded: ``import`` right
    after importing edgeqet.cli, ``commands`` after it then runs budget,
    sweep and a small simulate through cli.main, whose exit codes are
    ``codes``."""
    out = str(tmp_path_factory.mktemp("probe"))
    src = str(Path(edgeqet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    commands = [["budget"], ["sweep", "--values", "2e-5,3e-5"],
                ["simulate", "--modes", "32", "--shots", "50"]]
    code = ("import sys, edgeqet.cli; loaded = sorted(sys.modules); "
            "import json, warnings; warnings.simplefilter('ignore'); "
            f"codes = [edgeqet.cli.main(a + ['--out', {out!r}]) "
            f"for a in {commands!r}]; "
            "print(json.dumps({'import': loaded, 'codes': codes, "
            "'commands': sorted(sys.modules)}))")
    stdout = subprocess.run([sys.executable, "-c", code], env=env,
                            check=True, capture_output=True, text=True,
                            timeout=120).stdout
    return json.loads(stdout.splitlines()[-1])


def _commands_loaded(loaded_modules, package):
    """The modules of ``package`` (a dotted prefix) loaded once the
    probe's commands have run; each of them must have succeeded."""
    assert loaded_modules["codes"] == [0, 0, 0]
    return [m for m in loaded_modules["commands"]
            if (m + ".").startswith(package + ".")]


def test_import_loads_no_scipy_submodules(loaded_modules):
    """scipy.linalg loads at first use, not at import; scipy.special
    never loads (the Faddeeva function is evaluated in numpy); the
    window propagator loads with the first run_protocol call, so
    commands that never simulate do not compile it."""
    assert not {"scipy.linalg", "scipy.special", "edgeqet.propagator"} & set(
        loaded_modules["import"])


def test_commands_load_no_scipy(loaded_modules):
    """budget, sweep and simulate run without importing any scipy
    module: only oracle.expm and oracle.evolve need scipy.linalg."""
    assert _commands_loaded(loaded_modules, "scipy") == []


def test_commands_load_no_numpy_polynomial(loaded_modules):
    """The Gauss-Legendre rules are built in house
    (``energetics._leggauss``), so budget, sweep and simulate never
    import numpy.polynomial."""
    assert _commands_loaded(loaded_modules, "numpy.polynomial") == []


def test_commands_load_no_numpy_fft(loaded_modules):
    """Weideman's Faddeeva coefficients are written out
    (``chiral_field._WEIDEMAN_COEFFS``), so budget, sweep and simulate
    never import numpy.fft."""
    assert _commands_loaded(loaded_modules, "numpy.fft") == []


def test_budget_and_sweep_make_no_lapack_call(tmp_path, monkeypatch):
    """The Gauss-Legendre rules (``energetics._leggauss``) and the slope
    fit (``energetics.loglog_slope``) use no numpy.linalg: with every
    LAPACK entry point raising and the rules rebuilt, budget and sweep
    write the same files as without."""
    from numpy.linalg import _umath_linalg
    commands = [["budget"], ["sweep", "--values", "2e-5,3e-5,4e-5"]]

    def outputs(tag):
        files = {}
        for argv in commands:
            energetics._legendre_rule.cache_clear()
            out = tmp_path / tag / argv[0]
            assert run([*argv, "--out", str(out)]) == 0
            for path in out.iterdir():
                files[argv[0], path.name] = path.read_bytes()
            manifest = json.loads(files.pop((argv[0], "manifest.json")))
            del manifest["duration_s"]
            files[argv[0], "manifest.json"] = manifest
        return files

    expected = outputs("plain")

    def lapack(*args, **kwargs):
        raise AssertionError("numpy.linalg called")
    for name in dir(_umath_linalg):
        if callable(getattr(_umath_linalg, name)):
            monkeypatch.setattr(_umath_linalg, name, lapack)
    assert outputs("no-lapack") == expected


# budget -----------------------------------------------------------------

def test_budget_artifacts(tmp_path, capsys):
    assert run(["budget", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out
    payload = json.loads((tmp_path / "budget.json").read_text())
    assert set(payload) == {"budget", "si_units", "order_bands"}
    b = payload["budget"]
    assert b["E_A"] > b["E_B"] > 0
    assert b["delta_v"] == pytest.approx(12.43e-6, rel=1e-3, abs=0.0)
    # E_B's quadrature error estimate and evaluation count
    assert 0.0 < b["E_B_error"] <= 1e-4 * b["E_B"]
    assert isinstance(b["E_B_evals"], int) and b["E_B_evals"] > 0
    csv_text = (tmp_path / "budget.csv").read_text()
    assert csv_text.splitlines()[0].startswith("quantity,")
    assert "True" in csv_text
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "budget"
    assert manifest["params"]["L"] == 2e-5
    assert "duration_s" in manifest


def test_budget_set_override_and_zero_amplitude(tmp_path, capsys):
    assert run(["budget", "--out", str(tmp_path),
                "--set", "lambda_amp=0"]) == 0
    payload = json.loads((tmp_path / "budget.json").read_text())
    assert payload["budget"]["E_B"] == 0.0  # not -0.0
    assert payload["budget"]["E_1"] == 0.0
    assert payload["budget"]["E_B_unregularized"] == 0.0
    # a shift relative to a zero E_B is not computable: null, not NaN
    assert payload["budget"]["E_B_unregularized_shift"] is None
    out = capsys.readouterr().out
    assert "-0" not in out.split("E_B")[1].splitlines()[0]


def test_budget_without_default_regulator(tmp_path):
    # a regulator far above the window width takes the continued-fraction
    # branch of the vacuum moments
    assert run(["budget", "--out", str(tmp_path),
                "--set", "eps_uv=1e-3"]) == 0
    payload = json.loads((tmp_path / "budget.json").read_text())
    values = [v for v in payload["budget"].values() if v is not None]
    assert all(math.isfinite(v) for v in values)
    assert payload["budget"]["signal_rms"] > 0


def test_budget_non_finite_rule_exit_code(tmp_path, capsys):
    # L = 1e300 m overflows the first E_B rule; the quadrature stops
    # there instead of doubling to the node cap
    out = tmp_path / "out"
    assert run(["budget", "--out", str(out), "--set", "L=1e300"]) == 2
    err = capsys.readouterr().err
    assert "non-finite rule value" in err and "16 x 16 x 32 nodes" in err
    assert not out.exists()
    # L < 2l is refused as a validation error, also before --out exists
    assert run(["budget", "--out", str(out), "--set", "L=1.5e-5"]) == 1
    assert "< 2l" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["budget", "--set", "l=1e-300"],
    ["simulate", "--modes", "16", "--shots", "10", "--set", "C=1e-300"],
    ["simulate", "--modes", "16", "--shots", "10",
     "--set", "lambda_amp=1e200"],
    ["budget", "--set", "R=1e300"],
    ["sweep", "--set", "R=1e300", "--values", "2e-5,3e-5"],
    ["budget", "--set", "temperature=1e307"],
    ["simulate", "--modes", "16", "--shots", "10",
     "--set", "lambda_amp=1e150"],
    ["simulate", "--modes", "16", "--shots", "10",
     "--set", "nu_U=8.607115273020353e+203",
     "--set", "eps_r=1.5589702774136118e-246"],
    ["simulate", "--modes", "16", "--shots", "10", "--set", "omega_c=1e-200"],
], ids=["budget-l", "simulate-C", "simulate-lambda", "budget-R", "sweep-R",
        "budget-temperature", "simulate-nan-shots", "simulate-coupling-svd",
        "simulate-delta-v"])
def test_arithmetic_failures_exit_2_with_no_file(tmp_path, capsys, argv):
    """A division by zero, an overflow, a non-finite value bound for a
    data file, a coupling block that overflows before its SVD or a
    detector noise dV that underflows to 0 is a numerical failure:
    exit 2 before --out exists."""
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def _assert_finite_outputs(out):
    """Every number in the CSV and JSON files in ``out`` is finite."""
    def finite(text):
        assert math.isfinite(float(text)), (path.name, text)
    for path in out.iterdir():
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_float=finite,
                       parse_constant=finite)
            continue
        for row in csv.reader(path.open(encoding="utf-8")):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (path.name, row)


def test_simulate_zero_span_window_is_free(tmp_path):
    """A coupling region so short that t_f - t_i rounds to 0 leaves no
    ramp step: the window is free flight, E_B is 0 and the files are
    finite."""
    out = tmp_path / "out"
    assert run(["simulate", "--modes", "16", "--shots", "10", "--set",
                "b=9.386200860721212e-59", "--out", str(out)]) == 0
    _assert_finite_outputs(out)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["E_B_oracle_J"] == 0.0
    assert summary["symplectic_residual"] == 0.0


_FUZZ_COMMANDS = (["budget"], ["sweep", "--values", "2e-5,3e-5"],
                  ["simulate", "--modes", "16", "--shots", "10"])
_FUZZ_SPECIAL = ("0", "-0", "nan", "inf", "-inf", "abc")


def _fuzz_value(rng) -> str:
    """A ``--set`` value: one draw in four is 0, a NaN, an infinity or
    text, the rest log-uniform over +-300 decades with either sign."""
    if rng.random() < 0.25:
        return _FUZZ_SPECIAL[rng.integers(len(_FUZZ_SPECIAL))]
    return repr(float(rng.choice([-1.0, 1.0])
                      * 10.0 ** rng.uniform(-300.0, 300.0)))


@pytest.mark.parametrize("seed", range(5))
def test_fuzzed_overrides_meet_the_exit_code_contract(tmp_path, capsys,
                                                      seed):
    """30 draws per seed of 1 to 3 ``--set`` overrides of any parameter,
    cycling budget, sweep and simulate in-process: exit 0, 1 or 2 and
    no exception; no --out on 1 or 2; on 0 every number written is
    finite.  (About 1 s for the five seeds on one thread.)"""
    fields = [f.name for f in dataclasses.fields(P.ExperimentParams)]
    rng = np.random.default_rng(seed)
    for i in range(30):
        keys = rng.choice(fields, rng.integers(1, 4), replace=False)
        out = tmp_path / str(i)
        argv = (_FUZZ_COMMANDS[i % 3]
                + [a for key in keys
                   for a in ("--set", f"{key}={_fuzz_value(rng)}")]
                + ["--out", str(out)])
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            code = run(argv)
        capsys.readouterr()
        assert code in (0, 1, 2), argv
        if code:
            assert not out.exists(), argv
        else:
            _assert_finite_outputs(out)


def test_budget_set_route_matches_file_route(tmp_path):
    # eps_uv = l/100 is derived the same way from a file and from --set
    par = tmp_path / "run.par"
    par.write_text("l = 1.5e-5 m\nL = 6e-5 m\n", encoding="utf-8")
    via_file, via_set = tmp_path / "file", tmp_path / "set"
    assert run(["budget", "--params", str(par), "--out", str(via_file)]) == 0
    assert run(["budget", "--set", "l=1.5e-5", "--set", "L=6e-5",
                "--out", str(via_set)]) == 0
    for name in ("budget.json", "budget.csv"):
        assert (via_file / name).read_bytes() == (via_set / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["budget"],
    ["sweep", "--sweep", "L", "--values", "6e-5,7e-5,8e-5", "--tol", "1e-3"],
    ["simulate", "--shots", "20", "--modes", "16", "--coupling-scale", "0.01",
     "--profile-points", "16", "--tol", "1e-3"],
])
def test_commands_read_params_file_once(tmp_path, monkeypatch, argv):
    """The parameter file is read once per command: the parameters, every
    sweep point and the manifest's derived list come from that read."""
    par = tmp_path / "run.par"
    par.write_text("l = 1.5e-5 m\nL = 6e-5 m\n", encoding="utf-8")
    opened = []
    monkeypatch.setattr(P, "open", lambda path, *a, **k: opened.append(path)
                        or open(path, *a, **k), raising=False)
    out = tmp_path / "out"
    assert run(argv + ["--params", str(par), "--out", str(out)]) == 0
    assert opened == [str(par)]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["params"]["l"] == 1.5e-5
    assert manifest["derived"] == ["eps_uv", "omega_c"]


# sweep ------------------------------------------------------------------

def test_sweep_artifacts_and_fit(tmp_path, capsys):
    assert run(["sweep", "--out", str(tmp_path), "--sweep", "L",
                "--values", "6e-5,8e-5", "--tol", "1e-3"]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "L,E_B_J,E_B_error_J,E_B_order_estimate_J"
    assert len(lines) == 3
    # the error column is the quadrature's own estimate, within tolerance
    for line in lines[1:]:
        _, e_b, err, _ = (float(c) for c in line.split(","))
        assert math.isfinite(err) and 0.0 <= err <= 1e-3 * abs(e_b)
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["n_points"] == 2
    assert fit["slope"] is not None and fit["slope_stderr"] is None
    assert "slope" in capsys.readouterr().out


def test_sweep_single_point_not_computable(tmp_path, capsys):
    assert run(["sweep", "--out", str(tmp_path), "--sweep", "L",
                "--values", "4e-5", "--tol", "1e-3"]) == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["slope"] is None and fit["status"] == "not-computable"
    assert "not computable" in capsys.readouterr().out


_BAD_SWEEPS = [
    # the grid is refused while parsing, --values named
    ("L", "abc", "--values"), ("L", "", "--values"),
    ("L", "3e-5,2e-5,4e-5", "--values"), ("L", "4e-5,3e-5,5e-5", "--values"),
    ("L", "4e-5,fast", "--values"), ("L", "2e-5,nan", "--values"),
    ("L", "inf", "--values"),
    # the library refuses the key and each point's parameters
    ("warp", "1,2", "unknown override key 'warp'"),
    ("L", "1e-5,2e-5", "< 2l"),         # L < 2l at the first point
]


@pytest.mark.parametrize("key, values, message", _BAD_SWEEPS,
                         ids=[f"{k}-{v}" for k, v, _ in _BAD_SWEEPS])
def test_sweep_rejects_bad_values_before_writing(tmp_path, capsys, key,
                                                 values, message):
    out = tmp_path / "new"
    assert run(["sweep", "--out", str(out), "--sweep", key,
                "--values", values]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, values, extra", [
    ("l", "8e-6,1e-5", {}),
    ("R", "1e4,2e4", {}),
    ("l", "8e-6,1e-5", {"eps_uv": 1e-9}),  # an explicit regulator stays
])
def test_sweep_rows_follow_derived_defaults(tmp_path, key, values, extra):
    argv = ["sweep", "--out", str(tmp_path), "--sweep", key,
            "--values", values, "--tol", "1e-3"]
    for k, v in extra.items():
        argv += ["--set", f"{k}={v}"]
    assert run(argv) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        x, e_b, err, order = (float(c) for c in row.split(","))
        p = P.ExperimentParams(**P.read_inputs(overrides={**extra, key: x}))
        expected = energetics.compute_EB(p, rel_tol=1e-3)
        assert e_b == expected
        assert err == expected.error_estimate
        assert order == energetics.eb_order_estimate(p)


@pytest.mark.parametrize("extra", [{}, {"eps_uv": 1e-9}])
def test_sweep_replays_from_manifest(tmp_path, extra):
    """A sweep over l replays bit-exactly from its manifest: the replay
    sets every parameter except those the manifest lists as derived."""
    first, replay = tmp_path / "first", tmp_path / "replay"
    argv = ["sweep", "--sweep", "l", "--values", "8e-6,1e-5", "--tol",
            "1e-3"]
    for k, v in extra.items():
        argv += ["--set", f"{k}={v}"]
    assert run(argv + ["--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["derived"] == [k for k in ("eps_uv", "omega_c")
                                   if k not in extra]
    sweep = manifest["sweep"]
    argv = (["sweep", "--sweep", sweep["key"], "--values",
             ",".join(repr(v) for v in sweep["values"]),
             "--tol", repr(manifest["rel_tol"]), "--out", str(replay)]
            + _given_params(manifest))
    assert run(argv) == 0
    rows = [(d / "sweep.csv").read_text().splitlines() for d in
            (first, replay)]
    assert rows[0][1].startswith("8e-06,")      # the l = 8e-6 row
    assert rows[0] == rows[1]


def test_simulate_replays_from_manifest(tmp_path):
    """A simulate run at a non-default --profile-points replays
    bit-exactly from its manifest alone."""
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert run(["simulate", "--shots", "20", "--seed", "4", "--modes", "16",
                "--coupling-scale", "0.01", "--profile-points", "40",
                "--tol", "1e-3", "--out", str(first)]) == 0
    m = json.loads((first / "manifest.json").read_text())
    argv = (["simulate", "--shots", str(m["shots"]), "--seed", str(m["seed"]),
             "--modes", str(m["grid"]["n_modes"]), "--feedback", m["feedback"],
             "--coupling-scale", repr(m["coupling_scale"]),
             "--ramp-fraction", repr(m["ramp_fraction"]),
             "--profile-points", str(m["profile_points"]),
             "--tol", repr(m["rel_tol"]), "--out", str(replay)]
            + _given_params(m))
    assert run(argv) == 0
    for name in ("shots.csv", "profile.csv", "summary.json"):
        assert (first / name).read_bytes() == (replay / name).read_bytes()
    assert len((replay / "profile.csv").read_text().splitlines()) == 41


def _given_params(manifest):
    """--set options for every manifest parameter not listed as derived."""
    return [f"--set={k}={v!r}" for k, v in manifest["params"].items()
            if k not in manifest["derived"]]


def test_sweep_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    # at L = 30l, 32 x 32 x 64 nodes are not enough: the capped E_B
    # quadrature fails and the sweep reports a numerical failure
    monkeypatch.setattr(energetics, "_EB_MAX_NODES",
                        2 * energetics._EB_START_NODES)
    assert run(["sweep", "--out", str(tmp_path), "--sweep", "L",
                "--values", "3e-4,3.1e-4"]) == 2
    assert "numerical failure" in capsys.readouterr().err


# simulate ---------------------------------------------------------------

SIM_ARGS = ["simulate", "--shots", "60", "--seed", "3", "--modes", "64",
            "--coupling-scale", "0.01", "--ramp-fraction", "0",
            "--profile-points", "64", "--tol", "1e-3"]


def test_simulate_artifacts(tmp_path, capsys):
    assert run(SIM_ARGS + ["--out", str(tmp_path)]) == 0
    assert "sigma" in capsys.readouterr().out
    shots = (tmp_path / "shots.csv").read_text().splitlines()
    assert shots[0] == "shot,outcome_V,E_B_J"
    assert len(shots) == 61
    profile = (tmp_path / "profile.csv").read_text().splitlines()
    assert profile[0] == "x_m,eps_S_J_per_m_t0"
    assert len(profile) == 65
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["feedback_mode"] == "correlated"
    assert summary["E_A_oracle_J"] == pytest.approx(
        summary["compute_EA_J"], rel=0.05, abs=0.0)
    assert summary["E_B_oracle_J"] != 0.0
    assert summary["subspace_rank"] > 0
    assert 0.0 <= summary["symplectic_residual"] < 1e-12
    assert 0.0 <= summary["mirror_residual"] <= propagator.SYMMETRY_TOL
    assert 0.0 <= summary["reversal_residual"] <= propagator.SYMMETRY_TOL
    assert summary["wrap_margin_m"] > 0.0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 3 and manifest["shots"] == 60
    assert manifest["grid"]["n_modes"] == 64


def test_simulate_byte_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(SIM_ARGS + ["--out", str(a)]) == 0
    assert run(SIM_ARGS + ["--out", str(b)]) == 0
    for name in ("shots.csv", "profile.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_feedback_choice_errors():
    assert run(["simulate", "--feedback", "telepathic"]) == 1


@pytest.mark.parametrize("option, value, message", [
    ("--tol", "0", "--tol"), ("--tol", "-1", "--tol"),
    ("--tol", "nan", "--tol"), ("--tol", "2", "--tol"),
    ("--profile-points", "0", "--profile-points"),
    ("--coupling-scale", "nan", "coupling_scale"),
    ("--coupling-scale", "inf", "coupling_scale"),
    ("--modes", "0", "--modes"), ("--modes", "-3", "--modes"),
    ("--shots", "0", "--shots"), ("--shots", "1", "--shots"),
    ("--seed", "-1", "--seed"), ("--seed", "1.5", "invalid count value"),
    # a ramp longer than half the window would leave a negative plateau
    ("--ramp-fraction", "0.6", "ramp_fraction"),
    # compute_EB refuses L < 2l; the oracle alone would run
    ("--set", "L=1.5e-5", "< 2l"),
])
def test_simulate_rejects_bad_options_before_writing(
        tmp_path, monkeypatch, capsys, option, value, message):
    # a small node cap keeps an unchecked --tol from doubling for long
    monkeypatch.setattr(energetics, "_EB_MAX_NODES",
                        2 * energetics._EB_START_NODES)
    out = tmp_path / "out"
    assert run(["simulate", "--shots", "20", "--modes", "16",
                option, value, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_non_symplectic_window(tmp_path, capsys):
    # 100 times the physical coupling at 64 modes: the window propagator
    # is far from symplectic, a numerical failure before --out exists
    out = tmp_path / "out"
    assert run(["simulate", "--shots", "20", "--modes", "64",
                "--coupling-scale", "100", "--tol", "1e-3",
                "--out", str(out)]) == 2
    assert "not symplectic" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_zero_spread_significance_is_null(tmp_path, capsys):
    # no coupling and no feedback, sudden or ramped: every shot has the
    # same E_B, exactly zero
    for modes, ramp in (("16", "0"), ("64", "0.05")):
        out = tmp_path / ramp
        assert run(["simulate", "--shots", "20", "--modes", modes,
                    "--feedback", "off", "--coupling-scale", "0",
                    "--ramp-fraction", ramp, "--profile-points", "16",
                    "--tol", "1e-3", "--out", str(out)]) == 0
        assert "significance not computable" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["E_B_oracle_J"] == 0.0
        assert summary["E_B_stderr_J"] == 0.0
        assert summary["E_B_significance_sigma"] is None


def test_simulate_degenerate_observable_exit_code(tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.setattr(oracle, "measurement_observable",
                        lambda params, grid: np.zeros(4 * grid.n_modes))
    # the observable is part of run_protocol's memoised setup
    propagator.protocol_setup.cache_clear()
    assert run(["simulate", "--modes", "16", "--out", str(tmp_path)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_simulate_options_have_help():
    """Every simulate option says what it sets, its default and bound."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices["simulate"]._actions
    assert {"--shots", "--seed", "--modes", "--feedback", "--coupling-scale",
            "--ramp-fraction", "--profile-points"} <= {
        opt for a in actions for opt in a.option_strings}
    for action in actions:
        assert action.help, action.option_strings


def test_write_json_refuses_non_finite(tmp_path):
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            cli._write_json(tmp_path / "x.json", {"v": bad})
    assert not (tmp_path / "x.json").exists()


def test_write_outputs_checks_every_float_before_out_exists(tmp_path):
    """The one writer refuses a NaN in a CSV float array, in a CSV list
    cell or in a nested JSON value, naming file and column or key,
    before --out exists; None, text, bools and ints pass."""
    args = argparse.Namespace(out=str(tmp_path / "out"), tol=1e-4)
    params = P.default_paper_params()
    header = ["x", "y"]
    good = {"a.csv": (header, [np.arange(3), np.array([1.0, 2.0, 3.0])]),
            "b.csv": (header, [["p", "q"], [None, True]]),
            "c.json": {"k": [1, {"m": None, "n": "text", "o": False}]}}
    for files, message in (
            ({"a.csv": (header, [np.arange(3),
                                 np.array([1.0, math.nan, 3.0])])},
             "a.csv y at x = 1 is not finite"),
            ({"b.csv": (header, [["p", "q"], [2, -math.inf]])},
             "b.csv y at x = 'q' is not finite"),
            ({"c.json": {"k": [1, {"m": None, "n": math.nan}]}},
             "c.json k.1.n is not finite")):
        with pytest.raises(FloatingPointError, match=message):
            cli._write_outputs(args, "test", params, {}, 0.0,
                               {**good, **files})
        assert not (tmp_path / "out").exists()
    cli._write_outputs(args, "test", params, {}, 0.0, good)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "a.csv", "b.csv", "c.json", "manifest.json"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--modes", "16", "--shots", "4", "--coupling-scale", "-0.0",
     "--feedback", "off"],
    ["sweep", "--sweep", "lambda_amp", "--values=-0.0,1"],
    ["budget", "--set", "lambda_amp=-0.0"],
], ids=["simulate", "sweep", "budget"])
def test_no_negative_zero_in_any_file(tmp_path, capsys, argv):
    """A -0.0 given or computed is written as 0.0 in every file, the
    manifest included, and printed without its sign."""
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 0
    negative_zero = re.compile(r"(?<![\w.])-0(\.0+)?(?![\w.])")
    for path in out.iterdir():
        assert not negative_zero.search(path.read_text()), path.name
    assert not negative_zero.search(capsys.readouterr().out)


def test_only_the_writer_cleans_numbers():
    """The commands hand _write_outputs raw results: _clean is named
    only in itself and in the writer, so a new output key needs no call
    of its own."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    users = {f.name for f in ast.walk(tree)
             if isinstance(f, ast.FunctionDef)
             and any(isinstance(n, ast.Name) and n.id == "_clean"
                     for n in ast.walk(f))}
    assert users == {"_clean", "_write_outputs"}


def test_only_the_parser_refuses_a_command_line():
    """argparse is the one place a command line is refused: no command
    body raises, and cli defines no exception of its own."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    commands = [f for f in tree.body if isinstance(f, ast.FunctionDef)
                and f.name.startswith("cmd_")]
    assert len(commands) == 5
    for f in commands:
        assert not any(isinstance(n, ast.Raise) for n in ast.walk(f)), f.name
    assert "UsageError" not in {n.name for n in ast.walk(tree)
                                if isinstance(n, ast.ClassDef)}


def _write_csv_by_rows(path, header, rows):
    """The value-by-value CSV writer that the column writer replaces."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(cli._clean(v)) if isinstance(v, float)
                             else v for v in row])


def test_write_csv_columns_match_rows_byte_for_byte(tmp_path):
    """Float arrays formatted a column at a time and joined give the
    bytes of the value-by-value csv.writer: -0.0 folded to 0.0, the
    shortest round-trip repr for huge, tiny and subnormal values, ints
    and text as csv.writer writes them."""
    a = np.array([-0.0, 0.0, 1e308, -1.7976931348623157e308, 5e-324,
                  -2.2250738585072014e-308, 1.0 / 3.0, -2.5e-22, 1e16,
                  123456789.0, -1e-5, 7.0])
    b = -a[::-1] / 3.0
    n = a.size
    header = ["i", "a", "b"]
    cli._write_csv(tmp_path / "cols.csv", header, [np.arange(n), a, b])
    _write_csv_by_rows(tmp_path / "rows.csv", header,
                       [[i, float(x), float(y)] for i, (x, y)
                        in enumerate(zip(a, b))])
    assert ((tmp_path / "cols.csv").read_bytes()
            == (tmp_path / "rows.csv").read_bytes())
    assert b"-0.0" not in (tmp_path / "cols.csv").read_bytes()
    # mixed cells, as budget.csv has them (text, empty, bools, numpy
    # floats) after the writer's _clean pass, and text that csv.writer
    # quotes
    rows = [["E_A", np.float64(-0.0), "J", "", np.True_],
            ["a,b", 1.5e-300, "µeV", -3.0, False],
            ['say "hi"', 2, "two\nlines", "cr\r", True]]
    cli._write_csv(tmp_path / "cols.csv", header + ["c", "d"],
                   cli._clean(list(zip(*rows))))
    _write_csv_by_rows(tmp_path / "rows.csv", header + ["c", "d"], rows)
    assert ((tmp_path / "cols.csv").read_bytes()
            == (tmp_path / "rows.csv").read_bytes())


def test_write_csv_chunks_keep_bytes_and_bound_memory(tmp_path,
                                                     monkeypatch):
    """Rows formatted a chunk at a time give csv.writer's bytes across
    chunk edges, and the writer's peak allocation stays within a few
    chunks' worth of text, not the whole file's."""
    n = 23
    ints = np.arange(n) - 11
    floats = np.where(ints % 3 == 0, -0.0, ints / 7.0)
    text = [f'say "{i}", twice' if i % 4 else str(i) for i in range(n)]
    header = ["i", "x", "note"]
    rows = [[int(i), float(x), t] for i, x, t in zip(ints, floats, text)]
    _write_csv_by_rows(tmp_path / "rows.csv", header, rows)
    for chunk_rows in (5, 23, 4096):
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk_rows)
        cli._write_csv(tmp_path / "cols.csv", header, [ints, floats, text])
        assert ((tmp_path / "cols.csv").read_bytes()
                == (tmp_path / "rows.csv").read_bytes())
    monkeypatch.undo()

    n_chunks = 8
    n = n_chunks * cli._CSV_CHUNK_ROWS
    rng = np.random.default_rng(7)
    columns = [np.arange(n), rng.normal(size=n), 1e-24 * rng.normal(size=n)]
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "big.csv", ["shot", "a", "b"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk_bytes = (tmp_path / "big.csv").stat().st_size / n_chunks
    # about 2.4 chunks of text; formatting every row at once is ~18
    assert peak < 4 * chunk_bytes


# convert ----------------------------------------------------------------

def test_convert_current_to_density(capsys):
    assert run(["convert", "--current", "1e-8"]) == 0
    out = capsys.readouterr().out
    assert "1.342" in out  # ~1.3426 ueV/um at the default nu_S
    assert "consistent" in out


def test_convert_negative_current_round_trips_to_its_magnitude(capsys):
    # eps grows as j^2: a signed current round-trips to |j|
    # ("--current -1e-8", with a space, is an argparse error)
    assert run(["convert", "--current=-1e-8"]) == 0
    out = capsys.readouterr().out
    assert "j   = -1e-08 A" in out
    assert "1.342" in out
    assert "round trip: |j| = 1e-08 A (consistent)" in out


def test_convert_density_to_current(capsys):
    assert run(["convert", "--energy-density", "2.15107e-19"]) == 0
    out = capsys.readouterr().out
    assert "1e-08 A" in out or "9.99" in out


@pytest.mark.parametrize("flag, value, line", [
    ("--current", "1e-150", "round trip: |j| = 0 A (MISMATCH)"),
    ("--energy-density", "1e-300", "round trip: eps = 0 J/m (MISMATCH)"),
], ids=["current", "energy-density"])
def test_convert_underflow_is_a_mismatch(capsys, flag, value, line):
    # the inverse underflows to 0: j = 1e-150 A gives eps = 2e-303 J/m,
    # whose j is 0, and eps = 1e-300 J/m gives j = 0
    assert run(["convert", f"{flag}={value}"]) == 2
    assert line in capsys.readouterr().out


def test_convert_requires_exactly_one_flag(capsys):
    assert run(["convert"]) == 1
    captured = capsys.readouterr()
    assert "one of the arguments --current --energy-density is required" \
        in captured.err
    assert "round trip" not in captured.out
    assert run(["convert", "--current", "1e-8",
                "--energy-density", "1e-17"]) == 1
    captured = capsys.readouterr()
    assert ("argument --energy-density: not allowed with argument --current"
            in captured.err)
    assert "round trip" not in captured.out


@pytest.mark.parametrize("flag", ["--current", "--energy-density"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_convert_rejects_non_finite(capsys, flag, value):
    # "--current -inf" would parse "-inf" as an option; "=" passes it on
    assert run(["convert", f"{flag}={value}"]) == 1
    captured = capsys.readouterr()
    assert f"argument {flag}: not a finite number: '{value}'" in captured.err
    assert "round trip" not in captured.out
