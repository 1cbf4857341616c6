"""Parameter files, overrides, and bit-exact reproduction from manifests.

Every file-producing command writes a manifest.json with the fully
resolved inputs (parameters, regulators, tolerances, grid, seed).  This
script builds a parameter file, runs a small simulation through the CLI
entry point, then replays the run purely from the manifest and checks
the outputs agree byte for byte.
"""

import json
import tempfile
from pathlib import Path

from edgeqet import cli

work = Path(tempfile.mkdtemp(prefix="edgeqet_demo_"))

# a parameter file: `key = value [unit]` lines, # comments allowed
par = work / "run.par"
par.write_text(
    "# modified geometry: wider separation, stronger feedback\n"
    "L = 4e-5 m\n"
    "lambda_amp = 20\n",
    encoding="utf-8")

first = work / "first"
argv = ["simulate", "--params", str(par), "--set", "nu_S=4",
        "--shots", "200", "--seed", "123", "--modes", "64",
        "--coupling-scale", "0.01", "--profile-points", "128",
        "--tol", "1e-3", "--out", str(first)]
assert cli.main(argv) == 0

manifest = json.loads((first / "manifest.json").read_text())
print("manifest records the fully resolved inputs:")
for key in ("command", "version", "seed", "shots", "feedback",
            "coupling_scale", "profile_points", "eps_uv", "omega_c"):
    print(f"  {key:15s} {manifest[key]}")
print(f"  params.L        {manifest['params']['L']}  (from file)")
print(f"  params.nu_S     {manifest['params']['nu_S']}  (from --set)")

# replay: rebuild the command line from the manifest alone
replay = work / "replay"
p = manifest["params"]
argv2 = (["simulate"]
         + [f"--set={k}={v}" for k, v in p.items()]
         + ["--shots", str(manifest["shots"]),
            "--seed", str(manifest["seed"]),
            "--modes", str(manifest["grid"]["n_modes"]),
            "--feedback", manifest["feedback"],
            "--coupling-scale", str(manifest["coupling_scale"]),
            "--ramp-fraction", str(manifest["ramp_fraction"]),
            "--profile-points", str(manifest["profile_points"]),
            "--tol", str(manifest["rel_tol"]),
            "--out", str(replay)])
assert cli.main(argv2) == 0

print("\nbyte comparison of data outputs:")
for name in ("shots.csv", "profile.csv", "summary.json"):
    same = (first / name).read_bytes() == (replay / name).read_bytes()
    print(f"  {name:12s} {'identical' if same else 'DIFFER'}")
    assert same

print(f"\nall outputs reproduced bit-exactly from the manifest ({work})")
