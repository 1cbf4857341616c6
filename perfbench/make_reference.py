"""Write reference.json: E_B over the sweep-L grid at a tight tolerance,
and the closed forms E_A and E_1, at the default parameters.

Run from the repository root after a change that is meant to alter
these values (about half a minute on one core):

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json
import warnings

from checks import REFERENCE
from workloads import SWEEP_L

from edgeqet import params as P
from edgeqet.energetics import compute_EA, compute_EB, compute_E1

REL_TOL = 1e-8


def main():
    warnings.simplefilter("ignore", P.FastDetectorWarning)
    params = P.validate(P.default_paper_params())
    eb = [compute_EB(params.replace(L=L), rel_tol=REL_TOL) for L in SWEEP_L]
    payload = {"rel_tol": REL_TOL,
               "sweep": {"L_m": list(SWEEP_L), "E_B_J": eb},
               "E_A_J": compute_EA(params), "E_1_J": compute_E1(params)}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
