"""Walk through the full energy budget of the edge-channel protocol.

A detector (resistance R, capacitance C) weakly measures the vacuum
charge fluctuations of a left-moving edge channel S; the outcome drives
a displacement on the right-moving channel U, whose packet then couples
back to S across a Coulomb bridge of separation L.  This script prints
every energy scale of that cycle at the default parameter set and shows
how each one is built from the ingredients.
"""

import numpy as np

from edgeqet import params as P
from edgeqet.detector import delta_v, detector_from_params, signal_rms
from edgeqet.energetics import (compute_EA, compute_EB, compute_E1,
                                eb_order_estimate, energy_budget,
                                gs_squared)

UEV = 1e6 / P.E_CHARGE
MEV = 1e3 / P.E_CHARGE

params = P.validate(P.default_paper_params())

print("parameters")
print(f"  edge velocity        v_g  = {params.v_g:.3g} m/s")
print(f"  detector             R = {params.R:.3g} ohm, C = {params.C:.3g} F")
print(f"  windows              l = b = {params.l * 1e6:.0f} um, "
      f"separation L = {params.L * 1e6:.0f} um")
print(f"  filling factors      nu_S = {params.nu_S:.0f}, "
      f"nu_U = {params.nu_U:.0f}")
print()

# Step 1: what can the detector resolve, and what does the edge deliver?
det = detector_from_params(params)
dv = delta_v(det)
rms = signal_rms(params)
print("measurement at A")
print(f"  voltage resolution   dV  = {dv * 1e6:6.2f} uV  "
      f"(RC noise with cutoff omega_c = {params.omega_c:.3g} rad/s)")
print(f"  zero-point signal    RMS = {rms * 1e6:6.2f} uV  "
      f"(vacuum density fluctuations through the sense window)")
print(f"  signal / resolution  {rms / dv:6.2f}  -> single-shot readable")
print()

# Step 2: the backreaction of the measurement injects energy into S...
e_a = compute_EA(params)
print(f"  measurement cost     E_A = {e_a * MEV:.4f} meV")

# ...and the conditional displacement loads a packet onto U.
e_1 = compute_E1(params)
g2 = gs_squared(params)
print(f"  packet energy        E_1 = {e_1 * MEV:.2f} meV   "
      f"(conditional-mean weight <G^2> = {g2:.3g} m^-2)")
print()

# Step 3: the packet's Coulomb tail does work on the squeezed S vacuum.
e_b = compute_EB(params, rel_tol=1e-4)
est = eb_order_estimate(params)
print("extraction at B")
print(f"  extracted energy     E_B = {e_b * UEV:.2f} ueV   "
      f"(order estimate {est * UEV:.1f} ueV)")
print(f"  thermal floor        kT(10 mK) = "
      f"{P.thermal_energy(0.01) * UEV:.3f} ueV  "
      f"-> margin x{e_b / P.thermal_energy(0.01):.0f}")
print()

# The one-call version of everything above:
budget = energy_budget(params)
print("energy_budget() summary (J):")
for key, value in budget.as_dict().items():
    print(f"  {key:24s} {value:.6g}")

# Sanity: the ladder of scales spans five orders of magnitude
ladder = np.array([e_b, e_a, e_1])
assert np.all(np.diff(ladder) > 0), "expected E_B << E_A < E_1"
print("\nhierarchy confirmed: E_B << E_A < E_1 "
      f"({e_b * UEV:.0f} ueV << {e_a * MEV:.2f} meV < {e_1 * MEV:.0f} meV)")
