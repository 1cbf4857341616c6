"""Where the extracted energy comes from: a sub-vacuum dip in <eps_S>.

Feedback does not carry the extracted energy over from A -- classical
communication cannot do that.  Instead the Coulomb kick at B squeezes
the already-measured fluctuations of channel S below the vacuum level,
leaving a region of *negative* average energy density behind.  The dip
is O(g) and rides on the much larger measurement lump (the energy is
squeezed out of the measurement-response wave itself), so this script
isolates it by differencing matched-seed runs with feedback correlated
vs switched off.
"""

import numpy as np

from edgeqet import params as P
from edgeqet.oracle import default_grid, run_protocol

UEV = 1e6 / P.E_CHARGE

# L = 3l keeps the feedback packet clear of the coupling region at
# switch-on; very weak coupling keeps O(g^2) scattering negligible
params = P.validate(P.default_paper_params().replace(L=3e-5))
grid = default_grid(params, n_modes=256)
kwargs = dict(n_shots=4000, seed=11, coupling_scale=0.0025,
              ramp_fraction=0.0, n_profile=1024)

corr = run_protocol(params, grid, feedback_mode="correlated", **kwargs)
off = run_protocol(params, grid, feedback_mode="off", **kwargs)

x = corr.profile_x
diff = corr.energy_density_profile - off.energy_density_profile

neg = np.where(diff < 0.0, diff, 0.0)
neg_integral = np.trapezoid(neg, x)
print(f"snapshot at t = {corr.t_f * 1e12:.1f} ps "
      f"(just after the interaction window)")
print(f"extracted energy per shot  E_B = {corr.E_B_oracle * UEV:.4f} ueV")
print(f"negative-region integral       = {neg_integral * UEV:.4f} ueV")
print(f"ratio (-integral / E_B)        = {-neg_integral / corr.E_B_oracle:.3f}"
      "   (energy balance: the dip IS the withdrawal)")

# where is the dip? S is a left-mover, so by snapshot time the imprint
# left near the coupling region has advected to -v_g * t
x_dip = x[np.argmin(diff)]
x_expected = -params.v_g * corr.t_f
print(f"\ndip centre {x_dip * 1e6:7.2f} um; "
      f"coupling-region imprint advected to {x_expected * 1e6:7.2f} um")

# a coarse ascii rendering of the dip region (zero line at column 29)
sel = np.abs(x - x_dip) < 2.5 * params.l
scale = 29.0 / np.abs(diff[sel]).max()
print("\nfeedback-induced change of <eps_S(x)> around the dip "
      "(|: zero, *: value):")
for xi, di in zip(x[sel][::4], diff[sel][::4]):
    col = 29 + int(round(scale * di))
    row = [" "] * 60
    row[29] = "|"
    row[col] = "*"
    print(f"  {xi * 1e6:8.2f} um {''.join(row)}")
