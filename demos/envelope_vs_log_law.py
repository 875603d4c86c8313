"""Envelope of the scaling-law family versus the classical log law.

Each member of the one-parameter family phi(eta; ln Re) lies above a
common envelope curve.  This script tabulates that envelope over
ln eta in [5, 10], compares it pointwise with ln(eta)/0.4 + 5.1, and
fits an effective (kappa, C) line to it.
"""

import math

from wallscale import envelope_curve, envelope_line_fit, log_law_phi
from wallscale.scaling import CLASSICAL_LOG_LAW as classical

curve = envelope_curve((5.0, 10.0), 11)
print(f"{'ln_eta':>7} {'phi_env':>9} {'touch lnRe':>11} "
      f"{'log law':>9} {'rel diff':>9}")
for x, phi_env, touch in zip(curve.ln_eta.tolist(), curve.phi_env.tolist(),
                             curve.ln_re_touch.tolist()):
    reference = log_law_phi(math.exp(x), classical)
    rel = (phi_env - reference) / reference
    print(f"{x:7.2f} {phi_env:9.4f} {touch:11.4f} "
          f"{reference:9.4f} {rel:+9.4%}")

line = envelope_line_fit((5.0, 10.0), 50)
print()
print(f"effective log law fitted to the envelope: "
      f"kappa = {line.kappa:.4f}, C = {line.c_offset:.4f}")
print("classical values for comparison:          kappa = 0.4000, C = 5.1000")
