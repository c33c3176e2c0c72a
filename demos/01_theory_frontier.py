"""Enumerate every deterministic encoder on a small source and watch the
rate-distortion bound hold.

The source is constructed so the bound is touchable: the sender observes
X_s = (Y, N) where N is independent noise, and the receiver's X_r is
independent of both.  The encoder that extracts the Y component transmits
exactly the task-relevant bit, nothing else, and lands on the bound.
"""

import numpy as np

from pragcomm.infotheory import conditional_mi, entropy
from pragcomm.rd_oracle import (
    check_conditions,
    enumerate_frontier,
    make_separable_source,
    theoretical_bound,
)

source, y_extractor = make_separable_source(
    p_y=np.array([0.5, 0.5]),
    p_n=np.array([0.25, 0.75]),
    p_xr=np.array([0.4, 0.6]),
)

print("source: X_s = (Y, N), |X_s| = 4, X_r independent")
print(f"H(X_s)        = {entropy(source, 'X_s'):.4f} bits")
print(f"I(Y;X_s|X_r)  = {conditional_mi(source, 'Y', 'X_s', ['X_r']):.4f} bits")
print(f"bound at d=0  = {theoretical_bound(source, 0.0):.4f} bits")
print()

points = enumerate_frontier(source, z_alphabet_size=2)
print(f"enumerated {len(points)} deterministic encoders (|Z| = 2)")
print(f"{'encoder':>8} {'rate':>8} {'distortion':>11} {'H(Z|Y)':>8} {'I(Z;Xr)':>8} {'pareto':>7}")
for p in points:
    print(
        f"{p.encoder_id:>8} {p.rate_bits:>8.4f} {p.distortion_nats:>11.4f} "
        f"{p.cond_h_z_given_y:>8.4f} {p.mi_z_xr:>8.4f} {str(p.pareto):>7}"
    )

print()
rates = np.array([p.rate_bits for p in points])
distortions = np.array([p.distortion_nats for p in points])
bounds = theoretical_bound(source, np.maximum(distortions, 0.0))  # one bound per encoder
violations = int(np.sum(rates < bounds - 1e-9))
print(f"encoders below the bound: {violations} (theorem says this must be 0)")

h_zy, i_zxr, gap = check_conditions(source, y_extractor)
print(
    f"Y-extractor encoder: gap to bound {gap:.2e} bits, "
    f"H(Z|Y) = {h_zy:.2e}, I(Z;X_r) = {i_zxr:.2e}"
)
print("both optimality conditions hold and the bound is attained.")
