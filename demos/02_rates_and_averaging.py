"""Layered rates and sample averaging.

First a tiny instance that can be checked by hand, then the part that
matters for optimization under imperfect CSIT: per-user rates are averaged
over the realization batch BEFORE the minima are taken, and the resulting
objective concentrates as the batch grows.
"""
import numpy as np

from rsmeta import (ChannelEnsemble, IidCsitModel, RngStream, StreamLayout,
                    gaussian_matrix, init_precoder, saf_report, sinr_triplet)

print("=== hand-checkable instance ===")
lay = StreamLayout.hierarchical(1, 1, 1)
p = np.ones((1, 3), complex)
h = np.ones((1, 1), complex)
# one channel is the one-draw stack h[None]; its average is its own rate
one = ChannelEnsemble(estimate=h, realizations=h[None])
sc, sg, sp = sinr_triplet(p, one.realizations, lay)
print(f"  SINRs while peeling layers: {sc[0, 0]:.4f}, {sg[0, 0]:.4f}, "
      f"{sp[0, 0]:.4f}")
rep = saf_report(p, one, lay)
print(f"  sum rate log2(4/3)+log2(3/2)+log2(2) = {rep.avg_sum_rate} "
      "(telescopes to 2 exactly)")

print("\n=== min after averaging vs. averaging the min ===")
lay = StreamLayout.one_layer(4, 4)
model = IidCsitModel(n_tx=4, n_users=4, error_power=0.3)
ens = model.draw(RngStream(7), 10.0, 500)
p0 = init_precoder(lay, ens.estimate, 10.0)
rep = saf_report(p0, ens, lay)
per_draw = np.log2(1 + sinr_triplet(p0.matrix, ens.realizations, lay)[0])
avg_of_min = np.mean(np.min(per_draw, axis=1))
print(f"  common rate, averaged then min: {rep.common_rate:.4f}")
print(f"  common rate, min then averaged: {avg_of_min:.4f}")
print("  the objective uses the first form: every user decodes from the")
print("  same codebook, so what matters is each user's average, not the")
print("  per-realization worst case.")

print("\n=== objective noise shrinks with the batch ===")
est = gaussian_matrix(RngStream(8), 4, 4, 0.7)
p_fix = init_precoder(lay, est, 10.0)
err_rng = RngStream(9)
for m in (25, 100, 400):
    vals = []
    for _ in range(40):
        e = gaussian_matrix(err_rng, m * 4, 4, 0.3).reshape(m, 4, 4)
        batch = ChannelEnsemble(estimate=est, realizations=est[None] + e)
        vals.append(saf_report(p_fix, batch, lay).avg_sum_rate)
    print(f"  M = {m:4d}: rate {np.mean(vals):.4f} "
          f"+- {np.std(vals, ddof=1):.4f} over 40 fresh batches")
print("  the std falls roughly like 1/sqrt(M); batch size buys stability.")
