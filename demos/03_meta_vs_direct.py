"""Network-driven optimization against plain Adam on one channel estimate.

Both optimizers start from the same matched-direction precoder and see the
same realization batch. The direct baseline steps the precoder with Adam;
the network-driven run keeps the precoder's start-point gradient frozen and
trains a small MLP whose output is the precoder update. Watch how fast
each one climbs and where it lands.
"""
from rsmeta import (IidCsitModel, MetaOptConfig, RngStream, StreamLayout,
                    run_direct_adam, run_meta_opt)

lay = StreamLayout.one_layer(4, 4)
p_t = 10.0 ** 2.0   # 20 dB
model = IidCsitModel(n_tx=4, n_users=4)
ens = model.draw(RngStream(31), p_t, 200)

print("one estimate, 200 realizations, 20 dB, 4x4 single layer\n")

meta = run_meta_opt(lay, ens, p_t,
                    MetaOptConfig(n_iters=300, lr=1e-3, hidden=(50, 50),
                                  seed=0))
direct = run_direct_adam(lay, ens, p_t, n_iters=2000, lr=0.02)

print("        start     50 it    150 it    300 it      best     iters")
h = meta.asr_history
print(f"net    {h[0]:7.3f}  {h[50]:8.3f}  {h[150]:8.3f}  {h[300]:8.3f}  "
      f"{meta.best_asr:8.3f}  {meta.n_iters:8d}")
h = direct.asr_history
print(f"adam   {h[0]:7.3f}  {h[50]:8.3f}  {h[150]:8.3f}  {h[300]:8.3f}  "
      f"{direct.best_asr:8.3f}  {direct.n_iters:8d}")

gain = meta.best_asr / meta.start_asr
print(f"\nnetwork run: {meta.best_asr:.3f} bit/s/Hz "
      f"({gain:.2f}x its starting point) in {meta.wall_time_s:.1f} s")
print(f"direct Adam: {direct.best_asr:.3f} bit/s/Hz "
      f"in {direct.wall_time_s:.1f} s over {direct.n_iters} steps")
print(f"ratio net/adam: {meta.best_asr / direct.best_asr:.4f}")

print("\npower layout of the winning precoder (network run):")
pm = meta.best_precoder
frac_c = pm.stream_power(0) / pm.total_power
print(f"  common stream: {100 * frac_c:.1f}% of "
      f"{pm.total_power:.1f} total")
for k in range(lay.n_users):
    frac = pm.stream_power(lay.col_private(k)) / pm.total_power
    print(f"  private {k}: {100 * frac:.1f}%")
