"""A small end-to-end sweep with CSV/JSON reports.

The sweep harness pairs every optimizer on the same channel draws, seeds
each (SNR, estimate) cell independently of grid size, and writes a summary
CSV next to a JSON with every individual cell. This one is sized to finish
in about a minute; `rsmeta run --config configs/single_layer.cfg` runs
the full-size version, and `configs/grouped_ring.cfg` the grouped
one-ring scenario.
"""
import json

from rsmeta import ExperimentConfig, run_sweep, write_reports

cfg = ExperimentConfig(
    scenario="iid",
    n_tx=4, n_users=4,
    snr_db=(5.0, 15.0, 25.0),
    n_csit=4,
    n_realizations=100,
    master_seed=515,
    methods=("meta", "direct"),
    meta_iters=150, meta_hidden=(50, 50),
    direct_iters=500,
    out_dir="results-demo-sweep",
)

result = run_sweep(cfg)

print("method     SNR     mean rate   std     mean time")
for row in result.summary_rows():
    print(f"{row['method']:<8} {row['snr_db']:5.1f}  "
          f"{row['esr_mean']:10.4f}  {row['esr_std']:6.4f}  "
          f"{row['time_mean_s']:8.3f} s")

paths = write_reports(result)
print(f"\nwrote {paths['csv']}")
print(f"wrote {paths['json']}")

with open(paths["json"]) as fh:
    payload = json.load(fh)
print(f"\nJSON holds schema_version {payload['schema_version']}, the full "
      f"config, and {len(payload['cells'])} cells;")
print("any cell can be reproduced alone from (master_seed, snr_idx, "
      "csit_idx).")

worst = min(payload["cells"], key=lambda c: c["asr"])
print(f"worst cell: {worst['method']} at {worst['snr_db']:.0f} dB, "
      f"estimate {worst['csit_idx']}, rate {worst['asr']:.3f}")
