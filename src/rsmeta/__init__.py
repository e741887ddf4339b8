"""Meta-learning precoder optimization for rate-splitting downlink transmission.

A numpy library for maximizing the average sum-rate of one-layer and
hierarchical rate-splitting transmission under partial transmitter CSI.
Precoders are optimized either by a compact per-channel-overfitted network
(meta optimizer), by direct Adam ascent on the precoder entries, or by a
fixed-direction eigenspace baseline with power-only search.
"""

from .linalg import RngStream, gaussian_matrix, herm_eig, svd_dominant
from .layout import StreamLayout
from .channel import (
    IidCsitModel,
    OneRingModel,
    ChannelEnsemble,
    one_ring_correlation,
)
from .rates import (
    PrecoderMatrix,
    SafReport,
    sinr_triplet,
    saf_report,
)
from .network import MetaNetParams, init_meta_net, mlp_forward
from .adam import AdamState, adam_step
from .gradients import (
    view_length,
    precoder_to_view,
    view_to_precoder,
    grad_wrt_precoder,
    grad_wrt_theta,
)
from .gradcheck import finite_diff_check, gradcheck_suite
from .metaopt import MetaOptConfig, RunResult, init_precoder, run_meta_opt
from .baselines import PowerSplit, run_direct_adam, run_fixed_direction
from .harness import ExperimentConfig, SweepResult, load_config, run_sweep, write_reports

__version__ = "0.1.0"
