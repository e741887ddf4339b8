"""Meta-learning precoder optimization for rate-splitting downlink transmission.

A numpy library for maximizing the average sum-rate of one-layer and
hierarchical rate-splitting transmission under partial transmitter CSI.
Precoders are optimized either by a compact per-channel-overfitted network
(meta optimizer), by direct Adam ascent on the precoder entries, or by a
fixed-direction eigenspace baseline with power-only search.

The top level is the paper's workflow, listed in :data:`__all__`: the
sweep (:func:`run_sweep` on an :class:`ExperimentConfig`), the three
optimizers with their config and the types they return, the two channel
models and their ensemble, the stream layout, seeding and scoring, and
the few helpers the demos read. Everything else, the gradients, the
update network and Adam among it, is internal to its module and imports
from there under its own name.
"""

from .linalg import RngStream, gaussian_matrix, herm_eig
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
from .gradcheck import gradcheck_suite
from .metaopt import MetaOptConfig, RunResult, init_precoder, run_meta_opt
from .baselines import (
    FixedDirectionResult,
    PowerSplit,
    run_direct_adam,
    run_fixed_direction,
)
from .harness import ExperimentConfig, SweepResult, load_config, run_sweep, write_reports

__all__ = [
    # the sweep
    "ExperimentConfig", "SweepResult", "load_config", "run_sweep",
    "write_reports",
    # the optimizers and the types they return
    "run_meta_opt", "MetaOptConfig", "RunResult", "run_direct_adam",
    "run_fixed_direction", "FixedDirectionResult", "PowerSplit",
    "PrecoderMatrix",
    # the channels
    "IidCsitModel", "OneRingModel", "ChannelEnsemble",
    # the layout, seeding and scoring
    "StreamLayout", "RngStream", "saf_report", "SafReport", "gradcheck_suite",
    # names the demos read
    "gaussian_matrix", "herm_eig", "one_ring_correlation", "init_precoder",
    "sinr_triplet",
]

__version__ = "0.1.0"
