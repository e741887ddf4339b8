"""The fixed-direction power search as one rate call per lattice split.

``rsmeta.baselines.run_fixed_direction`` scores its lattice in batches of
splits through the batched rate code. This is the loop it replaced, kept
as the oracle: each split's column powers rescale the unit-direction gains
into one reused array, :func:`rsmeta.gradients.asr_from_powers` (the rate
code that also builds the minima's gradient weights) scores it, and a
strictly better rate replaces the best split, so the first maximizer in
canonical order wins and a NaN rate never does.
"""
from __future__ import annotations

import numpy as np

from rsmeta.baselines import (_fixed_directions, _stream_powers,
                              power_split_grid)
from rsmeta.gradients import asr_from_powers
from rsmeta.linalg import channel_project


def loop_fixed_direction(layout, ens, model, p_t, step=0.05, rank=None):
    """``(best_asr, best_split, best_matrix, n_evaluated)`` of the
    per-split search, on the directions the library builds."""
    dirs = _fixed_directions(layout, ens.estimate, model, p_t, rank)
    gain = channel_project(ens.realizations, dirs)[0].T
    powers = np.empty_like(gain)

    best_asr = -np.inf
    best_split = None
    n_eval = 0
    for split in power_split_grid(step, with_group=True):
        w = _stream_powers(split, layout, p_t)
        np.multiply(gain, w[:, None, None], out=powers)
        asr = asr_from_powers(powers.T, layout, ens.noise_power)
        n_eval += 1
        if asr > best_asr:
            best_asr = asr
            best_split = split

    w = _stream_powers(best_split, layout, p_t)
    return best_asr, best_split, dirs * np.sqrt(w)[None, :], n_eval
