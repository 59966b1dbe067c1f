"""Deterministic RNG stream derivation.

All randomness in this package flows through generators derived here:
derive_rng is the only place that builds one. A stream is identified by
an integer path (base seed plus context indices), so results never depend
on global RNG state or on the order in which independent runs happen.
Each key path (an optimizer repeat, a command's measurement stage, a
final point) derives its generators once and keeps them for its whole
run: the executor draws a key path's batches of a call in one
multinomial, in batch order, so its counts depend only on its own
batches, in order. Repeats run in lockstep therefore draw the same
streams as repeats run one by one.
"""

from __future__ import annotations

import numpy as np


def derive_rng(*keys: int) -> np.random.Generator:
    """Return a generator for the stream identified by the key path."""
    return np.random.default_rng(list(keys))
