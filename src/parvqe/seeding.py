"""Deterministic RNG stream derivation.

All randomness in this package flows through seeds and generators
derived here. A stream is identified by an integer path (base seed plus
context indices), so results never depend on global RNG state or on the
order in which independent runs happen. A batch's seed is such a path
folded into one integer. The executor always runs a list of batches with
one seed each and draws each batch's histograms from the one generator
its seed starts, so a batch's counts do not depend on the batches that
share its call. An optimizer repeat's n-th evaluator
batch is seeded derive_seed(eval_seed, n), with eval_seed and the n
counter its own, so repeats run in lockstep draw the same streams as
repeats run one by one.
"""

from __future__ import annotations

import numpy as np


def derive_rng(*keys: int) -> np.random.Generator:
    """Return a generator for the stream identified by the key path."""
    return np.random.default_rng(list(keys))


def derive_seed(*keys: int) -> int:
    """Fold a key path into a single 64-bit seed (for nested jobs)."""
    ss = np.random.SeedSequence(list(keys))
    return int(ss.generate_state(1, np.uint64)[0])
