"""Test helper: every stress member of one element, rebuilt from its tables."""

import numpy as np


def stress_members(scalar: np.ndarray, enrichment: np.ndarray) -> np.ndarray:
    """Values (n_stress, nq, 2, 2) of the stress basis of one element: each
    scalar basis function (``scalar``, (n_scalar, nq)) in each matrix slot,
    slot-major in the order (0,0), (0,1), (1,0), (1,1), then the k+1
    enrichment members (``enrichment``, (k+1, nq, 2, 2))."""
    n_p, nq = scalar.shape
    pk = np.zeros((4, n_p, nq, 2, 2))
    for slot in range(4):
        pk[slot, :, :, slot // 2, slot % 2] = scalar
    return np.concatenate([pk.reshape(4 * n_p, nq, 2, 2), enrichment])
