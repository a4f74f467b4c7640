"""Test helpers: every stress member of one element, rebuilt from its
tables, and the barycentric coordinates the enrichment is checked with."""

import numpy as np


def barycentric_coords(triangle, points) -> np.ndarray:
    """Barycentric coordinates (n, 3) of points in a triangle."""
    tri = np.asarray(triangle, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.column_stack([np.ones(len(pts)), pts]) @ np.linalg.inv(
        np.column_stack([np.ones(3), tri]))


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
