"""Dense divergence matrix for tests that need the operator as a matrix."""

import numpy as np

from graphtv import divergence


def dense_divergence(g):
    """The n-by-m matrix of ``divergence``, built column by column from unit flows."""
    return np.column_stack([divergence(g, e) for e in np.eye(g.edge_count)])
