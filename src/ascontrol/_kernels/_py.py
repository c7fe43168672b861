"""The exhaustive path-reduction kernel, in numpy.

The reduction visits every nonzero-probability state path exactly once
(no dynamic-programming shortcuts): leading steps are walked depth-first,
and once the remaining cross product fits the chunk limit it is expanded
as a dense array whose final log-sum-exp covers each path individually.
"""

import numpy as np

from ..logspace import NEG_INF, logsumexp, pairwise_logsumexp

DENSE_CHUNK = 1 << 22  # max leaves expanded as one dense block


def path_logsumexp(first_row, mats):
    """log sum over paths (j1, .., jT) of
    first_row[j1] + mats[0][j1, j2] + ... + mats[T-2][j_{T-1}, jT].

    `first_row` is the log-weight vector of the first step; each entry of
    `mats` is the (N, N) log-weight matrix of a later step. The trailing
    steps whose paths number at most DENSE_CHUNK are expanded as one block.
    """
    first_row = np.asarray(first_row, dtype=float)
    mats = [np.asarray(m, dtype=float) for m in mats]
    n = first_row.shape[0]

    def expand(start_row, depth):
        # dense cross product of steps depth..end, rooted at a log-weight row
        acc = start_row
        for u in range(depth, len(mats)):
            acc = acc[..., :, None] + mats[u]
        return logsumexp(acc)

    def walk(start_row, depth):
        remaining = len(mats) - depth
        if remaining == 0 or n ** (remaining + 1) <= DENSE_CHUNK:
            return expand(start_row, depth)
        parts = []
        for j in range(n):
            w = start_row[j]
            if w == NEG_INF:
                continue
            parts.append(w + walk(mats[depth][j], depth + 1))
        return pairwise_logsumexp(parts)

    return float(walk(first_row, 0))
