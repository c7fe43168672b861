"""The exhaustive path-reduction kernel, in numpy.

The reduction visits every nonzero-probability state path exactly once
(no dynamic-programming shortcuts), in one recursion whose only reduction
is `logspace.logsumexp`: while the remaining cross product exceeds the
chunk limit a step branches on its reachable states, and once it fits the
remaining steps are expanded as a dense array whose log-sum-exp covers
each path individually.
"""

import numpy as np

from ..logspace import NEG_INF, logsumexp

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

    def reduce(row, depth):
        # log sum over the paths of steps depth..end, rooted at a log-weight row
        remaining = len(mats) - depth
        if remaining and n ** (remaining + 1) > DENSE_CHUNK:
            return logsumexp([row[j] + reduce(mats[depth][j], depth + 1)
                              for j in np.flatnonzero(row != NEG_INF)])
        for m in mats[depth:]:
            row = row[..., :, None] + m
        return logsumexp(row)

    return float(reduce(first_row, 0))
