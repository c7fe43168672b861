"""Full-scale enumeration completeness: total trajectory probability mass is
1 on all-two-valued domains for every horizon up to 5. The T=5 case walks
~2.7e8 nonzero trajectories, about 10 s on the numpy kernel; T <= 4 walks
at most ~4.2e6."""

import numpy as np
import pytest

from ascontrol import chains
from ascontrol._kernels import path_logsumexp
from ascontrol.instances import random_instance
from ascontrol.logspace import safe_log
from ascontrol.model import CompleteState

X0 = CompleteState(0, 0, 0, 0, 0, 0)


def _mass_log(gen, T):
    logmats = chains.step_matrices(
        lambda tick: safe_log(chains.transition_matrix(gen, tick)), gen.spec, T)
    return path_logsumexp(logmats[0][X0.flat(gen.spec)], logmats[1:])


@pytest.mark.parametrize("T", [1, 2, 3, 4])
def test_enumeration_mass_all_two_valued(T):
    gen, _, _ = random_instance(123)
    assert abs(np.exp(_mass_log(gen, T)) - 1.0) <= 1e-9


def test_enumeration_mass_t5():
    gen, _, _ = random_instance(123)
    assert abs(np.exp(_mass_log(gen, 5)) - 1.0) <= 1e-9
