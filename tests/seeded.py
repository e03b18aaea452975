"""Seeded property cases.  A property test draws its inputs with numpy from
``default_rng(seed)`` for seed = 0, 1, ..., count - 1, so they depend on the
seed alone; the seed is the test id, and ``test_x[17]`` reruns exactly."""
import numpy as np
import pytest

from muchan import KrausChannel, haar_unitary


def seeded(case, count):
    """``count`` argument tuples ``case(np.random.default_rng(seed))``, each
    as a ``pytest.param`` with its seed as its id."""
    return [pytest.param(*case(np.random.default_rng(seed)), id=str(seed))
            for seed in range(count)]


def near_cutoff_channel(seed):
    """{U diag(cos t) V, U diag(sin t) V} on M_3, with t drawn by
    ``default_rng(seed).uniform(0, 1e-4, 3)``, U = ``haar_unitary(3, seed + 21)``
    and V = ``haar_unitary(3, seed + 1000021)``: a unital channel whose
    sin(t) operator sits near the Choi-rank cutoff."""
    t = np.random.default_rng(seed).uniform(0, 1e-4, 3)
    u, v = haar_unitary(3, seed + 21), haar_unitary(3, seed + 1000021)
    return KrausChannel([u @ np.diag(np.cos(t)) @ v, u @ np.diag(np.sin(t)) @ v])
