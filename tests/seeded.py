"""Seeded property cases.  A property test draws its inputs with numpy from
``default_rng(seed)`` for seed = 0, 1, ..., count - 1, so they depend on the
seed alone; the seed is the test id, and ``test_x[17]`` reruns exactly."""
import numpy as np
import pytest


def seeded(case, count):
    """``count`` argument tuples ``case(np.random.default_rng(seed))``, each
    as a ``pytest.param`` with its seed as its id."""
    return [pytest.param(*case(np.random.default_rng(seed)), id=str(seed))
            for seed in range(count)]
