"""The scrambled Halton sequence behind every sample set, pinned to scipy's."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import qmc

from solab.sampling import sample_box


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sample_box_is_scipy_scrambled_halton_bit_for_bit(dim):
    lo, hi = -np.arange(1.0, dim + 1), np.linspace(0.5, 3.0, dim)
    chart = SimpleNamespace(dim=dim, box=(lo, hi))
    for seed in (0x5EED, 31, 37, 7, 0, 3):
        for count in (1, 2, 17, 512, 4096):
            unit = qmc.Halton(d=dim, scramble=True, seed=seed).random(count)
            expected = lo + unit * (hi - lo)
            got = sample_box(chart, count, seed)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), (seed, count)
