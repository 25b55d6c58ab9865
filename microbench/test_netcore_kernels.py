"""Micro-timings of one LSTM layer's forward and backward pass at the shapes
the experiments train on (batch of 16, float64, no peepholes or projection).

    PYTHONPATH=src python -m pytest microbench

Not part of the test suite: pytest's `testpaths` only collects `tests/`.
BLAS is pinned to one thread (see conftest.py), as in perfbench.
"""

import numpy as np
import pytest

from farspot import netcore

# name: (T, B, hidden, input_dim, time_major_input).  A deeper layer reads the
# previous layer's (T, B, r) output through a (B, T, r) view, and the layout
# of its input decides how the weight gradient is summed.
SHAPES = {
    "kws_teacher_l0": (38, 16, 48, 160, False),
    "kws_teacher_l1": (38, 16, 48, 48, True),
    "kws_student_l0": (38, 16, 16, 160, False),
    "adapt_am_l0": (110, 16, 32, 20, False),
}


def _layer(name):
    t, b, h, d, time_major = SHAPES[name]
    spec = netcore.ModelSpec(input_dim=d, layers=1, hidden=h, output_dim=5, peepholes=False)
    rng = np.random.default_rng(0)
    net = netcore.init_network(spec, rng)
    x = rng.standard_normal((t, b, d) if time_major else (b, t, d))
    if time_major:
        x = x.transpose(1, 0, 2)
    return net, x, rng.standard_normal((b, t, spec.output_dim))


@pytest.mark.parametrize("name", SHAPES)
def test_forward_batch(benchmark, name):
    net, x, _ = _layer(name)
    benchmark(netcore.forward_batch, net, x)


@pytest.mark.parametrize("name", SHAPES)
def test_backward_batch(benchmark, name):
    net, x, dlogits = _layer(name)
    _, cache = netcore.forward_batch(net, x)
    benchmark(netcore.backward_batch, net, cache, dlogits)
