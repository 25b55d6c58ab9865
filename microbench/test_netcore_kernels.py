"""Micro-timings of one LSTM layer's forward and backward pass at the shapes
the experiments train on (batch of 16, float64, no peepholes or projection),
and at a factored student layer with projection that no experiment trains yet.

    PYTHONPATH=src python -m pytest microbench

Not part of the test suite: pytest's `testpaths` only collects `tests/`.
BLAS is pinned to one thread (see conftest.py), as in perfbench.
"""

import numpy as np
import pytest

from farspot import netcore

# name: (T, B, hidden, input_dim, time_major_input, other spec fields).  A
# deeper layer reads the previous layer's (T, B, r) output through a (B, T, r)
# view; the weight gradient is summed the same way for either layout, but its
# per-frame products read strided rows from a batch-major input.
SHAPES = {
    "kws_teacher_l0": (38, 16, 48, 160, False, {}),
    "kws_teacher_l1": (38, 16, 48, 48, True, {}),
    "kws_student_l0": (38, 16, 16, 160, False, {}),
    "adapt_am_l0": (110, 16, 32, 20, False, {}),
    # the candidate compressed student's first layer: an LSTMP with wx factored
    "kws_lstmp_student_l0": (38, 16, 16, 160, False,
                             {"projection": 8, "svd_rank": {"l0.wx": 3}}),
}


def _layer(name):
    t, b, h, d, time_major, extra = SHAPES[name]
    spec = netcore.ModelSpec(input_dim=d, layers=1, hidden=h, output_dim=5, **extra)
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
    # a backward consumes its forward's cache, so every round gets a fresh
    # forward, run untimed in setup
    net, x, dlogits = _layer(name)

    def setup():
        return (net, netcore.forward_batch(net, x)[1], dlogits), {}

    benchmark.pedantic(netcore.backward_batch, setup=setup, rounds=200, warmup_rounds=5)
