"""Micro-timings of the far-field front end at the shapes of the adaptation
ladder: one ~15k-sample utterance of its acoustic-model task, reverberated
through a 2048-tap image-method RIR and turned into log-Mel frames.

    PYTHONPATH=src python -m pytest microbench

The room is drawn from the `FarFieldConfig` defaults (order-4 image method)
and has `pipeline.IR_LENGTH` (2048) taps.  BLAS is pinned to one thread (see conftest.py).
"""

import numpy as np
import pytest

from farspot import featkit, pipeline, simkit

FAR = pipeline.FarFieldConfig()


@pytest.fixture(scope="module")
def utterance():
    return pipeline.synth_utterance(pipeline._am_task_spec(0), 1)[0]


@pytest.fixture(scope="module")
def room():
    return FAR.sample_room(np.random.default_rng(0))


def test_generate_rir(benchmark, room):
    benchmark(simkit.generate_rir, room)


def test_convolve(benchmark, utterance, room):
    rir = simkit.generate_rir(room)
    assert len(rir) == pipeline.IR_LENGTH
    benchmark(simkit.convolve, utterance, rir)


def test_log_mel(benchmark, utterance):
    benchmark(featkit.log_mel, utterance, pipeline._am_task_spec(0).n_mels)
