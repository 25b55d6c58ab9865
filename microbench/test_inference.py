"""Micro-timings of inference and of the KWS criteria and decoder at the
shapes of the compression experiment.

    PYTHONPATH=src python -m pytest microbench

Inference runs 80 test utterances of the hard KWS task through the 2x48
teacher and the 2x16 student, either one `forward` per utterance (B=1) or in
length-bucketed batches of 16 (`pipeline._infer`, what scoring, FER and
teacher posteriors use); both give the same bits.  BLAS is pinned to one
thread (see conftest.py).
"""

import numpy as np
import pytest

from farspot import criteria, kws, netcore, pipeline

MODELS = {"kws_teacher": 48, "kws_student": 16}  # 2 layers of this many cells


@pytest.fixture(scope="module")
def items():
    return pipeline.synth_items(pipeline.hard_kws_task(2000), 80)


def _net(items, hidden):
    spec = netcore.ModelSpec(input_dim=items[0].feats.shape[1], layers=2, hidden=hidden,
                             output_dim=pipeline.KWS_OUTPUT_DIM, peepholes=False)
    return netcore.init_network(spec, np.random.default_rng(0))


@pytest.mark.parametrize("name", MODELS)
def test_inference_one_at_a_time(benchmark, items, name):
    net = _net(items, MODELS[name])
    benchmark(lambda: [netcore.forward(net, it.feats) for it in items])


@pytest.mark.parametrize("name", MODELS)
def test_inference_buckets_of_16(benchmark, items, name):
    net = _net(items, MODELS[name])
    benchmark(pipeline._infer, net, items)


# the recursion's cost scales with T: the shortest, middle and longest of the
# five length buckets
@pytest.mark.parametrize("bucket", [0, 2, 4], ids=["shortest", "middle", "longest"])
def test_ctc_loss_batch_16(benchmark, items, bucket):
    batch = pipeline._batches(items, 16)[bucket]
    lengths = [it.num_frames for it in batch]
    logits = np.random.default_rng(1).standard_normal(
        (len(batch), max(lengths), pipeline.KWS_OUTPUT_DIM))
    benchmark(criteria.ctc_loss_batch, logits, lengths, [it.symbols for it in batch],
              pipeline.BLANK)


# the decoder's cost scales with T too: the same three buckets' 16 teacher
# posteriorgrams
@pytest.mark.parametrize("bucket", [0, 2, 4], ids=["shortest", "middle", "longest"])
def test_viterbi_locate(benchmark, items, bucket):
    net = _net(items, MODELS["kws_teacher"])
    posts = [netcore.forward(net, it.feats) for it in pipeline._batches(items, 16)[bucket]]
    benchmark(lambda: [kws.viterbi_locate(p, pipeline.KEYWORD_MODEL) for p in posts])
