"""End-to-end acceptance checks.

One test per release criterion; each prints a single PASS line so `pytest -s`
gives a checklist.  These intentionally re-derive expectations from
independent oracles (enumeration, finite differences, closed forms) rather
than from the library code under test.
"""

import numpy as np
import pytest

from farspot import criteria, kws, netcore, pipeline, simkit
from farspot.netcore import ModelSpec, Network, init_network, param_count
from farspot.pipeline import (
    KwsCompressionConfig,
    LadderConfig,
    SynthTaskSpec,
    TrainConfig,
    run_seeds,
)
from helpers import (
    _log_softmax,
    central_diff_grad,
    ctc_enum_loss,
    entropy,
    grad_rel_err,
    kl_divergence,
    measure_snr,
    naive_convolve,
    viterbi_oracle,
)


def _ok(name):
    print(f"\nACCEPTANCE {name}: PASS")


def _rand_dist(rng, n):
    p = rng.uniform(0.01, 1.0, n)
    return p / p.sum()


# ---------------------------------------------------------------------------
# 1. model sizing

def test_criterion_1_parameter_budgets():
    large = param_count(netcore.large_kws_spec())
    small = param_count(netcore.small_kws_spec())
    assert abs(large - 24.16e6) / 24.16e6 < 0.01
    assert abs(small - 0.89e6) / 0.89e6 < 0.05
    assert abs(large / small - 27.0) < 2.0
    _ok(f"1 model sizing (large {large}, small {small}, ratio {large / small:.2f})")


# ---------------------------------------------------------------------------
# 2. gradient correctness of every training criterion

def test_criterion_2_gradients_match_finite_differences():
    rng = np.random.default_rng(20)

    # frame criteria: >= 20 instances each, 64-bit, 1e-6 relative
    for _ in range(20):
        t, n = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        logits = rng.standard_normal((t, n))

        teacher = np.stack([_rand_dist(rng, n) for _ in range(t)])
        _, g = criteria.soft_ce_loss(teacher, logits)
        num = central_diff_grad(
            lambda v: criteria.soft_ce_loss(teacher, v.reshape(t, n))[0], logits.ravel()
        )
        assert grad_rel_err(g, num) < 1e-6

        labels = rng.integers(0, n, t)
        _, g = criteria.hard_ce_loss(labels, logits)
        num = central_diff_grad(
            lambda v: criteria.hard_ce_loss(labels, v.reshape(t, n))[0], logits.ravel()
        )
        assert grad_rel_err(g, num) < 1e-6

    # CTC: loss against exhaustive path enumeration at 1e-10, gradient
    # against finite differences
    checked = 0
    while checked < 200:
        t = int(rng.integers(1, 7))
        n = int(rng.integers(2, 5))
        blank = n - 1
        length = int(rng.integers(0, min(t, 3) + 1))
        labels = list(rng.integers(0, n - 1, length))
        if criteria.ctc_min_frames(labels) > t:
            continue
        logits = rng.standard_normal((t, n))
        loss, grad = criteria.ctc_loss(logits, labels, blank)
        assert loss == pytest.approx(ctc_enum_loss(logits, labels, blank), abs=1e-10)
        checked += 1
        if checked % 10 == 0:
            num = central_diff_grad(
                lambda v: criteria.ctc_loss(v.reshape(t, n), labels, blank)[0],
                logits.ravel(),
            )
            assert grad_rel_err(grad, num) < 1e-5

    # full-network backpropagation: >= 20 random architectures
    for _ in range(20):
        spec = ModelSpec(
            input_dim=3,
            layers=int(rng.integers(1, 3)),
            hidden=int(rng.integers(2, 5)),
            projection=int(rng.choice([0, 2])),
            output_dim=3,
            peepholes=bool(rng.integers(2)),
        )
        net = init_network(spec, rng)
        net.parameters += rng.uniform(-0.3, 0.3, net.parameters.shape)
        x = rng.standard_normal((1, 4, 3))
        labels = rng.integers(0, 3, 4)

        def net_loss(params):
            lg, _ = netcore.forward_batch(Network(spec, params), x)
            return criteria.hard_ce_loss(labels, lg[0])[0]

        lg, cache = netcore.forward_batch(net, x)
        _, dlog = criteria.hard_ce_loss(labels, lg[0])
        analytic = netcore.backward_batch(net, cache, dlog[None])
        numeric = central_diff_grad(net_loss, net.parameters)
        assert grad_rel_err(analytic, numeric) < 1e-6

    _ok("2 criterion gradients vs finite differences / CTC enumeration")


# ---------------------------------------------------------------------------
# 3. distillation-objective equivalence

def test_criterion_3_soft_ce_equals_kl_plus_entropy():
    rng = np.random.default_rng(3)
    for _ in range(100):
        t, n = int(rng.integers(1, 8)), int(rng.integers(2, 9))
        teacher = np.stack([_rand_dist(rng, n) for _ in range(t)])
        logits = rng.standard_normal((t, n))
        loss, _ = criteria.soft_ce_loss(teacher, logits)
        student = np.exp(_log_softmax(logits))  # the oracle's, not the library's
        kl_sum = sum(kl_divergence(teacher[i], student[i]) for i in range(t))
        assert abs((loss - entropy(teacher)) - kl_sum) < 1e-9
    _ok("3 soft CE == teacher entropy + summed KL (100 instances)")


# ---------------------------------------------------------------------------
# 4. simulation physics

def test_criterion_4_simulation_physics():
    # anechoic direct path: peak within one sample of the delay, and the
    # windowed-sinc kernel sums to the amplitude 1 / (4 pi d) within 1e-4
    room = simkit.RoomSpec(
        dimensions=[5.0, 4.0, 3.0],
        source_position=[1.0, 1.0, 1.0],
        mic_position=[3.0, 2.0, 1.5],
        wall_reflection=0.0,
        max_order=0,
        ir_length=256,
    )
    ir = simkit.generate_rir(room)
    d = room.direct_distance()
    true_delay = d / simkit.SPEED_OF_SOUND * simkit.REQUIRED_RATE
    peak = int(np.argmax(np.abs(ir.taps)))
    assert abs(peak - true_delay) <= 1.0
    assert abs(np.sum(ir.taps) / (1.0 / (4.0 * np.pi * d)) - 1.0) < 1e-4

    # convolution against the O(n*m) direct sum
    rng = np.random.default_rng(4)
    x = rng.standard_normal(400)
    h = rng.standard_normal(91)
    y = simkit.convolve(simkit.Waveform(x), simkit.ImpulseResponse(h))
    assert np.allclose(y.samples, naive_convolve(x, h), atol=1e-10)

    # SNR mixing re-measured within 0.01 dB across random draws
    for _ in range(25):
        snr = float(rng.uniform(-5.0, 25.0))
        speech = simkit.Waveform(rng.standard_normal(3000))
        noise = simkit.Waveform(rng.standard_normal(3000))
        mixed = simkit.mix_at_snr(speech, noise, snr)
        part = simkit.Waveform(mixed.samples - speech.samples)
        assert measure_snr(speech, part) == pytest.approx(snr, abs=0.01)

    _ok("4 simulation physics (direct path, convolution, SNR)")


# ---------------------------------------------------------------------------
# 5. decoder exactness

def test_criterion_5_decoder_matches_exhaustive_search():
    km = kws.KeywordModel(keyword_units=(0, 1), silence=2, garbage=3, blank=4)
    rng = np.random.default_rng(5)
    for _ in range(1000):
        t = int(rng.integers(2, 13))
        rows = rng.uniform(0.01, 1.0, (t, 5))
        for ti in range(t):
            if rng.random() < 0.6:
                rows[ti, rng.integers(5)] += rng.uniform(1.0, 5.0)
        rows /= rows.sum(axis=1, keepdims=True)
        post = netcore.Posteriorgram(rows)
        assert kws.viterbi_locate(post, km) == viterbi_oracle(rows, (0, 1), 2, 3, 4)

    # closed-form confidence: peaks 0.64 and 0.25 -> sqrt(0.16) = 0.4
    rows = np.array([
        [0.64, 0.09, 0.09, 0.09, 0.09],
        [0.15, 0.25, 0.20, 0.20, 0.20],
    ])
    det = kws.confidence_score(netcore.Posteriorgram(rows), (0, 1), km)
    assert det.score == pytest.approx(0.4, abs=1e-12)
    _ok("5 decoder vs exhaustive oracle (1000 posteriorgrams)")


# ---------------------------------------------------------------------------
# 6. operating-point selection

def test_criterion_6_threshold_selection():
    rng = np.random.default_rng(6)
    # CA target reached whenever some threshold can reach it
    for _ in range(50):
        n_pos = int(rng.integers(5, 200))
        scores = [(float(rng.random()), True) for _ in range(n_pos)]
        scores += [(float(rng.random()), False) for _ in range(n_pos)]
        th = kws.threshold_at_ca(scores, 0.96)
        assert kws.evaluate(scores, th).ca >= 0.96

    # iid positives/negatives: FA at the 96%-CA threshold lands at 0.96 +/- 0.02
    scores = [(float(rng.random()), True) for _ in range(10_000)]
    scores += [(float(rng.random()), False) for _ in range(10_000)]
    th = kws.threshold_at_ca(scores, 0.96)
    report = kws.evaluate(scores, th)
    assert report.ca >= 0.96
    assert report.fa == pytest.approx(0.96, abs=0.02)
    _ok(f"6 threshold selection (iid FA {report.fa:.4f})")


# ---------------------------------------------------------------------------
# 7. compression: distilled small model beats its hard-label twin

@pytest.mark.slow
def test_criterion_7_distillation_beats_hard_training():
    table = run_seeds(KwsCompressionConfig(), range(3))
    med = table.medians()
    fa_teacher, fa_hard, fa_dist = med["teacher"], med["hard_student"], med["distilled_student"]
    assert fa_hard > fa_dist
    assert fa_dist <= 1.5 * fa_teacher
    print("\n" + table.format_text())
    _ok(
        "7 compression (median FA: teacher "
        f"{fa_teacher:.3f}, hard student {fa_hard:.3f}, distilled {fa_dist:.3f})"
    )


# ---------------------------------------------------------------------------
# 8. adaptation: T/S on unlabeled pairs beats the unadapted teacher

@pytest.mark.slow
def test_criterion_8_adaptation_improves_far_field_fer():
    # the ladder's close-talk, ts-same-data (40 pairs) and ts-more-data (80
    # pairs) stages are the unadapted teacher and the half/full-data students
    table = run_seeds(LadderConfig(train_count=40, extra_count=40, test_count=40), range(5))
    med = table.medians()
    teacher, half, full = med["close-talk"], med["ts-same-data"], med["ts-more-data"]
    majority = med["majority-class"]
    assert full < teacher
    assert full <= half
    print("\n" + table.format_text())
    _ok(
        f"8 adaptation (median FER: teacher {teacher:.3f}, half-data {half:.3f}, "
        f"full-data {full:.3f}; majority-class baseline {majority:.3f})"
    )


# ---------------------------------------------------------------------------
# 9. reproducibility

def test_criterion_9_reproducibility(tmp_path):
    task = SynthTaskSpec(seed=0, n_mels=12, stack_context=4, stack_step=2)
    items = pipeline.synth_items(task, 6)
    spec = ModelSpec(input_dim=items[0].feats.shape[1], layers=1, hidden=8,
                     projection=0, output_dim=5, peepholes=False)
    cfg = TrainConfig(criterion="hard_ce", epochs=2, seed=11)

    paths = []
    for run in range(2):
        net = init_network(spec, np.random.default_rng(cfg.seed))
        out, _ = pipeline.train(net, pipeline.synth_items(task, 6), cfg)
        p = tmp_path / f"run{run}.ckpt"
        netcore.save_checkpoint(out, p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    back = netcore.load_checkpoint(paths[0])
    again = tmp_path / "resaved.ckpt"
    netcore.save_checkpoint(back, again)
    assert again.read_bytes() == paths[0].read_bytes()
    _ok("9 reproducibility (bit-identical checkpoints)")
