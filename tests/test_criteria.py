import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farspot import criteria, netcore, pipeline
from farspot.criteria import CriterionError
from farspot.netcore import ModelSpec, init_network, softmax
from farspot.pipeline import FarFieldConfig, PipelineError, SynthTaskSpec, TrainConfig
from helpers import (
    central_diff_grad,
    ctc_enum_loss,
    entropy,
    grad_rel_err,
    kl_divergence,
    reference_hard_ce_loss,
    reference_soft_ce_loss,
)


def _rand_dist(rng, n):
    p = rng.uniform(0.01, 1.0, n)
    return p / p.sum()


class TestKlDivergence:
    def test_identical_distributions_give_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_analytic_two_point_case(self):
        # KL([1, 0] || [0.5, 0.5]) = ln 2
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2.0))

    def test_direct_sum_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            p, q = _rand_dist(rng, n), _rand_dist(rng, n)
            expected = sum(pi * np.log(pi / qi) for pi, qi in zip(p, q))
            assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_non_negativity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        assert kl_divergence(_rand_dist(rng, n), _rand_dist(rng, n)) >= -1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(CriterionError):
            kl_divergence([0.5, 0.5], [0.3, 0.3, 0.4])

    def test_unnormalized_rejected(self):
        with pytest.raises(CriterionError):
            kl_divergence([0.5, 0.6], [0.5, 0.5])


class TestSoftCe:
    def test_one_hot_teacher_equals_hard_ce(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, 6)
        teacher = np.zeros((6, 4))
        teacher[np.arange(6), labels] = 1.0
        ls, gs = criteria.soft_ce_loss(teacher, logits)
        lh, gh = criteria.hard_ce_loss(labels, logits)
        assert ls == lh
        assert gs.tobytes() == gh.tobytes()

    def test_stationary_point_at_matching_posteriors(self):
        # when softmax(logits) equals the teacher, the gradient vanishes and
        # the loss equals the teacher entropy
        rng = np.random.default_rng(2)
        teacher = np.stack([_rand_dist(rng, 5) for _ in range(4)])
        logits = np.log(teacher)
        loss, grad = criteria.soft_ce_loss(teacher, logits)
        assert np.allclose(grad, 0.0, atol=1e-12)
        assert loss == pytest.approx(entropy(teacher), abs=1e-9)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        t, n = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        teacher = np.stack([_rand_dist(rng, n) for _ in range(t)])
        logits = rng.standard_normal((t, n))
        _, grad = criteria.soft_ce_loss(teacher, logits)
        numeric = central_diff_grad(
            lambda v: criteria.soft_ce_loss(teacher, v.reshape(t, n))[0], logits.ravel()
        )
        assert grad_rel_err(grad, numeric) < 1e-6

    def test_kl_equivalence(self):
        # soft CE minus teacher entropy equals the summed per-frame KL
        rng = np.random.default_rng(3)
        teacher = np.stack([_rand_dist(rng, 6) for _ in range(5)])
        logits = rng.standard_normal((5, 6))
        loss, _ = criteria.soft_ce_loss(teacher, logits)
        student = softmax(logits)
        kl_sum = sum(kl_divergence(teacher[t], student[t]) for t in range(5))
        assert loss - entropy(teacher) == pytest.approx(kl_sum, abs=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(CriterionError):
            criteria.soft_ce_loss(np.full((3, 4), 0.25), np.zeros((3, 5)))

    @pytest.mark.parametrize("fill, what", [(-3.0, "outside"), (np.nan, "outside"),
                                            (2 / 3, "sum to 1")],
                             ids=["negative", "nan", "sum-2"])
    def test_rows_that_are_no_posteriors_rejected(self, fill, what):
        # rows of -3.0 used to give a loss of -49.9, and NaN rows a NaN loss
        rows = np.full((4, 3), fill)
        with pytest.raises(CriterionError, match=f"teacher posteriors: .*{what}"):
            criteria.soft_ce_loss(rows, np.zeros((4, 3)))
        with pytest.raises(CriterionError, match=f"teacher posteriors: .*{what}"):
            criteria.soft_ce_loss_batch(np.zeros((2, 4, 3)), [4, 2],
                                        [np.full((4, 3), 1 / 3), rows[:2]])


class TestHardCe:
    def test_uniform_logits_give_ln_n(self):
        loss, _ = criteria.hard_ce_loss([0, 1, 2], np.zeros((3, 3)))
        assert loss == pytest.approx(3 * np.log(3.0))

    def test_confident_correct_prediction_approaches_zero(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 30.0
        loss, _ = criteria.hard_ce_loss([2], logits)
        assert loss == pytest.approx(0.0, abs=1e-10)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        t, n = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        labels = rng.integers(0, n, t)
        logits = rng.standard_normal((t, n))
        _, grad = criteria.hard_ce_loss(labels, logits)
        numeric = central_diff_grad(
            lambda v: criteria.hard_ce_loss(labels, v.reshape(t, n))[0], logits.ravel()
        )
        assert grad_rel_err(grad, numeric) < 1e-6

    def test_label_out_of_range_rejected(self):
        with pytest.raises(CriterionError):
            criteria.hard_ce_loss([4], np.zeros((1, 4)))


# criterion -> (batch function, one-utterance function, the arithmetic from
# before the batched criteria)
_CE = {"hard_ce": (criteria.hard_ce_loss_batch, criteria.hard_ce_loss, reference_hard_ce_loss),
       "soft_ce": (criteria.soft_ce_loss_batch, criteria.soft_ce_loss, reference_soft_ce_loss)}


def _ce_targets(criterion, rng, lengths, n):
    if criterion == "soft_ce":
        return [np.stack([_rand_dist(rng, n) for _ in range(t)]) for t in lengths]
    return [rng.integers(0, n, t) for t in lengths]


class TestCeBatch:
    # as for CTC, each row of a batch must be exactly (==) its utterance's
    # one-utterance call, and the gradients those calls give must be the
    # bytes of the arithmetic they replaced, since checkpoints depend on them
    @pytest.mark.parametrize("criterion", ["hard_ce", "soft_ce"])
    def test_rows_equal_single_utterance_calls(self, criterion):
        rng = np.random.default_rng(24)
        lengths = [9, 1, 4, 9, 2, 6]
        logits = 3.0 * rng.standard_normal((len(lengths), max(lengths) + 2, 5))  # all padded
        targets = _ce_targets(criterion, rng, lengths, 5)
        batch, single, _ = _CE[criterion]
        losses, grad = batch(logits, lengths, targets)
        assert grad.shape == logits.shape
        for j, (tj, target) in enumerate(zip(lengths, targets)):
            loss_j, grad_j = single(target, logits[j, :tj])
            assert losses[j] == loss_j
            assert grad[j, :tj].tobytes() == grad_j.tobytes()
            assert np.all(grad[j, tj:] == 0.0)

    @pytest.mark.parametrize("criterion", ["hard_ce", "soft_ce"])
    def test_single_utterance_calls_equal_reference(self, criterion):
        rng = np.random.default_rng(25)
        _, single, reference = _CE[criterion]
        for t in range(1, 41):
            logits = 3.0 * rng.standard_normal((t, 5))
            target, = _ce_targets(criterion, rng, [t], 5)
            loss, grad = single(target, logits)
            want_loss, want_grad = reference(target, logits)
            assert grad.tobytes() == want_grad.tobytes()
            # hard CE now sums T x N one-hot terms, not T label terms
            assert loss == (want_loss if criterion == "soft_ce"
                            else pytest.approx(want_loss, rel=1e-13))

    @pytest.mark.parametrize("criterion", ["hard_ce", "soft_ce"])
    def test_training_batch_equals_reference_loop(self, criterion):
        reference = _CE[criterion][2]
        field = pipeline._CRITERIA[criterion].field
        _check_training_batch(criterion, lambda it, lg: reference(getattr(it, field), lg),
                              exact_loss=criterion == "soft_ce")

    def test_whole_number_float_labels_equal_int_labels(self):
        logits = np.random.default_rng(26).standard_normal((1, 3, 4))
        want = criteria.hard_ce_loss_batch(logits, [3], [[0, 3, 1]])
        got = criteria.hard_ce_loss_batch(logits, [3], [np.array([0.0, 3.0, 1.0])])
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("labels", [[0, 2.7, 1], [0, np.nan, 1], [0, np.inf, 1],
                                        [0, -1, 1], [[0, 1, 2]], [0, 1]],
                             ids=["fraction", "nan", "inf", "negative", "2-d", "short"])
    def test_bad_labels_rejected(self, labels):
        with pytest.raises(CriterionError):
            criteria.hard_ce_loss_batch(np.zeros((1, 3, 4)), [3], [labels])

    def test_bad_lengths_rejected(self):
        logits = np.zeros((2, 4, 3))
        rows = [np.full((4, 3), 1 / 3), np.full((2, 3), 1 / 3)]
        for lengths in ([4, 5], [0, 2], [4], [4, 3]):
            with pytest.raises(CriterionError):
                criteria.soft_ce_loss_batch(logits, lengths, rows)
        with pytest.raises(CriterionError):  # one target short
            criteria.soft_ce_loss_batch(logits, [4, 2], rows[:1])

    def test_non_integer_lengths_rejected(self):
        # a length of 2.5 used to give a 2-frame loss; numpy ints pass
        logits = np.zeros((1, 3, 2))
        rows = [np.full((2, 2), 0.5)]
        for lengths in ([2.5], [2.0], [True]):
            with pytest.raises(CriterionError, match="not integers"):
                criteria.soft_ce_loss_batch(logits, lengths, rows)
        want = criteria.soft_ce_loss_batch(logits, [2], rows)
        for lengths in (np.array([2]), [np.int32(2)], np.array([2], dtype=np.uint8)):
            got = criteria.soft_ce_loss_batch(logits, lengths, rows)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

    def test_utterance_without_frames_rejected(self):
        with pytest.raises(CriterionError, match="outside"):
            criteria.soft_ce_loss(np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(CriterionError, match="outside"):
            criteria.hard_ce_loss([], np.zeros((0, 3)))


class TestTsAdaptation:
    # T/S adaptation is pipeline's soft_ce criterion on the teacher rows that
    # pipeline.adapt attaches: the teacher's posteriors on the paired source
    # features
    def _items(self, n):
        task = SynthTaskSpec(seed=0, n_mels=12, stack_context=4, stack_step=2)
        return pipeline.synth_pair_items(task, FarFieldConfig(seed=1), n)

    def _net(self, input_dim, seed):
        spec = ModelSpec(input_dim=input_dim, layers=1, hidden=8, projection=0,
                         output_dim=5, peepholes=False)
        return init_network(spec, np.random.default_rng(seed))

    @staticmethod
    def _adapt_items(monkeypatch, teacher, items):
        """The items, teacher rows attached, that pipeline.adapt trains on."""
        seen = []

        def train(net, items, cfg, checkpoint_dir=None):
            seen.append((items, cfg.criterion))
            return net, []

        monkeypatch.setattr(pipeline, "train", train)
        pipeline.adapt(teacher, items, TrainConfig())
        (items, criterion), = seen
        assert criterion == "soft_ce"
        return items

    def test_composition_oracle(self, monkeypatch):
        # the batched loss and gradient on adapt's items equal soft CE against
        # teacher posteriors computed separately, one utterance at a time, on
        # the source features; the batched forward may differ in the last bits
        items = self._items(3)
        teacher = self._net(items[0].feats.shape[1], 8)
        items = self._adapt_items(monkeypatch, teacher, items)
        student = self._net(items[0].feats.shape[1], 9)
        loss, grad = pipeline._batch_loss_and_grad(
            student, items, TrainConfig(criterion="soft_ce"))

        tmax = max(it.num_frames for it in items)
        x = np.zeros((len(items), tmax, student.spec.input_dim))
        for j, it in enumerate(items):
            x[j, : it.num_frames] = it.feats
        logits, cache = netcore.forward_batch(student, x)
        dlogits = np.zeros_like(logits)
        want_loss, frames = 0.0, 0
        for j, it in enumerate(items):
            t = it.num_frames
            t_post = netcore.forward(teacher, it.source_feats)
            lj, gj = criteria.soft_ce_loss(t_post.rows, logits[j, :t])
            dlogits[j, :t] = gj
            want_loss += lj
            frames += t
        want_grad = netcore.backward_batch(student, cache, dlogits / frames)
        assert loss == pytest.approx(want_loss / frames, rel=0, abs=1e-12)
        assert np.max(np.abs(grad - want_grad)) < 1e-12

    def test_matched_student_has_zero_gradient(self, monkeypatch):
        # identical source/target features and a student equal to the teacher
        # sit at the criterion's stationary point
        items = [replace(it, source_feats=it.feats) for it in self._items(3)]
        teacher = self._net(items[0].feats.shape[1], 6)
        items = self._adapt_items(monkeypatch, teacher, items)
        _, grad = pipeline._batch_loss_and_grad(
            teacher.copy(), items, TrainConfig(criterion="soft_ce"))
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_frame_count_mismatch_rejected(self):
        items = self._items(2)
        items[1] = replace(items[1], source_feats=items[1].source_feats[:-1])
        teacher = self._net(items[0].feats.shape[1], 7)
        with pytest.raises(PipelineError, match=f"{items[1].utt_id}: paired frame counts differ"):
            pipeline.adapt(teacher, items, TrainConfig())


class TestCtc:
    def test_single_frame_single_label(self):
        logits = np.log(np.array([[0.6, 0.1, 0.3]]))
        loss, _ = criteria.ctc_loss(logits, [0], blank=2)
        assert loss == pytest.approx(-np.log(0.6), abs=1e-12)

    def test_two_frame_uniform_example(self):
        # T=2, N=2, uniform posteriors, label "a": paths aa, a-, -a out of 4
        loss, _ = criteria.ctc_loss(np.zeros((2, 2)), [0], blank=1)
        assert loss == pytest.approx(-np.log(0.75), abs=1e-12)

    def test_min_frames(self):
        assert criteria.ctc_min_frames([0, 1]) == 2
        assert criteria.ctc_min_frames([0, 0]) == 3
        assert criteria.ctc_min_frames([0, 0, 1, 1]) == 6

    def test_infeasible_length_rejected(self):
        with pytest.raises(CriterionError):
            criteria.ctc_loss(np.zeros((2, 3)), [0, 0], blank=2)

    def test_blank_in_labels_rejected(self):
        with pytest.raises(CriterionError):
            criteria.ctc_loss(np.zeros((3, 3)), [2], blank=2)

    @pytest.mark.parametrize("symbol", [0.7, 1.5, np.nan, np.inf])
    def test_non_integer_symbols_rejected(self, symbol):
        # a symbol of 0.7 used to give the loss of [0], bit for bit
        with pytest.raises(CriterionError, match="no CTC transcript"):
            criteria.ctc_loss(np.zeros((3, 3)), [symbol], blank=2)
        with pytest.raises(CriterionError, match="no CTC transcript"):
            criteria.ctc_loss_batch(np.zeros((2, 3, 3)), [3, 2], [[0], [1, symbol]], blank=2)

    def test_against_path_enumeration(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            t = int(rng.integers(1, 6))
            n = int(rng.integers(2, 5))
            blank = n - 1
            max_l = min(t, 3)
            length = int(rng.integers(1, max_l + 1))
            labels = list(rng.integers(0, n - 1, length))
            if criteria.ctc_min_frames(labels) > t:
                continue
            logits = rng.standard_normal((t, n))
            loss, _ = criteria.ctc_loss(logits, labels, blank)
            assert loss == pytest.approx(ctc_enum_loss(logits, labels, blank), abs=1e-10)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(3, 7))
        n = int(rng.integers(3, 6))
        labels = [int(x) for x in rng.integers(0, n - 1, 2)]
        if criteria.ctc_min_frames(labels) > t:
            labels = labels[:1]
        logits = rng.standard_normal((t, n))
        _, grad = criteria.ctc_loss(logits, labels, n - 1)
        numeric = central_diff_grad(
            lambda v: criteria.ctc_loss(v.reshape(t, n), labels, n - 1)[0], logits.ravel()
        )
        assert grad_rel_err(grad, numeric) < 1e-5

    def test_symbol_permutation_invariance(self):
        # relabeling the alphabet consistently must not change the loss
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((6, 4))
        labels = [0, 2]
        perm = np.array([2, 0, 1, 3])  # new index of old symbol i; blank 3 fixed
        loss_a, _ = criteria.ctc_loss(logits, labels, blank=3)
        permuted = np.empty_like(logits)
        permuted[:, perm] = logits[:, [0, 1, 2, 3]]
        loss_b, _ = criteria.ctc_loss(permuted, [int(perm[x]) for x in labels], blank=3)
        assert loss_a == pytest.approx(loss_b, abs=1e-12)

    def test_all_blank_path_for_empty_label(self):
        logits = np.random.default_rng(10).standard_normal((4, 3))
        loss, _ = criteria.ctc_loss(logits, [], blank=2)
        logp = netcore.log_softmax(logits)
        assert loss == pytest.approx(-np.sum(logp[:, 2]), abs=1e-12)

    def test_gradient_rows_sum_to_zero(self):
        # grad = softmax - posterior; both rows sum to 1
        rng = np.random.default_rng(11)
        logits = rng.standard_normal((7, 5))
        _, grad = criteria.ctc_loss(logits, [0, 3, 1], blank=4)
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-9)


class TestCtcBatch:
    # the batched kernel must give each utterance exactly (==) what it gets
    # alone, since training checkpoints depend on the last bits
    def test_rows_equal_single_utterance_calls(self):
        rng = np.random.default_rng(20)
        label_lists = [[0, 1, 2], [], [0, 0], [3, 1, 3, 3], [2]]
        # includes utterances of exactly ctc_min_frames frames
        lengths = [9, 4, criteria.ctc_min_frames([0, 0]),
                   criteria.ctc_min_frames([3, 1, 3, 3]), 1]
        t = max(lengths) + 2  # every utterance is padded
        logits = 3.0 * rng.standard_normal((len(lengths), t, 5))
        losses, grad = criteria.ctc_loss_batch(logits, lengths, label_lists, blank=4)
        assert grad.shape == logits.shape
        for j, (tj, labels) in enumerate(zip(lengths, label_lists)):
            loss_j, grad_j = criteria.ctc_loss(logits[j, :tj], labels, blank=4)
            assert losses[j] == loss_j
            assert np.array_equal(grad[j, :tj], grad_j)
            assert np.all(grad[j, tj:] == 0.0)

    def test_one_errstate_around_the_recursions_changes_no_byte(self, monkeypatch):
        # a (16, 9) lattice whose padded states hold -inf: no warning escapes
        # the one np.errstate of ctc_loss_batch, and the bytes equal those of
        # a _logsumexp2 that silences its own log(0)
        rng = np.random.default_rng(21)
        label_lists = [[int(x) for x in rng.integers(0, 4, j % 5)] for j in range(16)]
        lengths = [criteria.ctc_min_frames(labels) + int(rng.integers(1, 6))
                   for labels in label_lists]
        logits = 3.0 * rng.standard_normal((16, max(lengths), 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            losses, grad = criteria.ctc_loss_batch(logits, lengths, label_lists, blank=4)

        plain = criteria._logsumexp2

        def silenced(a, b):
            with np.errstate(divide="ignore", invalid="ignore"):
                return plain(a, b)

        monkeypatch.setattr(criteria, "_logsumexp2", silenced)
        want_losses, want_grad = criteria.ctc_loss_batch(logits, lengths, label_lists, blank=4)
        assert losses.tobytes() == want_losses.tobytes()
        assert grad.tobytes() == want_grad.tobytes()

    def test_bad_lengths_rejected(self):
        logits = np.zeros((2, 4, 3))
        for lengths in ([4, 5], [0, 4], [4]):
            with pytest.raises(CriterionError):
                criteria.ctc_loss_batch(logits, lengths, [[0], [1]], blank=2)
        with pytest.raises(CriterionError):
            criteria.ctc_loss_batch(logits, [4, 2], [[0], [1, 1]], blank=2)

    def test_whole_number_float_symbols_equal_int_symbols(self):
        logits = np.random.default_rng(27).standard_normal((2, 5, 4))
        want = criteria.ctc_loss_batch(logits, [5, 4], [[0, 3, 1], [1, 1]], blank=2)
        got = criteria.ctc_loss_batch(logits, [5, 4], [np.array([0.0, 3.0, 1.0]), [1.0, 1.0]],
                                      blank=2)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_training_batch_equals_per_utterance_loop(self):
        _check_training_batch(
            "ctc", lambda it, lg: criteria.ctc_loss(lg, it.symbols, pipeline.BLANK))


def _check_training_batch(criterion, single, exact_loss=True):
    """The criterion's entry of the training table against one call of
    single(item, logits (T, N)) per utterance, summed in item order, on the
    same padded forward pass: the gradient must be equal byte for byte."""
    items = pipeline.synth_items(SynthTaskSpec(seed=3, n_mels=12, stack_context=4,
                                               stack_step=2), 5)
    spec = ModelSpec(input_dim=items[0].feats.shape[1], layers=1, hidden=8,
                     projection=0, output_dim=5, peepholes=False)
    net = init_network(spec, np.random.default_rng(22))
    items = pipeline.compute_teacher_posteriors(init_network(spec, np.random.default_rng(23)),
                                                items)
    loss, grad = pipeline._batch_loss_and_grad(net, items, TrainConfig(criterion=criterion))

    tmax = max(it.num_frames for it in items)
    assert any(it.num_frames < tmax for it in items)
    x = np.zeros((len(items), tmax, spec.input_dim))
    for j, it in enumerate(items):
        x[j, : it.num_frames] = it.feats
    logits, cache = netcore.forward_batch(net, x)
    dlogits = np.zeros_like(logits)
    want_loss, frames = 0.0, 0
    for j, it in enumerate(items):
        t = it.num_frames
        lj, dlogits[j, :t] = single(it, logits[j, :t])
        want_loss += lj
        frames += t
    dlogits /= frames
    assert loss == (want_loss / frames if exact_loss
                    else pytest.approx(want_loss / frames, rel=1e-13))
    assert grad.tobytes() == netcore.backward_batch(net, cache, dlogits).tobytes()
