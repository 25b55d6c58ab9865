import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from farspot import criteria, kws, netcore, pipeline
from farspot.netcore import ModelSpec
from farspot.pipeline import (
    BLANK,
    CORTANA,
    GARBAGE,
    HEY,
    KEYWORD_MODEL,
    SILENCE,
    FarFieldConfig,
    Manifest,
    ManifestRecord,
    PipelineError,
    RunError,
    SynthTaskSpec,
    TrainConfig,
)
from helpers import (
    reference_adapt,
    reference_compute_teacher_posteriors,
    reference_frame_error_rate,
    reference_score_kws,
    run_at_one_blas_thread_per_cpu,
    train_digest,
)


def _small_task(**kw):
    defaults = dict(seed=0, n_mels=12, stack_context=4, stack_step=2)
    defaults.update(kw)
    return SynthTaskSpec(**defaults)


# a stacked spec and the unstacked acoustic-model spec of the ladder
_STACKINGS = (_small_task(), pipeline._am_task_spec(0))


def _tiny_model(input_dim, output_dim=5, hidden=8):
    return ModelSpec(input_dim=input_dim, layers=1, hidden=hidden, projection=0,
                     output_dim=output_dim, peepholes=False)


class TestManifests:
    def test_round_trip(self, tmp_path):
        m = Manifest([
            ManifestRecord("a", "/x/a.wav", [0, 1, 2], [0, 1], True, "/x/a_clean.wav"),
            ManifestRecord("b", "/x/b.wav", None, None, False, None),
            ManifestRecord("c", "/x/c.fsfa", [3], None, None, None),
        ])
        p = tmp_path / "m.tsv"
        pipeline.write_manifest(p, m)
        back = pipeline.read_manifest(p)
        assert len(back) == 3
        assert back.records[0].frame_labels == [0, 1, 2]
        assert back.records[0].symbols == [0, 1]
        assert back.records[0].is_positive is True
        assert back.records[0].pair_path == "/x/a_clean.wav"
        assert back.records[1].frame_labels is None
        assert back.records[1].is_positive is False
        assert back.records[2].is_positive is None

    def test_paths_are_relative_to_the_manifest(self, tmp_path, monkeypatch):
        m = Manifest([ManifestRecord("a", str(tmp_path / "sub" / "a.wav"),
                                     pair_path=str(tmp_path / "clean" / "a.wav"))])
        p = tmp_path / "sub" / "m.tsv"
        p.parent.mkdir()
        pipeline.write_manifest(p, m)
        assert p.read_text().splitlines()[1].split("\t")[1::4] == ["a.wav", "../clean/a.wav"]
        monkeypatch.chdir(tmp_path)  # relative paths resolve against sub/, not here
        assert pipeline.read_manifest(Path("sub") / "m.tsv") == \
            Manifest([replace(m.records[0], path="sub/a.wav", pair_path="clean/a.wav")])
        assert pipeline.read_manifest(p) == m
        # a path written absolute is read as it stands
        (tmp_path / "abs.tsv").write_text("b\t/x/b.wav\t-\t-\t-\t/x/b_clean.wav\n")
        assert pipeline.read_manifest(tmp_path / "abs.tsv").records == \
            [ManifestRecord("b", "/x/b.wav", pair_path="/x/b_clean.wav")]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(PipelineError):
            Manifest([ManifestRecord("a", "x"), ManifestRecord("a", "y")])

    # simulate and featurize name each output file after its id
    @pytest.mark.parametrize("utt_id", ["", ".", "..", "../a", "a/b", "/a"])
    def test_id_that_is_not_a_file_name_rejected(self, utt_id):
        with pytest.raises(PipelineError, match="is not one file-name component"):
            Manifest([ManifestRecord("a", "x"), ManifestRecord(utt_id, "y")])

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("a\tb\tc\n")
        with pytest.raises(PipelineError):
            pipeline.read_manifest(p)

    @pytest.mark.parametrize("fields", [
        ("1,z", "-", "-"), ("-", "1,,2", "-"), ("-", "-", "yes"), ("-", "-", "2"),
    ], ids="/".join)
    def test_bad_field_rejected_with_line_number(self, tmp_path, fields):
        # frame_labels, symbols, is_positive
        p = tmp_path / "bad.tsv"
        p.write_text("# header\nb\tp\t" + "\t".join(fields) + "\t-\n")
        with pytest.raises(PipelineError, match="bad.tsv:2"):
            pipeline.read_manifest(p)


class TestSynthesis:
    def test_deterministic_under_seed(self):
        spec = _small_task(seed=7)
        a = pipeline.synth_items(spec, 5)
        b = pipeline.synth_items(spec, 5)
        for ia, ib in zip(a, b):
            assert np.array_equal(ia.feats, ib.feats)
            assert np.array_equal(ia.frame_labels, ib.frame_labels)
            assert ia.symbols == ib.symbols

    def test_different_seeds_differ(self):
        a = pipeline.synth_items(_small_task(seed=1), 2)
        b = pipeline.synth_items(_small_task(seed=2), 2)
        assert not np.array_equal(a[0].feats, b[0].feats)

    def test_exact_positive_counts(self):
        items = pipeline.synth_items(_small_task(), 200)
        assert sum(it.is_positive for it in items) == 100
        items = pipeline.synth_items(_small_task(positive_ratio=0.3), 200)
        assert sum(it.is_positive for it in items) == 60

    def test_positive_transcripts_contain_keyword_in_order(self):
        for it in pipeline.synth_items(_small_task(), 30):
            syms = it.symbols
            if it.is_positive:
                assert any(a == HEY and b == CORTANA for a, b in zip(syms, syms[1:]))
            else:
                assert HEY not in syms and CORTANA not in syms

    @pytest.mark.parametrize("context,step", [(0, 1), (1, 0), (-1, -1)])
    def test_meaningless_stacking_rejected(self, context, step):
        with pytest.raises(PipelineError, match="stack"):
            _small_task(stack_context=context, stack_step=step)

    @pytest.mark.parametrize("cls, field, value", [
        (SynthTaskSpec, "filler_freqs", ()),
        (SynthTaskSpec, "freq_jitter", 1.0),
        (SynthTaskSpec, "noise_snr_range", (8.0, float("inf"))),
        (FarFieldConfig, "seed", True),
        (FarFieldConfig, "snr_range", (-7000.0, 0.0)),  # its noise gain overflows
    ])
    def test_bad_task_or_farfield_field_rejected(self, cls, field, value):
        with pytest.raises(PipelineError, match=field):
            cls(**{field: value})

    def test_labels_match_feature_frames(self):
        for spec in _STACKINGS:
            for it in pipeline.synth_items(spec, 10):
                assert len(it.frame_labels) == it.num_frames
                assert set(np.unique(it.frame_labels)) <= {HEY, CORTANA, SILENCE, GARBAGE}

    def test_corpus_files_round_trip(self, tmp_path):
        for k, spec in enumerate(_STACKINGS):
            m = pipeline.synth_corpus(spec, 4, tmp_path / str(k))
            assert len(m) == 4
            items = pipeline.items_from_manifest(m, spec)
            direct = pipeline.synth_items(spec, 4)
            for got, want in zip(items, direct):
                # WAV quantizes to 16 bits, so features are close but not equal
                assert got.feats.shape == want.feats.shape
                assert np.allclose(got.feats, want.feats, atol=0.1)
                assert np.array_equal(got.frame_labels, want.frame_labels)

    @pytest.mark.parametrize("count, workers, message", [
        (0, 1, "count must be >= 1, got 0"), (-3, 1, "count must be >= 1, got -3"),
        (2, 0, "workers must be >= 1, got 0"), (2, -5, "workers must be >= 1, got -5")])
    def test_bad_corpus_size_rejected_before_writing(self, tmp_path, count, workers, message):
        with pytest.raises(PipelineError, match=message):
            pipeline.synth_corpus(_small_task(), count, tmp_path / "o", workers=workers)
        assert not (tmp_path / "o").exists()

    def test_featurized_corpus_loads_from_archives(self, tmp_path):
        spec = _small_task()
        m = pipeline.synth_corpus(spec, 3, tmp_path / "wav")
        fm = pipeline.featurize_corpus(m, spec, tmp_path / "feat")
        items = pipeline.items_from_manifest(fm, spec)
        wav_items = pipeline.items_from_manifest(m, spec)
        for a, b in zip(items, wav_items):
            assert np.allclose(a.feats, b.feats, atol=1e-5)

    def test_ideal_posteriorgram_scores_one(self):
        # one-hot posteriors built from ground-truth labels are a construction
        # oracle: the spotter must find the keyword with confidence 1
        items = [it for it in pipeline.synth_items(_small_task(), 20) if it.is_positive]
        it = items[0]
        rows = np.zeros((it.num_frames, 5))
        rows[np.arange(it.num_frames), it.frame_labels] = 1.0
        det = kws.spot(netcore.Posteriorgram(rows), KEYWORD_MODEL)
        assert det.score == pytest.approx(1.0)
        hey_frames = np.nonzero(np.asarray(it.frame_labels) == HEY)[0]
        cor_frames = np.nonzero(np.asarray(it.frame_labels) == CORTANA)[0]
        assert det.segment[0] == hey_frames[0]
        assert det.segment[1] == cor_frames[-1]


class TestFarField:
    def test_pairs_are_frame_synchronous(self):
        items = pipeline.synth_pair_items(_small_task(), FarFieldConfig(seed=5), 3)
        for it in items:
            assert it.source_feats.shape == it.feats.shape

    def test_farfield_differs_from_clean(self):
        items = pipeline.synth_pair_items(_small_task(), FarFieldConfig(seed=5), 2)
        for it in items:
            assert not np.allclose(it.feats, it.source_feats)

    def test_simulate_corpus_sets_pair_path(self, tmp_path):
        spec = _small_task()
        clean = pipeline.synth_corpus(spec, 3, tmp_path / "clean")
        far = pipeline.simulate_corpus(clean, FarFieldConfig(seed=2), tmp_path / "far")
        for r_far, r_clean in zip(far.records, clean.records):
            assert r_far.pair_path == r_clean.path
            assert r_far.path != r_clean.path
        items = pipeline.items_from_manifest(far, spec)
        assert items[0].source_feats is not None


class TestTraining:
    def _one_item(self):
        return pipeline.synth_items(_small_task(), 1)[0]

    def test_lr_zero_leaves_parameters_unchanged(self):
        it = self._one_item()
        net = netcore.init_network(_tiny_model(it.feats.shape[1]), np.random.default_rng(0))
        out, _ = pipeline.train(net, [it], TrainConfig(learning_rate=0.0, epochs=2))
        assert np.array_equal(out.parameters, net.parameters)

    def test_single_utterance_overfit_decreases_loss(self):
        it = self._one_item()
        net = netcore.init_network(_tiny_model(it.feats.shape[1], hidden=16),
                                   np.random.default_rng(0))
        cfg = TrainConfig(criterion="hard_ce", learning_rate=1e-2, epochs=10,
                          lr_decay=1.0, batch_size=1)
        _, log = pipeline.train(net, [it], cfg)
        assert all(b < a for a, b in zip(log, log[1:]))

    def test_same_seed_gives_bit_identical_models(self):
        items = pipeline.synth_items(_small_task(), 6)
        spec = _tiny_model(items[0].feats.shape[1])
        cfg = TrainConfig(criterion="hard_ce", epochs=2, seed=3)
        runs = []
        for _ in range(2):
            net = netcore.init_network(spec, np.random.default_rng(cfg.seed))
            out, _ = pipeline.train(net, items, cfg)
            runs.append(out.parameters)
        assert np.array_equal(runs[0], runs[1])

    def test_same_bits_at_one_blas_thread_per_cpu(self):
        # the clipped steps depend on every bit of the gradient norm
        out = run_at_one_blas_thread_per_cpu("from helpers import train_digest\n"
                                             "print(train_digest())\n")
        assert out.strip() == train_digest()

    def test_checkpoints_written_per_epoch(self, tmp_path):
        items = pipeline.synth_items(_small_task(), 3)
        net = netcore.init_network(_tiny_model(items[0].feats.shape[1]),
                                   np.random.default_rng(0))
        out, _ = pipeline.train(net, items, TrainConfig(epochs=2),
                                checkpoint_dir=tmp_path)
        assert (tmp_path / "epoch000.ckpt").exists()
        final = netcore.load_checkpoint(tmp_path / "epoch001.ckpt")
        assert np.array_equal(final.parameters, out.parameters)

    def test_ctc_needs_symbols(self):
        it = replace(self._one_item(), symbols=None)
        net = netcore.init_network(_tiny_model(it.feats.shape[1]), np.random.default_rng(0))
        with pytest.raises(PipelineError):
            pipeline.train(net, [it], TrainConfig(criterion="ctc"))

    def test_feature_width_must_match_the_model(self):
        items = pipeline.synth_items(_small_task(), 2)  # 48-dim stacked frames
        net = netcore.init_network(_tiny_model(24), np.random.default_rng(0))
        with pytest.raises(PipelineError, match="takes 24-dim"):
            pipeline.train(net, items, TrainConfig())

    def test_non_finite_gradient_stops_training_before_checkpoint(self, tmp_path):
        items = pipeline.synth_items(_small_task(), 3)
        feats = items[1].feats.copy()
        feats[0, 0] = np.inf
        items[1] = replace(items[1], feats=feats)
        net = netcore.init_network(_tiny_model(feats.shape[1]), np.random.default_rng(0))
        with pytest.raises(RunError, match=f"epoch 0, batch .*{items[1].utt_id}"):
            pipeline.train(net, items, TrainConfig(epochs=2, batch_size=1),
                           checkpoint_dir=tmp_path)
        assert not list(tmp_path.glob("epoch*.ckpt"))

    def test_non_finite_update_stops_training_before_checkpoint(self, tmp_path):
        # the loss and the clipped gradient are finite, but one step at the
        # largest float learning rate takes a weight past the float range
        it = pipeline.TrainItem("u", np.full((6, 1), 3.0), frame_labels=np.zeros(6, dtype=int))
        net = netcore.init_network(_tiny_model(1, output_dim=2, hidden=1),
                                   np.random.default_rng(0))
        net.block("out.w")[...] = [[-5.0], [5.0]]
        with np.errstate(over="ignore"), pytest.raises(RunError,
                                                       match="non-finite parameters after epoch 0"):
            pipeline.train(net, [it], TrainConfig(learning_rate=sys.float_info.max, epochs=1),
                           checkpoint_dir=tmp_path)
        assert not list(tmp_path.glob("epoch*.ckpt"))

    def test_empty_training_set_rejected(self):
        net = netcore.init_network(_tiny_model(4), np.random.default_rng(0))
        with pytest.raises(PipelineError):
            pipeline.train(net, [], TrainConfig())


class TestDistillAndAdapt:
    def test_distill_fixed_point(self):
        # a student identical to the teacher sees exactly-zero soft CE
        # gradients, so one epoch leaves it unchanged
        items = pipeline.synth_items(_small_task(), 4)
        spec = _tiny_model(items[0].feats.shape[1])
        teacher = netcore.init_network(spec, np.random.default_rng(1))
        with_post = pipeline.compute_teacher_posteriors(teacher, items)
        student, _ = pipeline.train(
            teacher.copy(), with_post,
            TrainConfig(criterion="soft_ce", learning_rate=0.5, epochs=1, batch_size=1),
        )
        assert np.array_equal(student.parameters, teacher.parameters)

    def test_distill_needs_no_transcripts(self):
        items = [replace(it, frame_labels=None, symbols=None)
                 for it in pipeline.synth_items(_small_task(), 4)]
        spec = _tiny_model(items[0].feats.shape[1])
        teacher = netcore.init_network(spec, np.random.default_rng(2))
        student, log = pipeline.distill(teacher, spec, items, TrainConfig(epochs=1))
        assert len(log) == 1

    def test_distill_output_dim_mismatch_rejected(self):
        items = pipeline.synth_items(_small_task(), 2)
        d = items[0].feats.shape[1]
        teacher = netcore.init_network(_tiny_model(d, output_dim=5), np.random.default_rng(0))
        with pytest.raises(PipelineError):
            pipeline.distill(teacher, _tiny_model(d, output_dim=4), items, TrainConfig())

    def test_adapt_fixed_point_on_identical_domains(self):
        # source == target features: the adapted student equals the teacher
        items = pipeline.synth_items(_small_task(), 3)
        items = [replace(it, source_feats=it.feats) for it in items]
        spec = _tiny_model(items[0].feats.shape[1])
        teacher = netcore.init_network(spec, np.random.default_rng(4))
        student, _ = pipeline.adapt(teacher, items,
                                    TrainConfig(learning_rate=0.5, epochs=2))
        assert np.array_equal(student.parameters, teacher.parameters)

    def test_adapt_needs_no_transcripts(self):
        items = pipeline.synth_pair_items(_small_task(), FarFieldConfig(seed=1), 3)
        items = [replace(it, frame_labels=None, symbols=None)
                 for it in items]
        spec = _tiny_model(items[0].feats.shape[1])
        teacher = netcore.init_network(spec, np.random.default_rng(5))
        student, log = pipeline.adapt(teacher, items, TrainConfig(epochs=1))
        assert len(log) == 1

    @pytest.mark.parametrize("criterion, field, what", [
        ("hard_ce", "frame_labels", "frame labels"),
        ("soft_ce", "teacher_rows", "teacher posteriors"),
        ("adapt", "source_feats", "paired source features"),
        ("ctc", "symbols", "a symbol transcript"),
    ])
    def test_item_without_the_criterion_target_rejected(self, criterion, field, what):
        # items carrying every field pass; one without the criterion's field
        # (for adapt: the paired source features) is named before any training
        items = pipeline.synth_pair_items(_small_task(), FarFieldConfig(seed=1), 2)
        spec = _tiny_model(items[0].feats.shape[1])
        teacher = netcore.init_network(spec, np.random.default_rng(2))
        items = pipeline.compute_teacher_posteriors(teacher, items)
        if criterion != "adapt":
            pipeline._check_items(items, criterion, spec)
        items[1] = replace(items[1], **{field: None})
        with pytest.raises(PipelineError, match=f"{items[1].utt_id}: {criterion} needs {what}"):
            if criterion == "adapt":
                pipeline.adapt(teacher, items, TrainConfig())
            else:
                pipeline.train(teacher, items, TrainConfig(criterion=criterion))

    @pytest.mark.parametrize("criterion, field", [("hard_ce", "frame_labels"),
                                                  ("soft_ce", "teacher_rows")])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_per_frame_target_count_must_match_frames(self, tmp_path, criterion, field, delta):
        # targets made at another stacking have a row too few or too many:
        # the utterance is named before any checkpoint directory is made
        items = pipeline.synth_items(_small_task(), 2)
        net = netcore.init_network(_tiny_model(items[0].feats.shape[1]),
                                   np.random.default_rng(2))
        items = pipeline.compute_teacher_posteriors(net, items)
        rows = getattr(items[1], field)
        bad = np.concatenate([rows, rows[-1:]]) if delta > 0 else rows[:-1]
        items[1] = replace(items[1], **{field: bad})
        with pytest.raises(PipelineError, match=f"{items[1].utt_id}: {len(bad)} "
                                                f"[a-z ]+ for {items[1].num_frames} frames"):
            pipeline.train(net, items, TrainConfig(criterion=criterion),
                           checkpoint_dir=tmp_path / "ckpt")
        assert not (tmp_path / "ckpt").exists()

    def test_teacher_rows_must_have_the_model_outputs(self, tmp_path):
        # rows of a 4-output teacher for a 5-output model used to stop train
        # at its first batch, after the checkpoint directory was made
        items = pipeline.synth_items(_small_task(), 2)
        net = netcore.init_network(_tiny_model(items[0].feats.shape[1]),
                                   np.random.default_rng(2))
        items = pipeline.compute_teacher_posteriors(net, items)
        items[1] = replace(items[1], teacher_rows=items[1].teacher_rows[:, :4])
        with pytest.raises(PipelineError, match=rf"{items[1].utt_id}: teacher posteriors have "
                                                rf"shape \({items[1].num_frames}, 4\), "
                                                "the model has 5 outputs"):
            pipeline.train(net, items, TrainConfig(criterion="soft_ce"),
                           checkpoint_dir=tmp_path / "ckpt")
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("fill, what", [(-3.0, "outside"), (0.4, "sum to 1"),
                                            (np.nan, "outside")])
    def test_teacher_rows_must_be_posteriors(self, tmp_path, fill, what):
        # rows of -3.0 used to train to a negative loss without a word
        items = pipeline.synth_items(_small_task(), 2)
        net = netcore.init_network(_tiny_model(items[0].feats.shape[1]),
                                   np.random.default_rng(2))
        items = pipeline.compute_teacher_posteriors(net, items)
        items[1] = replace(items[1], teacher_rows=np.full_like(items[1].teacher_rows, fill))
        with pytest.raises(PipelineError, match=f"{items[1].utt_id}: teacher posteriors: "
                                                f".*{what}"):
            pipeline.train(net, items, TrainConfig(criterion="soft_ce"),
                           checkpoint_dir=tmp_path / "ckpt")
        assert not (tmp_path / "ckpt").exists()

    def test_frame_labels_must_be_integers(self, tmp_path):
        # a label of 2.7 used to train as a 2; whole numbers as floats pass
        items = pipeline.synth_items(_small_task(), 2)
        spec = _tiny_model(items[0].feats.shape[1])
        items = [replace(it, frame_labels=it.frame_labels.astype(float)) for it in items]
        pipeline._check_items(items, "hard_ce", spec)
        items[1].frame_labels[0] = 2.7
        net = netcore.init_network(spec, np.random.default_rng(2))
        with pytest.raises(PipelineError,
                           match=f"{items[1].utt_id}: frame labels are not all integers"):
            pipeline.train(net, items, TrainConfig(), checkpoint_dir=tmp_path / "ckpt")
        assert not (tmp_path / "ckpt").exists()

    def test_symbols_must_be_integers(self, tmp_path):
        # symbols [2, 0.5, 2] used to train as [2, 0, 2]
        items = pipeline.synth_items(_small_task(), 2)
        spec = _tiny_model(items[0].feats.shape[1])
        items[1] = replace(items[1], symbols=[2, 0.5, 2])
        net = netcore.init_network(spec, np.random.default_rng(2))
        with pytest.raises(PipelineError, match=rf"{items[1].utt_id}: symbols \[2, 0.5, 2\] "
                                                "are no CTC transcript"):
            pipeline.train(net, items, TrainConfig(criterion="ctc"),
                           checkpoint_dir=tmp_path / "ckpt")
        assert not (tmp_path / "ckpt").exists()

    def test_adapt_source_width_must_match_the_model(self):
        items = pipeline.synth_pair_items(_small_task(), FarFieldConfig(seed=1), 2)
        items[1] = replace(items[1], source_feats=items[1].source_feats[:, :24])
        teacher = netcore.init_network(_tiny_model(items[0].feats.shape[1]),
                                       np.random.default_rng(6))
        with pytest.raises(PipelineError, match=f"{items[1].utt_id}: source_feats"):
            pipeline.adapt(teacher, items, TrainConfig())

    def test_distill_feature_width_must_match_the_teacher(self):
        items = pipeline.synth_items(_small_task(), 2)  # 48-dim stacked frames
        teacher = netcore.init_network(_tiny_model(24), np.random.default_rng(6))
        with pytest.raises(PipelineError, match="takes 24-dim"):
            pipeline.distill(teacher, _tiny_model(48), items, TrainConfig())

    def test_distill_feature_width_must_match_the_student(self):
        items = pipeline.synth_items(_small_task(), 2)
        teacher = netcore.init_network(_tiny_model(48), np.random.default_rng(6))
        with pytest.raises(PipelineError, match="takes 24-dim"):
            pipeline.distill(teacher, _tiny_model(24), items, TrainConfig())

    @pytest.mark.parametrize("fit", ["train", "distill", "adapt"])
    def test_utterance_without_frames_rejected_before_checkpoints(self, tmp_path, fit):
        items = pipeline.synth_pair_items(_small_task(), FarFieldConfig(seed=1), 2)
        empty = np.zeros((0, items[0].feats.shape[1]))
        items[1] = replace(items[1], feats=empty, frame_labels=np.zeros(0, dtype=int),
                           source_feats=empty)
        spec = _tiny_model(empty.shape[1])
        teacher = netcore.init_network(spec, np.random.default_rng(6))
        args = {"train": (teacher, items), "distill": (teacher, spec, items),
                "adapt": (teacher, items)}[fit]
        with pytest.raises(PipelineError, match=f"{items[1].utt_id}: feats have no frames"):
            getattr(pipeline, fit)(*args, TrainConfig(), checkpoint_dir=tmp_path / "ckpt")
        assert not (tmp_path / "ckpt").exists()

    def test_adapt_unpaired_items_rejected(self):
        items = pipeline.synth_items(_small_task(), 2)
        spec = _tiny_model(items[0].feats.shape[1])
        teacher = netcore.init_network(spec, np.random.default_rng(6))
        with pytest.raises(PipelineError):
            pipeline.adapt(teacher, items, TrainConfig())


class TestEvaluationHelpers:
    def test_frame_error_rate_on_constructed_predictions(self):
        items = pipeline.synth_items(_small_task(), 2)
        spec = _tiny_model(items[0].feats.shape[1])
        zero = netcore.Network(spec, np.zeros(netcore.param_count(spec)))
        # all-zero net predicts class 0 everywhere (argmax of uniform rows)
        fer = pipeline.frame_error_rate(zero, items)
        total = sum(it.num_frames for it in items)
        wrong = sum(int(np.sum(np.asarray(it.frame_labels) != 0)) for it in items)
        assert fer == pytest.approx(wrong / total)

    def test_frame_error_rate_of_no_items_rejected(self):
        spec = _tiny_model(24)
        net = netcore.Network(spec, np.zeros(netcore.param_count(spec)))
        with pytest.raises(PipelineError, match="no utterances"):
            pipeline.frame_error_rate(net, [])

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_frame_error_rate_label_count_must_match_frames(self, delta):
        items = pipeline.synth_items(_small_task(), 2)
        spec = _tiny_model(items[0].feats.shape[1])
        net = netcore.Network(spec, np.zeros(netcore.param_count(spec)))
        bad = items[1]
        n = bad.num_frames + delta
        items[1] = replace(bad, frame_labels=np.resize(bad.frame_labels, n))
        with pytest.raises(PipelineError, match=f"{bad.utt_id}: {n} frame labels"):
            pipeline.frame_error_rate(net, items)

    def test_score_kws_produces_one_record_per_item(self):
        items = pipeline.synth_items(_small_task(), 4)
        spec = _tiny_model(items[0].feats.shape[1])
        net = netcore.init_network(spec, np.random.default_rng(7))
        records = pipeline.score_kws(net, items)
        assert len(records) == 4
        for utt_id, score, is_pos, dur in records:
            assert 0.0 <= score <= 1.0
            assert dur is not None

    # a 48-dim corpus and a 49-input model: named before any forward
    @pytest.mark.parametrize("infer", [pipeline.score_kws, pipeline.compute_teacher_posteriors])
    def test_inference_feature_width_must_match_the_model(self, infer):
        items = pipeline.synth_items(_small_task(), 3)
        net = netcore.init_network(_tiny_model(49), np.random.default_rng(7))
        shape = items[0].feats.shape
        with pytest.raises(PipelineError, match=rf"{items[0].utt_id}: feats have shape "
                                                rf"\({shape[0]}, 48\), the model takes 49-dim"):
            infer(net, items)

    def test_fa_at_ca_reaches_target(self):
        rng = np.random.default_rng(8)
        records = [(f"u{i}", float(rng.random()), i % 2 == 0, 1.0) for i in range(400)]
        th, fa = pipeline.fa_at_ca(records, 0.9)
        scores = [(s, p) for _, s, p, _ in records]
        assert kws.evaluate(scores, th).ca >= 0.9
        assert 0.0 <= fa <= 1.0


class TestBatchedInference:
    """Scoring, FER and teacher posteriors run 16 utterances per forward;
    every result must equal the one-utterance-at-a-time loops byte for byte.
    17 utterances make a full bucket and a bucket of one."""

    @pytest.fixture(scope="class")
    def setup(self):
        items = pipeline.synth_items(_small_task(), 17)
        spec = ModelSpec(input_dim=items[0].feats.shape[1], layers=2, hidden=8,
                         projection=3, output_dim=5, peepholes=True)
        rng = np.random.default_rng(9)
        net = netcore.init_network(spec, rng)
        net.parameters[...] = rng.normal(0.0, 0.5, net.parameters.shape)
        return items, net

    def test_score_kws(self, setup):
        items, net = setup
        got = pipeline.score_kws(net, items)
        want = reference_score_kws(net, items, KEYWORD_MODEL)
        assert [(u, s.hex(), p, d) for u, s, p, d in got] == \
            [(u, s.hex(), p, d) for u, s, p, d in want]

    def test_frame_error_rate(self, setup):
        items, net = setup
        assert pipeline.frame_error_rate(net, items).hex() == \
            reference_frame_error_rate(net, items).hex()

    def test_teacher_posteriors_without_cache(self, setup):
        items, net = setup
        got = pipeline.compute_teacher_posteriors(net, items)
        want = reference_compute_teacher_posteriors(net, items)
        assert [it.utt_id for it in got] == [it.utt_id for it in items]
        for a, b in zip(got, want):
            assert a.teacher_rows.tobytes() == b.teacher_rows.tobytes()


class TestAdaptMatchesReference:
    """adapt runs the frozen teacher once, before training, through
    compute_teacher_posteriors; the reference runs it with `lengths` inside
    every batch of every epoch.  By batch invariance each item's teacher rows
    are its forward alone either way, so the adapted parameters, the loss log
    and every epoch's checkpoint must be equal byte for byte."""

    @staticmethod
    def _setup():
        items = pipeline.synth_pair_items(_small_task(), FarFieldConfig(seed=1), 7)
        assert len({it.num_frames for it in items}) > 1  # batches with padding
        spec = ModelSpec(input_dim=items[0].feats.shape[1], layers=2, hidden=8,
                         projection=3, output_dim=5, peepholes=True)
        rng = np.random.default_rng(12)
        teacher = netcore.init_network(spec, rng)
        teacher.parameters[...] = rng.normal(0.0, 0.5, teacher.parameters.shape)
        return items, teacher

    def test_bit_identical_to_reference(self, tmp_path):
        items, teacher = self._setup()
        cfg = TrainConfig(learning_rate=0.2, epochs=2, batch_size=3, seed=5)  # 3 batches

        got, got_log = pipeline.adapt(teacher, items, cfg, checkpoint_dir=tmp_path / "got")
        want, want_log = reference_adapt(teacher, items, cfg, checkpoint_dir=tmp_path / "want")
        assert not np.array_equal(want.parameters, teacher.parameters)
        assert np.array_equal(got.parameters, want.parameters)
        assert [x.hex() for x in got_log] == [x.hex() for x in want_log]
        names = sorted(p.name for p in (tmp_path / "want").iterdir())
        assert names == ["epoch000.ckpt", "epoch001.ckpt"]
        assert sorted(p.name for p in (tmp_path / "got").iterdir()) == names
        for name in names:
            assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()

    # the teacher rows do not depend on the batches train forms
    @pytest.mark.parametrize("batch_size", [3, 16])
    def test_equals_training_on_one_utterance_teacher_rows(self, batch_size):
        items, teacher = self._setup()
        cfg = TrainConfig(learning_rate=0.2, epochs=2, batch_size=batch_size, seed=5)
        got, got_log = pipeline.adapt(teacher, items, cfg)
        soft = [replace(it, teacher_rows=netcore.forward(teacher, it.source_feats).rows)
                for it in items]
        want, want_log = pipeline.train(teacher.copy(), soft, replace(cfg, criterion="soft_ce"))
        assert got.parameters.tobytes() == want.parameters.tobytes()
        assert [x.hex() for x in got_log] == [x.hex() for x in want_log]


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    cfg = pipeline.LadderConfig(
        seed=0, train_count=8, extra_count=8, test_count=6,
        out_dir=str(tmp_path_factory.mktemp("ladder")),
    )
    return cfg, pipeline.ablation_ladder(cfg)


LADDER_STAGES = ["close-talk", "ce-far", "ts-same-data", "ts-more-data", "ts-rich-sim"]


class TestLadder:
    def test_report_shape(self, report):
        _, rep = report
        assert list(rep) == ["seed", *LADDER_STAGES, "majority-class"]
        assert rep["seed"] == 0
        assert all(list(rep[arm]) == ["far_fer"] and 0.0 <= rep[arm]["far_fer"] <= 1.0
                   for arm in [*LADDER_STAGES, "majority-class"])

    def test_checkpoints_and_reports_written(self, report):
        cfg, rep = report
        out = Path(cfg.out_dir)
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["report.json", *(f"{stage}.ckpt" for stage in LADDER_STAGES)])
        assert json.loads((out / "report.json").read_text()) == rep

    def test_stage_metrics_reproducible(self, report):
        # re-running a single stage from its config reproduces the row metric
        cfg, rep = report
        task = pipeline._am_task_spec(cfg.seed)
        train_pairs = pipeline.synth_pair_items(
            task, FarFieldConfig(seed=cfg.seed + 1), cfg.train_count + cfg.extra_count
        )
        test_pairs = pipeline.synth_pair_items(
            task, FarFieldConfig(seed=cfg.seed + 3), cfg.test_count, start_index=10_000
        )
        teacher = netcore.load_checkpoint(Path(cfg.out_dir) / "close-talk.ckpt")
        base = TrainConfig(criterion="hard_ce", learning_rate=pipeline.LADDER_LEARNING_RATE,
                           epochs=pipeline.LADDER_EPOCHS, seed=cfg.seed)
        ts_same, _ = pipeline.adapt(teacher, train_pairs[: cfg.train_count], base)
        fer = pipeline.frame_error_rate(ts_same, test_pairs)
        assert fer == pytest.approx(rep["ts-same-data"]["far_fer"], abs=1e-12)


def _ncpu():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _pid_job(job):
    return job, os.getpid()


class TestPmap:
    @pytest.fixture(autouse=True)
    def time_limit(self):
        # a _pmap that hangs fails the test instead of the whole run
        def expire(signum, frame):
            raise TimeoutError("_pmap did not return within 60 s")

        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)

    @staticmethod
    def _assert_reaped(pids):
        assert not mp.active_children()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_results_in_job_order(self):
        out = pipeline._pmap(_pid_job, range(7), 3)
        assert [job for job, _ in out] == list(range(7))
        pids = {pid for _, pid in out}
        assert len(pids) == 3 and os.getpid() not in pids
        assert [pid for _, pid in out[:3]] * 2 + [out[0][1]] == [pid for _, pid in out]
        self._assert_reaped(pids)

    def test_worker_exception_keeps_its_type_and_message(self, tmp_path):
        items = pipeline.synth_items(_small_task(), 3)
        feats = items[1].feats.copy()
        feats[0, 0] = np.inf
        items[1] = replace(items[1], feats=feats)
        net = netcore.init_network(_tiny_model(feats.shape[1]), np.random.default_rng(0))

        def job(i):
            (tmp_path / f"{os.getpid()}.pid").touch()
            if i == 1:
                pipeline.train(net, items, TrainConfig(epochs=1, batch_size=1))
            return i

        with pytest.raises(RunError) as inline:
            job(1)
        with pytest.raises(RunError) as forked:
            pipeline._pmap(job, range(4), 2)
        assert type(forked.value) is type(inline.value)
        assert str(forked.value) == str(inline.value)
        assert "non-finite" in str(forked.value)
        self._assert_reaped(int(p.stem) for p in tmp_path.glob("*.pid")
                            if int(p.stem) != os.getpid())

    def test_dead_worker_raises_instead_of_hanging(self, tmp_path):
        def job(i):
            (tmp_path / f"{os.getpid()}.pid").touch()
            if i == 2:
                os._exit(7)
            return i

        with pytest.raises(RunError, match="died with exit code 7"):
            pipeline._pmap(job, range(4), 2)
        self._assert_reaped(int(p.stem) for p in tmp_path.glob("*.pid"))

    def test_pmap_inside_a_worker_runs_inline(self):
        def outer(job):
            return os.getpid(), [pid for _, pid in pipeline._pmap(_pid_job, range(3), 2)]

        out = pipeline._pmap(outer, range(2), 2)
        assert len({pid for pid, _ in out}) == 2 and os.getpid() not in dict(out)
        for pid, inner in out:
            assert inner == [pid] * 3
        self._assert_reaped(dict(out))

    def test_blas_workers_follow_the_thread_pinning(self, monkeypatch):
        ncpu = _ncpu()
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        assert pipeline._blas_workers() == 1
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert pipeline._blas_workers() == ncpu
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(ncpu))  # takes precedence
        assert pipeline._blas_workers() == 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")
        assert pipeline._blas_workers() == 1
        # platforms without sched_getaffinity (macOS) count every CPU
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert pipeline._blas_workers() == 4


def test_compression_experiment_independent_of_workers(tmp_path):
    # One run with BLAS at 1 thread (parallel arms), one at nCPU threads
    # (inline arms), each in its own process because BLAS reads its thread
    # count at start-up.
    ncpu = _ncpu()
    if ncpu < 2:
        pytest.skip("parallel arms need 2 or more CPUs")
    script = (
        "import sys\n"
        "from farspot import pipeline\n"
        "print(pipeline._blas_workers())\n"
        "pipeline.kws_compression_experiment(pipeline.KwsCompressionConfig(\n"
        "    seed=3, train_count=16, test_count=20, out_dir=sys.argv[1]))\n"
    )
    src = str(Path(pipeline.__file__).resolve().parents[1])
    outputs = []
    for threads in (1, ncpu):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        env.pop("OMP_NUM_THREADS", None)
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[0]) == ncpu // threads
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert set(outputs[0]) == {"report.json"} | {
        f"{n}.{ext}" for n in ("teacher", "hard_student", "distilled_student")
        for ext in ("ckpt", "scores")}
    assert outputs[0] == outputs[1]

    # the hard student equals one trained in this process by train()
    items = pipeline.synth_items(pipeline.hard_kws_task(1003), 16)
    spec = ModelSpec(input_dim=items[0].feats.shape[1], layers=pipeline.KWS_LAYERS,
                     hidden=pipeline.KWS_STUDENT_HIDDEN, projection=0,
                     output_dim=pipeline.KWS_OUTPUT_DIM, peepholes=False)
    cfg = TrainConfig(criterion="ctc", learning_rate=pipeline.KWS_LEARNING_RATE,
                      lr_decay=pipeline.KWS_LR_DECAY, epochs=pipeline.KWS_STUDENT_EPOCHS, seed=53)
    hard, _ = pipeline.train(netcore.init_network(spec, np.random.default_rng(53)), items, cfg)
    netcore.save_checkpoint(hard, tmp_path / "hard.ckpt")
    assert (tmp_path / "hard.ckpt").read_bytes() == outputs[0]["hard_student.ckpt"]


TINY_LADDER = pipeline.LadderConfig(train_count=8, extra_count=8, test_count=6)
TINY_COMPRESSION = pipeline.KwsCompressionConfig(train_count=16, test_count=20)


class TestRunSeeds:
    # Under the suite's 1-thread BLAS the seeds run in forked workers with
    # their arms inline; the direct calls fork the compression arms instead.
    def test_ladder_rows_equal_direct_runs_in_seed_order(self, tmp_path):
        table = pipeline.run_seeds(TINY_LADDER, [1, 0], tmp_path)
        direct = [pipeline.ablation_ladder(replace(TINY_LADDER, seed=s)) for s in (1, 0)]
        assert table.seeds == [1, 0]
        assert table.rows == [{arm: rep[arm]["far_fer"] for arm in
                               [*LADDER_STAGES, "majority-class"]} for rep in direct]
        assert table.medians()["ts-more-data"] == float(np.median(
            [rep["ts-more-data"]["far_fer"] for rep in direct]))
        assert (tmp_path / "summary.json").read_text() == table.to_json() + "\n"
        assert json.loads(table.to_json())["seeds"] == [1, 0]
        for s, row in zip(table.seeds, table.rows):
            saved = json.loads((tmp_path / f"seed{s}" / "report.json").read_text())
            assert saved["seed"] == s
            assert {arm: v["far_fer"] for arm, v in saved.items() if arm != "seed"} == row
        lines = table.format_text().splitlines()
        assert len(lines) == 2 + 2 + 1 and lines[-1].startswith("median")

    def test_compression_rows_equal_direct_runs(self, tmp_path):
        table = pipeline.run_seeds(TINY_COMPRESSION, range(2), tmp_path)
        direct = [pipeline.kws_compression_experiment(replace(TINY_COMPRESSION, seed=s))
                  for s in range(2)]
        arms = ("teacher", "hard_student", "distilled_student")
        assert table.rows == [{name: r[name]["fa"] for name in arms} for r in direct]
        for s, row in zip(table.seeds, table.rows):
            saved = json.loads((tmp_path / f"seed{s}" / "report.json").read_text())
            assert saved["seed"] == s and saved["target_ca"] == TINY_COMPRESSION.target_ca
            assert {arm: saved[arm]["fa"] for arm in saved if arm not in
                    ("seed", "target_ca")} == row

    @pytest.mark.parametrize("seeds", [[], [0, 0], [0, -1]])
    def test_bad_seed_list_rejected(self, seeds, tmp_path):
        with pytest.raises(PipelineError):
            pipeline.run_seeds(TINY_LADDER, seeds, tmp_path)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("cfg, field, value", [
        (TINY_COMPRESSION, "train_count", 0), (TINY_COMPRESSION, "seed", -1),
        (TINY_LADDER, "test_count", 0), (TINY_LADDER, "extra_count", -1),
        (TINY_COMPRESSION, "test_count", 1),
    ])
    def test_bad_experiment_config_rejected(self, cfg, field, value):
        with pytest.raises(PipelineError, match=field):
            replace(cfg, **{field: value})

    def test_target_ca_checked_by_kws(self):
        with pytest.raises(kws.KwsError, match="got 1.5"):
            replace(TINY_COMPRESSION, target_ca=1.5)


def test_ladder_seeds_independent_of_workers(tmp_path):
    # `farspot ladder --seeds 0 1` with BLAS at 1 thread (seeds on parallel
    # workers) and at nCPU threads (seeds one after another), into two
    # directories: the same files and output.  provenance.json records the
    # environment and so differs.
    ncpu = _ncpu()
    if ncpu < 2:
        pytest.skip("parallel seeds need 2 or more CPUs")
    src = str(Path(pipeline.__file__).resolve().parents[1])
    runs = []
    for threads in (1, ncpu):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        env.pop("OMP_NUM_THREADS", None)
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "farspot.cli", "ladder", "--seeds", "0", "1",
             "--out", str(out),
             *[f"--set=ladder.{k}={getattr(TINY_LADDER, k)}" for k in
               ("train_count", "extra_count", "test_count")]],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        prov = json.loads((out / "provenance.json").read_text())
        assert prov["workers"] == (2 if threads == 1 else 1)
        assert prov["threads"]["OPENBLAS_NUM_THREADS"] == str(threads)
        files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*")
                 if p.is_file() and p.name != "provenance.json"}
        runs.append((proc.stdout, files))
    assert {"summary.json", "seed0/report.json", "seed1/ts-rich-sim.ckpt"} <= set(runs[0][1])
    assert runs[0] == runs[1]


class TestCtcSymbols:
    def test_symbols_are_collapsed_segment_classes(self):
        # adjacent identical classes merge; silence bounds every utterance
        for it in pipeline.synth_items(_small_task(), 10):
            syms = it.symbols
            assert syms[0] == SILENCE and syms[-1] == SILENCE
            assert all(a != b for a, b in zip(syms, syms[1:]))
            assert BLANK not in syms
            assert criteria.ctc_min_frames(syms) <= it.num_frames
