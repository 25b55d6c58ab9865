import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from farspot import cli, netcore, pipeline
from farspot.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME

TASK = {"task": {"n_mels": 12, "stack_context": 4, "stack_step": 2}}


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _synth(tmp_path, count=6, seed=0, name="corpus"):
    out = tmp_path / name
    rc = cli.run([
        "synth", "--config", _write_cfg(tmp_path, TASK),
        "--count", str(count), "--seed", str(seed), "--out", str(out),
    ])
    assert rc == EXIT_OK
    return out


def test_import_does_not_load_scipy():
    script = ("import sys, farspot.cli\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.run(["--help"])
        assert e.value.code == 0

    def test_subcommand_help_exits_zero(self):
        for sub in ("synth", "simulate", "featurize", "train", "distill",
                    "adapt", "spot", "eval", "compress", "ladder"):
            with pytest.raises(SystemExit) as e:
                cli.run([sub, "--help"])
            assert e.value.code == 0

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            cli.run(["synth", "--frobnicate"])
        assert e.value.code == 2

    # flags that nothing read: the features, the spot and the report do not
    # depend on a seed, and eval reads no config
    @pytest.mark.parametrize("argv", [
        ["featurize", "--manifest", "m.tsv", "--out", "o", "--seed", "5"],
        ["spot", "--model", "m.ckpt", "--input", "x.wav", "--seed", "5"],
        ["eval", "--scores", "s.scores", "--seed", "5"],
        ["eval", "--scores", "s.scores", "--config", "c.json"],
        ["eval", "--scores", "s.scores", "--set", "task.n_mels=10"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_unread_flag_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as e:
            cli.run(argv)
        assert e.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.run(["--version"])
        assert e.value.code == 0


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path):
        rc = cli.run(["synth", "--config", str(tmp_path / "nope.json"),
                      "--count", "1", "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc = cli.run(["synth", "--config", str(p),
                      "--count", "1", "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = _write_cfg(tmp_path, {"task": {"n_mels": 12, "typo_key": 3}})
        rc = cli.run(["synth", "--config", cfg,
                      "--count", "1", "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_non_empty_out_dir_refused_without_force(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        (out / "junk").write_text("x")
        cfg = _write_cfg(tmp_path, TASK)
        rc = cli.run(["synth", "--config", cfg, "--count", "1", "--out", str(out)])
        assert rc == EXIT_CONFIG
        rc = cli.run(["synth", "--config", cfg, "--count", "1", "--out", str(out),
                      "--force"])
        assert rc == EXIT_OK

    def test_set_overrides_config(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, TASK)
        out = tmp_path / "o"
        rc = cli.run(["synth", "--config", cfg, "--count", "2",
                      "--set", "task.n_mels=10", "--out", str(out)])
        assert rc == EXIT_OK
        prov = json.loads((out / "provenance.json").read_text())
        assert prov["overrides"] == ["task.n_mels=10"]
        assert prov["config"]["task"]["n_mels"] == 10

    def test_meaningless_stacking_is_config_error(self, tmp_path):
        cfg = _write_cfg(tmp_path, {"task": {"stack_context": 0, "stack_step": 0}})
        rc = cli.run(["synth", "--config", cfg, "--count", "1", "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_malformed_override_rejected(self, tmp_path):
        rc = cli.run(["synth", "--set", "noequalsign",
                      "--count", "1", "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG


class TestSynth:
    def test_writes_corpus_and_provenance(self, tmp_path):
        out = _synth(tmp_path, count=4)
        m = pipeline.read_manifest(out / "manifest.tsv")
        assert len(m) == 4
        assert (out / "provenance.json").exists()
        assert all((out / f"utt{i:06d}.wav").exists() for i in range(4))

    def test_same_seed_reproduces_wav_bytes(self, tmp_path):
        a = _synth(tmp_path, count=2, seed=9, name="a")
        b = _synth(tmp_path, count=2, seed=9, name="b")
        for i in range(2):
            assert (a / f"utt{i:06d}.wav").read_bytes() == (b / f"utt{i:06d}.wav").read_bytes()

    def test_workers_do_not_change_output(self, tmp_path):
        cfg = _write_cfg(tmp_path, TASK)
        serial, parallel = tmp_path / "w1", tmp_path / "w2"
        for out, n in ((serial, "1"), (parallel, "3")):
            rc = cli.run(["synth", "--config", cfg, "--count", "5", "--seed", "7",
                          "--workers", n, "--out", str(out)])
            assert rc == EXIT_OK
        ms = pipeline.read_manifest(serial / "manifest.tsv")
        mp_ = pipeline.read_manifest(parallel / "manifest.tsv")
        for a, b in zip(ms.records, mp_.records):
            assert dataclasses.replace(a, path="") == dataclasses.replace(b, path="")
        for i in range(5):
            name = f"utt{i:06d}.wav"
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> simulate -> train (ctc) pipeline on a tiny corpus."""
    root = tmp_path_factory.mktemp("ws")
    corpus = _synth(root, count=6)

    far = root / "far"
    rc = cli.run(["simulate", "--config", _write_cfg(root, TASK, "sim.json"),
                  "--manifest", str(corpus / "manifest.tsv"),
                  "--seed", "1", "--out", str(far)])
    assert rc == EXIT_OK

    model = {"input_dim": 48, "layers": 1, "hidden": 8, "projection": 0,
             "output_dim": 5, "peepholes": False}
    train_cfg = dict(TASK)
    train_cfg["model"] = model
    train_cfg["train"] = {"criterion": "ctc", "epochs": 1, "learning_rate": 0.05}
    trained = root / "trained"
    rc = cli.run(["train", "--config", _write_cfg(root, train_cfg, "train.json"),
                  "--manifest", str(corpus / "manifest.tsv"),
                  "--out", str(trained)])
    assert rc == EXIT_OK
    return root, corpus, far, trained


class TestEndToEnd:
    def test_train_outputs(self, workspace):
        _, _, _, trained = workspace
        assert (trained / "final.ckpt").exists()
        assert (trained / "provenance.json").exists()
        log = json.loads((trained / "loss_log.json").read_text())
        assert len(log) == 1

    def test_simulated_manifest_keeps_pairs(self, workspace):
        _, corpus, far, _ = workspace
        m = pipeline.read_manifest(far / "manifest.tsv")
        for r in m.records:
            assert r.pair_path is not None

    def test_featurize(self, workspace, tmp_path):
        root, corpus, _, _ = workspace
        out = tmp_path / "feats"
        rc = cli.run(["featurize", "--config", _write_cfg(tmp_path, TASK),
                      "--manifest", str(corpus / "manifest.tsv"), "--out", str(out)])
        assert rc == EXIT_OK
        m = pipeline.read_manifest(out / "manifest.tsv")
        assert all(r.path.endswith(".fsfa") for r in m.records)

    def test_spot_prints_detection(self, workspace, capsys):
        _, corpus, _, trained = workspace
        rc = cli.run(["spot", "--config", _write_cfg(corpus, TASK, "spot.json"),
                      "--model", str(trained / "final.ckpt"),
                      "--input", str(corpus / "utt000001.wav"),
                      "--threshold", "0.5"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "score" in out and "segment" in out and "decision" in out

    def test_adapt_on_simulated_pairs(self, workspace, tmp_path):
        root, _, far, trained = workspace
        cfg = dict(TASK)
        cfg["train"] = {"epochs": 1, "learning_rate": 0.05}
        out = tmp_path / "adapted"
        rc = cli.run(["adapt", "--config", _write_cfg(tmp_path, cfg),
                      "--manifest", str(far / "manifest.tsv"),
                      "--teacher", str(trained / "final.ckpt"),
                      "--out", str(out)])
        assert rc == EXIT_OK
        adapted = netcore.load_checkpoint(out / "final.ckpt")
        teacher = netcore.load_checkpoint(trained / "final.ckpt")
        assert adapted.spec == teacher.spec

    def test_adapt_features_of_wrong_width_is_config_error(self, workspace, tmp_path):
        root, _, far, trained = workspace
        cfg = {"task": dict(TASK["task"], n_mels=6)}  # 24-dim frames; the teacher takes 48
        cfg["train"] = {"epochs": 1}
        rc = cli.run(["adapt", "--config", _write_cfg(tmp_path, cfg),
                      "--manifest", str(far / "manifest.tsv"),
                      "--teacher", str(trained / "final.ckpt"),
                      "--out", str(tmp_path / "adapted")])
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "adapted" / "final.ckpt").exists()

    def test_distill_without_transcripts(self, workspace, tmp_path):
        root, corpus, _, trained = workspace
        # strip every label field; distillation must not need them
        m = pipeline.read_manifest(corpus / "manifest.tsv")
        stripped = tmp_path / "stripped.tsv"
        pipeline.write_manifest(stripped, pipeline.Manifest([
            dataclasses.replace(r, frame_labels=None, symbols=None) for r in m.records]))
        cfg = dict(TASK)
        cfg["student"] = {"input_dim": 48, "layers": 1, "hidden": 4, "projection": 0,
                          "output_dim": 5, "peepholes": False}
        cfg["train"] = {"criterion": "soft_ce", "epochs": 1, "learning_rate": 0.05}
        out = tmp_path / "student"
        rc = cli.run(["distill", "--config", _write_cfg(tmp_path, cfg),
                      "--manifest", str(stripped),
                      "--teacher", str(trained / "final.ckpt"),
                      "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "final.ckpt").exists()

    def test_distill_trains_what_pipeline_distill_trains(self, workspace, tmp_path):
        _, corpus, _, trained = workspace
        student = {"input_dim": 48, "layers": 1, "hidden": 4, "projection": 0,
                   "output_dim": 5, "peepholes": False}
        train = {"epochs": 2, "learning_rate": 0.05, "batch_size": 4, "seed": 3}
        out = tmp_path / "student"
        rc = cli.run(["distill", "--config", _write_cfg(tmp_path, dict(TASK, student=student,
                                                                       train=train)),
                      "--manifest", str(corpus / "manifest.tsv"),
                      "--teacher", str(trained / "final.ckpt"), "--out", str(out)])
        assert rc == EXIT_OK
        items = pipeline.items_from_manifest(pipeline.read_manifest(corpus / "manifest.tsv"),
                                             pipeline.SynthTaskSpec(**TASK["task"]))
        want, _ = pipeline.distill(netcore.load_checkpoint(trained / "final.ckpt"),
                                   netcore.ModelSpec(**student), items,
                                   pipeline.TrainConfig(**train))
        got = netcore.load_checkpoint(out / "final.ckpt")
        assert np.array_equal(got.parameters, want.parameters)
        assert not (out / "teacher_cache").exists()

    def test_adapt_records_the_criterion_it_trains(self, workspace, tmp_path):
        # adapt trains soft_ce whatever train.criterion says; provenance says so
        _, _, far, trained = workspace
        cfg = _write_cfg(tmp_path, dict(TASK, train={"epochs": 1, "learning_rate": 0.05}))
        outs = [tmp_path / "plain", tmp_path / "ctc"]
        for out, extra in zip(outs, ([], ["--set", "train.criterion=ctc"])):
            rc = cli.run(["adapt", "--config", cfg, "--manifest", str(far / "manifest.tsv"),
                          "--teacher", str(trained / "final.ckpt"), "--out", str(out), *extra])
            assert rc == EXIT_OK
        assert (outs[0] / "final.ckpt").read_bytes() == (outs[1] / "final.ckpt").read_bytes()
        for out in outs:
            prov = json.loads((out / "provenance.json").read_text())
            assert prov["train_config"] == dataclasses.asdict(pipeline.TrainConfig(
                criterion="soft_ce", epochs=1, learning_rate=0.05))

    def test_eval_report(self, workspace, tmp_path, capsys):
        from farspot import kws

        scores = tmp_path / "dev.scores"
        rng = np.random.default_rng(0)
        kws.write_scores(scores, [
            (f"u{i}", float(rng.random()), i % 2 == 0, 1.0) for i in range(50)
        ])
        rc = cli.run(["eval", "--scores", str(scores), "--target-ca", "0.9"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "CA" in out and "FA" in out

    def test_eval_roc_table(self, workspace, tmp_path, capsys):
        from farspot import kws

        scores = tmp_path / "dev.scores"
        kws.write_scores(scores, [("a", 0.9, True, None), ("b", 0.2, False, None)])
        roc = tmp_path / "roc.tsv"
        rc = cli.run(["eval", "--scores", str(scores), "--threshold", "0.5",
                      "--roc", str(roc)])
        assert rc == EXIT_OK
        assert roc.exists() and len(roc.read_text().splitlines()) > 2
        assert "ROC" not in capsys.readouterr().out  # the table goes to --roc only


    @pytest.mark.parametrize("flag, value", [("--target-ca", "1.5"), ("--target-ca", "0"),
                                             ("--target-ca", "nan"), ("--threshold", "nan"),
                                             ("--threshold", "inf")])
    def test_eval_bad_operating_point_is_config_error(self, tmp_path, capsys, flag, value):
        from farspot import kws

        scores = tmp_path / "dev.scores"
        kws.write_scores(scores, [("a", 0.9, True, None), ("b", 0.2, False, None)])
        rc = cli.run(["eval", "--scores", str(scores), flag, value])
        assert rc == EXIT_CONFIG
        assert f"got {float(value)}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1.5", "nan"])
    def test_spot_bad_threshold_is_config_error_before_loading(self, tmp_path, capsys, value):
        # neither the model nor the input exists: the threshold is checked first
        rc = cli.run(["spot", "--model", str(tmp_path / "none.ckpt"),
                      "--input", str(tmp_path / "none.wav"), "--threshold", value])
        assert rc == EXIT_CONFIG
        assert f"bad threshold: threshold must be in [0, 1], got {float(value)}" \
            in capsys.readouterr().err


TINY_COMPRESS = ["--set", "compress.train_count=16", "--set", "compress.test_count=20",
                 "--set", "compress.teacher_hidden=12", "--set", "compress.student_hidden=6",
                 "--set", "compress.teacher_epochs=2", "--set", "compress.student_epochs=2"]


class TestExperiments:
    def test_compress_writes_seed_dirs_summary_and_provenance(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = cli.run(["compress", "--seeds", "0", "1", "--out", str(out), *TINY_COMPRESS])
        assert rc == EXIT_OK
        assert {p.name for p in out.iterdir()} == {"seed0", "seed1", "summary.json",
                                                   "provenance.json"}
        assert (out / "seed1" / "distilled_student.ckpt").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seeds"] == [0, 1] and len(summary["rows"]) == 2
        prov = json.loads((out / "provenance.json").read_text())
        assert prov["seeds"] == [0, 1]
        assert prov["workers"] == min(pipeline._blas_workers(), 2)
        assert set(prov["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
        assert "median" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["compress", "--seeds", "0", "0"],
        ["ladder", "--seeds", "0", "-1"],
        ["compress", "--set", "compress.target_ca=1.5"],
        ["compress", "--set", "compress.train_count=0"],
        ["ladder", "--set", "ladder.test_count=0"],
        ["ladder", "--set", "ladder.learning_rate=NaN"],
        ["ladder", "--set", "ladder.out_dir=elsewhere"],
        ["ladder", "--set", "ladder.output_dim=9"],
    ])
    def test_bad_experiment_config_is_config_error(self, tmp_path, argv):
        out = tmp_path / "o"
        assert cli.run([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()


class TestRuntimeErrors:
    def test_missing_manifest_is_runtime_error(self, tmp_path):
        rc = cli.run(["train", "--config", _write_cfg(tmp_path, {
            "model": {"input_dim": 4, "layers": 1, "hidden": 4,
                      "projection": 0, "output_dim": 5, "peepholes": False},
        }), "--manifest", str(tmp_path / "none.tsv"), "--out", str(tmp_path / "o")])
        assert rc == EXIT_RUNTIME

    def test_train_without_model_section_is_config_error(self, tmp_path):
        corpus = _synth(tmp_path, count=2)
        rc = cli.run(["train", "--config", _write_cfg(tmp_path, TASK),
                      "--manifest", str(corpus / "manifest.tsv"),
                      "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_model_input_dim_not_matching_features_is_config_error(self, tmp_path, capsys):
        corpus = _synth(tmp_path, count=2)
        cfg = dict(TASK)  # 12 mels stacked 4 times: 48-dim frames
        cfg["model"] = {"input_dim": 24, "layers": 1, "hidden": 4,
                        "projection": 0, "output_dim": 5, "peepholes": False}
        rc = cli.run(["train", "--config", _write_cfg(tmp_path, cfg),
                      "--manifest", str(corpus / "manifest.tsv"),
                      "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "takes 24-dim" in capsys.readouterr().err

    def test_labels_at_another_stacking_name_the_utterance(self, tmp_path, capsys):
        corpus = _synth(tmp_path, count=2)  # labelled at stacking 4/2
        cfg = {"task": {**TASK["task"], "stack_step": 3},
               "model": {"input_dim": 48, "layers": 1, "hidden": 4,
                         "projection": 0, "output_dim": 5, "peepholes": False}}
        out = tmp_path / "o"
        rc = cli.run(["train", "--config", _write_cfg(tmp_path, cfg),
                      "--manifest", str(corpus / "manifest.tsv"), "--out", str(out)])
        assert rc == EXIT_RUNTIME
        assert "utt000000: " in capsys.readouterr().err
        assert not (out / "checkpoints").exists()

    def test_bad_train_value_is_config_error(self, tmp_path):
        corpus = _synth(tmp_path, count=2)
        cfg = dict(TASK)
        cfg["model"] = {"input_dim": 48, "layers": 1, "hidden": 4,
                       "projection": 0, "output_dim": 5, "peepholes": False}
        cfg["train"] = {"criterion": "not-a-criterion"}
        rc = cli.run(["train", "--config", _write_cfg(tmp_path, cfg),
                      "--manifest", str(corpus / "manifest.tsv"),
                      "--out", str(tmp_path / "o2")])
        assert rc == EXIT_CONFIG

    # label_delay, soft_weight and blank are unknown keys, ts_adapt is no
    # criterion, and soft_ce needs teacher posteriors, which no manifest
    # carries.  The task keys from window_ms on name module constants, not
    # fields, so they are unknown keys even at the constants' values.  The ids
    # of the train section's cases omit "train."
    @pytest.mark.parametrize("override", [
        "train.learning_rate=NaN", "train.momentum=NaN", "train.grad_clip=-1",
        "train.grad_clip=0", "train.grad_clip=Infinity", "train.lr_decay=0",
        "train.label_delay=-5", "train.soft_weight=0.5", "train.blank=9",
        "train.batch_size=0", "train.batch_size=-3", "train.epochs=2.5", "train.seed=-1",
        "train.criterion=ts_adapt", "train.criterion=soft_ce",
        "model.hidden=2.5", "model.foo=1", "model.layers=true",
        "task.n_mels=0", "task.positive_ratio=2", "task.window_ms=-1", "task.hop_ms=0",
        "task.sample_rate=8000", "task.hey_freqs=[500,1550]", "task.cortana_freqs=[950,2250]",
        "task.amplitude=0.25", "task.segment_dur_range=[0.07,0.16]",
        "task.n_filler_range=[2,6]", "task.silence_pad_range=[0.05,0.15]",
    ], ids=lambda override: override.removeprefix("train."))
    def test_bad_train_override_is_config_error(self, workspace, tmp_path, override):
        _, corpus, _, trained = workspace
        cfg = json.loads((trained / "provenance.json").read_text())["config"]
        out = tmp_path / "o"
        rc = cli.run(["train", "--config", _write_cfg(tmp_path, cfg),
                      "--manifest", str(corpus / "manifest.tsv"),
                      "--set", override, "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()

    # ir_length and the room_dim keys name module constants: unknown keys
    @pytest.mark.parametrize("override", [
        "max_order=2.5", "max_order=-1", "ir_length=0", "reflection_range=[2,3]",
        "snr_range=[NaN,1]", "room_dim_low=[3.5,3,2.4]", "room_dim_high=[8,6,3.2]",
        "ir_length=2048",
    ])
    def test_bad_farfield_override_is_config_error(self, workspace, tmp_path, override):
        _, corpus, _, _ = workspace
        out = tmp_path / "o"
        rc = cli.run(["simulate", "--manifest", str(corpus / "manifest.tsv"),
                      "--set", f"farfield.{override}", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()
