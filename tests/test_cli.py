import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from farspot import cli, featkit, netcore, pipeline, simkit
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

    # synth_corpus rejects the count, and every corpus writer the worker count
    @pytest.mark.parametrize("flag, value", [("--count", "-3"), ("--count", "0"),
                                             ("--workers", "0"), ("--workers", "-5")])
    def test_bad_corpus_size_is_config_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        argv = ["synth", "--config", _write_cfg(tmp_path, TASK), "--count", "2",
                "--out", str(out), flag, value]
        assert cli.run(argv) == EXIT_CONFIG
        assert f"{flag[2:]} must be >= 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

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

    def test_corpus_trees_are_relocatable(self, tmp_path):
        """Manifests hold paths relative to their own directory: the same run
        in two directories writes the same manifests, and a copy of a corpus
        tree trains without the original."""
        cfg = _write_cfg(tmp_path, TASK)
        for run in ("a", "b"):
            root = tmp_path / run
            steps = [["synth", "--count", "3", "--out", str(root / "clean")],
                     ["simulate", "--manifest", str(root / "clean" / "manifest.tsv"),
                      "--out", str(root / "far")],
                     ["featurize", "--manifest", str(root / "far" / "manifest.tsv"),
                      "--out", str(root / "feats")]]
            for argv in steps:
                assert cli.run([*argv, "--config", cfg]) == EXIT_OK
        for step in ("clean", "far", "feats"):
            manifest = Path(step, "manifest.tsv")
            assert (tmp_path / "a" / manifest).read_bytes() == \
                (tmp_path / "b" / manifest).read_bytes()
        shutil.copytree(tmp_path / "a", tmp_path / "copy")
        shutil.rmtree(tmp_path / "a")
        train_cfg = {**TASK, "model": {"input_dim": 48, "layers": 1, "hidden": 4,
                                       "projection": 0, "output_dim": 5, "peepholes": False},
                     "train": {"criterion": "hard_ce", "epochs": 1}}
        # the far-field archives, and the close-talk WAVs they are paired with
        rc = cli.run(["train", "--config", _write_cfg(tmp_path, train_cfg, "train.json"),
                      "--manifest", str(tmp_path / "copy" / "feats" / "manifest.tsv"),
                      "--out", str(tmp_path / "trained")])
        assert rc == EXIT_OK


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

    def test_spot_features_of_wrong_width_is_config_error_before_the_forward(
            self, workspace, tmp_path, capsys, monkeypatch):
        _, corpus, _, trained = workspace
        monkeypatch.setattr(netcore, "forward", lambda *a: pytest.fail("forward ran"))
        wav = corpus / "utt000001.wav"
        rc = cli.run(["spot", "--config", _write_cfg(tmp_path, {"task": dict(TASK["task"],
                                                                             n_mels=10)}),
                      "--model", str(trained / "final.ckpt"), "--input", str(wav),
                      "--threshold", "0.5"])
        assert rc == EXIT_CONFIG  # 10 mels stacked 4 times: 40-dim frames
        assert re.search(rf"{re.escape(str(wav))}: feats have shape \(\d+, 40\), "
                         r"the model takes 48-dim", capsys.readouterr().err)

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


TINY_COMPRESS = ["--set", "compress.train_count=16", "--set", "compress.test_count=20"]


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
        # pipeline.KWS_LAYERS and the ladder's one layer, at their values
        ["compress", "--set", "compress.teacher_layers=2"],
        ["compress", "--set", "compress.student_layers=2"],
        ["ladder", "--set", "ladder.layers=1"],
    ])
    def test_bad_experiment_config_is_config_error(self, tmp_path, argv):
        out = tmp_path / "o"
        assert cli.run([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("key", [
        "compress.teacher_hidden=48", "compress.student_hidden=16",
        "compress.teacher_epochs=6", "compress.student_epochs=8",
        "compress.learning_rate=0.2", "compress.lr_decay=0.95",
        "ladder.epochs=4", "ladder.teacher_epochs=6", "ladder.learning_rate=0.08",
        "ladder.hidden=32",
    ])
    def test_keys_now_constants_are_config_errors(self, tmp_path, capsys, key):
        # pipeline's KWS_* and LADDER_* constants, at their values
        section, name = key.split("=")[0].split(".")
        out = tmp_path / "o"
        rc = cli.run([section, "--set", key, "--set", f"{section}.train_count=8",
                      "--set", f"{section}.test_count=6", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert f"unknown config keys for {_EXPERIMENT_CONFIGS[section].__name__}: ['{name}']" \
            in capsys.readouterr().err
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
        assert rc == EXIT_CONFIG
        assert "utt000000: 44 frame labels for 30 frames" in capsys.readouterr().err
        assert not out.exists()

    # items that the model or the teacher cannot train on: each is named
    # before --out is made
    @pytest.mark.parametrize("argv, message", [
        (["train", "--set", "model.output_dim=3", "--set", "train.criterion=hard_ce"],
         "frame labels outside [0, 3)"),
        (["train", "--set", "model.output_dim=4"], "for 4 outputs, blank 4"),
        (["distill", "--set", "student.input_dim=24"], "takes 24-dim"),
        (["distill", "--set", "student.output_dim=4"], "student output dim 4"),
        (["adapt"], "adapt needs paired source features"),
    ], ids=["hard_ce-labels", "ctc-blank", "distill-input", "distill-output", "adapt-unpaired"])
    def test_items_that_do_not_fit_are_config_errors(self, workspace, tmp_path, capsys,
                                                    argv, message):
        _, corpus, _, trained = workspace  # a 48 -> 5 ctc model of the clean corpus
        cfg = json.loads((trained / "provenance.json").read_text())["config"]
        cfg["student"] = {**cfg["model"], "hidden": 4}
        out = tmp_path / "o"
        teacher = [] if argv[0] == "train" else ["--teacher", str(trained / "final.ckpt")]
        rc = cli.run([*argv, *teacher, "--config", _write_cfg(tmp_path, cfg),
                      "--manifest", str(corpus / "manifest.tsv"), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "distill", "adapt"])
    def test_empty_manifest_is_config_error(self, workspace, tmp_path, command):
        _, _, _, trained = workspace
        cfg = json.loads((trained / "provenance.json").read_text())["config"]
        cfg["student"] = cfg["model"]
        empty = tmp_path / "empty.tsv"
        pipeline.write_manifest(empty, pipeline.Manifest([]))
        out = tmp_path / "o"
        teacher = [] if command == "train" else ["--teacher", str(trained / "final.ckpt")]
        rc = cli.run([command, *teacher, "--config", _write_cfg(tmp_path, cfg),
                      "--manifest", str(empty), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()

    @staticmethod
    def _run(command, trained, tmp_path, manifest, *extra):
        """farspot <command> on manifest with the workspace model's config
        (and student), and its checkpoint as the teacher of distill and adapt."""
        cfg = json.loads((trained / "provenance.json").read_text())["config"]
        cfg["student"] = cfg["model"]
        teacher = ["--teacher", str(trained / "final.ckpt")] if command in ("distill",
                                                                            "adapt") else []
        return cli.run([command, *teacher, "--config", _write_cfg(tmp_path, cfg),
                        "--manifest", str(manifest), "--out", str(tmp_path / "o"), *extra])

    # read_manifest rejects a line of five fields before anything is written
    @pytest.mark.parametrize("command", ["simulate", "featurize", "train", "distill", "adapt"])
    def test_malformed_manifest_is_config_error(self, workspace, tmp_path, capsys, command):
        _, _, _, trained = workspace
        bad = tmp_path / "bad.tsv"
        bad.write_text("utt000000\tutt000000.wav\t-\t-\t-\n")
        assert self._run(command, trained, tmp_path, bad) == EXIT_CONFIG
        assert "bad.tsv:1: expected 6 tab-separated fields" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # a WAV that is not there, after one that is: named before any write
    @pytest.mark.parametrize("command", ["simulate", "featurize"])
    def test_missing_input_wav_is_config_error(self, workspace, tmp_path, capsys, command):
        _, corpus, _, trained = workspace
        first = pipeline.read_manifest(corpus / "manifest.tsv").records[0]
        missing = dataclasses.replace(first, utt_id="u1", path=str(tmp_path / "u1.wav"))
        manifest = tmp_path / "m.tsv"
        pipeline.write_manifest(manifest, pipeline.Manifest([first, missing]))
        assert self._run(command, trained, tmp_path, manifest) == EXIT_CONFIG
        assert f"u1: input WAV {tmp_path / 'u1.wav'} not found" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # an 8-byte file that only starts like a WAV, after a WAV that is fine:
    # named before any write (it used to exit 4 and leave --out behind)
    @pytest.mark.parametrize("command", ["simulate", "featurize"])
    def test_unparseable_input_wav_is_config_error(self, workspace, tmp_path, capsys, command):
        _, corpus, _, trained = workspace
        first = pipeline.read_manifest(corpus / "manifest.tsv").records[0]
        junk = tmp_path / "u1.wav"
        junk.write_bytes(b"RIFFjunk")
        manifest = tmp_path / "m.tsv"
        pipeline.write_manifest(manifest, pipeline.Manifest(
            [first, dataclasses.replace(first, utt_id="u1", path=str(junk))]))
        assert self._run(command, trained, tmp_path, manifest) == EXIT_CONFIG
        assert f"u1: input WAV {junk}: unreadable WAV header" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # an archive of (0, 48) frames, paired with itself: named before any write
    @pytest.mark.parametrize("command", ["train", "distill", "adapt"])
    def test_utterance_without_frames_is_config_error(self, workspace, tmp_path, capsys,
                                                      command):
        _, _, _, trained = workspace
        empty = tmp_path / "u0.fsfa"
        featkit.write_features(empty, featkit.FeatureSequence(np.zeros((0, 48)), 30.0))
        manifest = tmp_path / "m.tsv"
        pipeline.write_manifest(manifest, pipeline.Manifest([pipeline.ManifestRecord(
            "u0", str(empty), symbols=[pipeline.HEY], pair_path=str(empty))]))
        assert self._run(command, trained, tmp_path, manifest) == EXIT_CONFIG
        assert "u0: feats have no frames" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # training that diverges fails after its first write: pipeline.RunError
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the update overflows
    def test_diverging_train_is_runtime_error(self, workspace, tmp_path, capsys):
        _, corpus, _, trained = workspace
        rc = self._run("train", trained, tmp_path, corpus / "manifest.tsv",
                       "--set", "train.learning_rate=1e308", "--set", "train.epochs=3")
        assert rc == EXIT_RUNTIME
        assert "non-finite" in capsys.readouterr().err

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
    # carries.  momentum, grad_clip and the task keys from window_ms on name
    # module constants, not fields, so they are unknown keys even at the
    # constants' values.  The ids of the train section's cases omit "train."
    @pytest.mark.parametrize("override", [
        "train.learning_rate=NaN", "train.momentum=NaN", "train.grad_clip=-1",
        "train.grad_clip=0", "train.grad_clip=Infinity", "train.lr_decay=0",
        "train.momentum=0.9", "train.grad_clip=5.0",
        "train.label_delay=-5", "train.soft_weight=0.5", "train.blank=9",
        "train.batch_size=0", "train.batch_size=-3", "train.epochs=2.5", "train.seed=-1",
        "train.criterion=ts_adapt", "train.criterion=soft_ce",
        "model.hidden=2.5", "model.foo=1", "model.layers=true",
        "task.n_mels=0", "task.positive_ratio=2", "task.window_ms=-1", "task.hop_ms=0",
        "task.sample_rate=8000", "task.hey_freqs=[500,1550]", "task.cortana_freqs=[950,2250]",
        "task.amplitude=0.25", "task.segment_dur_range=[0.07,0.16]",
        "task.n_filler_range=[2,6]", "task.silence_pad_range=[0.05,0.15]",
        'model.svd_rank=[["l0.wx",2],["l0.wx",3]]',
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
        "ir_length=2048", "snr_range=[-7000,0]",
    ])
    def test_bad_farfield_override_is_config_error(self, workspace, tmp_path, override):
        _, corpus, _, _ = workspace
        out = tmp_path / "o"
        rc = cli.run(["simulate", "--manifest", str(corpus / "manifest.tsv"),
                      "--set", f"farfield.{override}", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()


# Every key of a section that --set reaches: mostly a value in its range
# (sizes bounded, so that each run stays small), else a value of any kind.
_BAD = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.integers(-2, 0),
                 st.floats(allow_nan=True, allow_infinity=True),
                 st.lists(st.integers(-1, 3), max_size=3))


def _pair(low, high):
    x = st.one_of(st.floats(low, high), st.floats(low, high), st.floats())
    return st.tuples(x, x).map(sorted)


_SECTIONS = {
    "task": {"seed": st.integers(0, 3), "amp_jitter": st.floats(0.0, 0.99),
             "freq_jitter": st.floats(0.0, 0.99), "positive_ratio": st.floats(0.0, 1.0),
             "noise_snr_range": _pair(-100.0, 100.0),
             "filler_freqs": st.lists(st.lists(st.floats(1.0, 7999.0), min_size=1, max_size=2),
                                      min_size=1, max_size=3),
             "n_mels": st.integers(1, 16), "stack_context": st.integers(1, 6),
             "stack_step": st.integers(1, 6)},
    "model": {"input_dim": st.sampled_from([48, 24, 12]), "layers": st.integers(1, 2),
              "hidden": st.integers(1, 16), "projection": st.integers(0, 16),
              "output_dim": st.integers(1, 8), "peepholes": st.booleans(),
              "svd_rank": st.dictionaries(st.sampled_from(["l0.wx", "l0.wr", "out.w", "l0.bias",
                                                           "l1.wx"]),
                                          st.integers(1, 12), max_size=2)},
    "train": {"criterion": st.sampled_from(["hard_ce", "ctc", "soft_ce"]),
              "learning_rate": st.floats(0.0, 2.0) | st.floats(0.0, allow_infinity=False),
              "batch_size": st.integers(1, 8), "epochs": st.integers(1, 2),
              "seed": st.integers(0, 3), "lr_decay": st.floats(1e-3, 1.0)},
    "farfield": {"reflection_range": _pair(0.0, 1.0), "max_order": st.integers(0, 6),
                 "snr_range": _pair(-100.0, 100.0), "seed": st.integers(0, 3)},
}
# compress and ladder only build their configs, so their sizes are unbounded
_EXPERIMENT_CONFIGS = {"compress": pipeline.KwsCompressionConfig,
                       "ladder": pipeline.LadderConfig}
_SECTIONS.update({section: {f.name: st.integers() | st.floats() for f in dataclasses.fields(cls)
                            if f.name != "out_dir"}
                  for section, cls in _EXPERIMENT_CONFIGS.items()})


def _overrides(section):
    """One to three keys of the section; five values in six are of the key's
    own strategy (st.one_of merges equal branches, so it cannot weight them)."""
    keys = _SECTIONS[section]
    return st.lists(st.sampled_from(list(keys)), min_size=1, max_size=3, unique=True).flatmap(
        lambda names: st.fixed_dictionaries({
            k: st.sampled_from([keys[k]] * 5 + [_BAD]).flatmap(lambda v: v) for k in names}))


def _set_args(section, overrides):
    return [a for k, v in overrides.items() for a in ("--set", f"{section}.{k}={json.dumps(v)}")]


class TestSetOverrides:
    """Each --set either runs, leaving outputs that load, or exits 3 and
    writes nothing.  The one runtime failure a check cannot foresee is a
    learning rate at which training diverges: it stops on non-finite values."""

    @staticmethod
    def _check(rc, out, err, load):
        if rc == EXIT_OK:
            load(out)
        elif rc == EXIT_RUNTIME:
            assert "non-finite" in err, err
        else:
            assert rc == EXIT_CONFIG, err
            assert not out.exists()

    @pytest.mark.parametrize("section", ["task", "model", "train"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # large learning rates overflow
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_train_section(self, workspace, tmp_path, capsys, section, data):
        _, corpus, _, trained = workspace
        overrides = data.draw(_overrides(section))
        cfg = json.loads((trained / "provenance.json").read_text())["config"]
        out = Path(tempfile.mkdtemp(dir=tmp_path)) / "o"
        rc = cli.run(["train", "--config", _write_cfg(tmp_path, cfg),
                      "--manifest", str(corpus / "manifest.tsv"), "--out", str(out),
                      *_set_args(section, overrides)])
        self._check(rc, out, capsys.readouterr().err,
                    lambda out: netcore.load_checkpoint(out / "final.ckpt"))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_farfield_section(self, workspace, tmp_path, capsys, data):
        _, corpus, _, _ = workspace
        overrides = data.draw(_overrides("farfield"))
        out = Path(tempfile.mkdtemp(dir=tmp_path)) / "o"
        rc = cli.run(["simulate", "--manifest", str(corpus / "manifest.tsv"),
                      "--out", str(out), *_set_args("farfield", overrides)])

        def load(out):
            for r in pipeline.read_manifest(out / "manifest.tsv").records:
                simkit.read_wav(r.path)
        self._check(rc, out, capsys.readouterr().err, load)

    @pytest.mark.parametrize("section", list(_EXPERIMENT_CONFIGS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_experiment_section_builds_or_is_config_error(self, section, data):
        overrides = data.draw(_overrides(section))
        cfg = cli._apply_overrides({}, _set_args(section, overrides)[1::2])
        cls = _EXPERIMENT_CONFIGS[section]
        try:
            assert isinstance(cli._build(cls, cfg, section), cls)
        except cli.ConfigError:
            pass
