"""Command-line entry point.

Subcommands: synth, simulate, featurize, train, distill, adapt, spot, eval,
compress, ladder.  Each but eval takes a JSON config file plus dotted --set
overrides; every run writes a provenance record (config snapshot, seed,
version) into its output directory so it can be re-run bit-identically.

Exit codes: 0 success; 2 usage error; 3 the config, manifest or items were
rejected and nothing was written; 4 the run failed.  Exit 3 is a
`pipeline.PipelineError`, raised by the CLI's config checks and by the
pipeline's own: each writer checks its inputs before its first write, which
creates the output directory.  A `pipeline.RunError` (training diverged, a
worker died) exits 4.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, kws, netcore, pipeline, simkit
from .pipeline import (
    FarFieldConfig,
    PipelineError,
    SynthTaskSpec,
    TrainConfig,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4

# Top-level config keys: the sections the subcommands read.
CONFIG_SECTIONS = ("task", "farfield", "model", "student", "train", "compress", "ladder")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise PipelineError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise PipelineError(f"{path}: invalid JSON ({e})")
    if not isinstance(cfg, dict):
        raise PipelineError(f"{path}: top level must be an object")
    return cfg


def _apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    cfg = json.loads(json.dumps(cfg))  # deep copy
    for ov in overrides:
        if "=" not in ov:
            raise PipelineError(f"override {ov!r} is not key=value")
        key, _, raw = ov.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise PipelineError(f"override {key!r} descends into a non-object")
        node[parts[-1]] = value
    return cfg


def _build(cls, cfg: dict, section: str | None = None, seed: int | None = None):
    """Instantiate a config dataclass, rejecting unknown keys; a seed given
    on the command line overrides the config's."""
    data = cfg.get(section, {}) if section else cfg
    if not isinstance(data, dict):
        raise PipelineError(f"config section {section!r} must be an object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise PipelineError(f"unknown config keys for {cls.__name__}: {sorted(unknown)}")
    coerced = {}
    for f in dataclasses.fields(cls):
        if f.name in data:
            v = data[f.name]
            coerced[f.name] = tuple(v) if isinstance(v, list) else v
    if seed is not None:
        coerced["seed"] = seed
    try:
        return cls(**coerced)
    except (TypeError, ValueError) as e:
        raise PipelineError(f"bad {cls.__name__} config: {e}")


def _prepare_out_dir(path: str, force: bool) -> Path:
    """Refuse a file, or a non-empty directory unless forced; the pipeline's
    first write makes the directory."""
    out = Path(path)
    if out.exists() and not out.is_dir():
        raise PipelineError(f"output path {out} is not a directory")
    if out.exists() and any(out.iterdir()) and not force:
        raise PipelineError(f"output directory {out} is not empty (use --force to overwrite)")
    return out


def _write_provenance(out_dir: Path, args, cfg: dict, **extra) -> None:
    record = {
        "toolkit_version": __version__,
        "command": args.command,
        "argv": sys.argv[1:],
        "config": cfg,
        "overrides": args.set,
        "seed": getattr(args, "seed", None),
        **extra,
    }
    (out_dir / "provenance.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _model_spec(cfg: dict, section: str = "model") -> netcore.ModelSpec:
    if cfg.get(section) is None:
        raise PipelineError(f"config needs a {section!r} section with the model spec")
    return _build(netcore.ModelSpec, cfg, section)


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args, cfg):
    spec = _build(SynthTaskSpec, cfg, "task", args.seed)
    out = _prepare_out_dir(args.out, args.force)
    manifest = pipeline.synth_corpus(spec, args.count, out, workers=args.workers)
    _write_provenance(out, args, cfg)
    print(f"wrote {len(manifest)} utterances to {out}")
    return EXIT_OK


def cmd_simulate(args, cfg):
    far = _build(FarFieldConfig, cfg, "farfield", args.seed)
    out = _prepare_out_dir(args.out, args.force)
    manifest = pipeline.read_manifest(args.manifest)
    result = pipeline.simulate_corpus(manifest, far, out, workers=args.workers)
    _write_provenance(out, args, cfg)
    print(f"simulated {len(result)} far-field utterances to {out}")
    return EXIT_OK


def cmd_featurize(args, cfg):
    spec = _build(SynthTaskSpec, cfg, "task")
    out = _prepare_out_dir(args.out, args.force)
    manifest = pipeline.read_manifest(args.manifest)
    result = pipeline.featurize_corpus(manifest, spec, out, workers=args.workers)
    _write_provenance(out, args, cfg)
    print(f"featurized {len(result)} utterances to {out}")
    return EXIT_OK


def _fit(args, cfg, fit):
    """Shared body of train/distill/adapt.  fit(items, train_config, out_dir)
    checks the items, trains with checkpoints in out_dir/checkpoints and returns
    the trained network and its loss per epoch.  provenance.json records the
    TrainConfig that trained."""
    spec = _build(SynthTaskSpec, cfg, "task")
    tc = _build(TrainConfig, cfg, "train", args.seed)
    if args.command != "train":  # distill and adapt train soft_ce whatever is set
        tc = dataclasses.replace(tc, criterion="soft_ce")
    items = pipeline.items_from_manifest(pipeline.read_manifest(args.manifest), spec)
    out = _prepare_out_dir(args.out, args.force)
    net, log = fit(items, tc, out)
    netcore.save_checkpoint(net, out / "final.ckpt")
    (out / "loss_log.json").write_text(json.dumps(log) + "\n")
    _write_provenance(out, args, cfg, train_config=dataclasses.asdict(tc))
    print(f"{args.command}: {len(log)} epochs; final loss {log[-1]:.6f}; "
          f"model at {out / 'final.ckpt'}")
    return EXIT_OK


def cmd_train(args, cfg):
    model_spec = _model_spec(cfg)
    return _fit(args, cfg, lambda items, tc, out: pipeline.train(
        netcore.init_network(model_spec, np.random.default_rng(tc.seed)), items, tc,
        checkpoint_dir=out / "checkpoints"))


def cmd_distill(args, cfg):
    student_spec = _model_spec(cfg, "student")
    teacher = netcore.load_checkpoint(args.teacher)
    return _fit(args, cfg, lambda items, tc, out: pipeline.distill(
        teacher, student_spec, items, tc, checkpoint_dir=out / "checkpoints"))


def cmd_adapt(args, cfg):
    teacher = netcore.load_checkpoint(args.teacher)
    return _fit(args, cfg, lambda items, tc, out: pipeline.adapt(
        teacher, items, tc, checkpoint_dir=out / "checkpoints"))


def cmd_spot(args, cfg):
    try:
        kws.check_decision_threshold(args.threshold)
    except kws.KwsError as e:
        raise PipelineError(f"bad threshold: {e}")
    spec = _build(SynthTaskSpec, cfg, "task")
    pipeline.check_input_wav(args.input)
    net = netcore.load_checkpoint(args.model)
    w = simkit.read_wav(args.input)
    feats = pipeline.featurize_waveform(w, spec)
    pipeline.check_feature_dim([pipeline.TrainItem(args.input, feats.frames)], net.spec.input_dim)
    try:
        kws.check_decodable(len(feats.frames), net.spec.output_dim, pipeline.KEYWORD_MODEL)
    except kws.KwsError as e:
        raise PipelineError(f"{args.input}: {e}")
    post = netcore.forward(net, feats.frames)
    det = kws.spot(post, pipeline.KEYWORD_MODEL)
    accept = kws.decide(det, args.threshold)
    print(f"score    {det.score:.6f}")
    print(f"segment  [{det.segment[0]}, {det.segment[1]}]")
    print(f"peaks    frames {det.peak_frames} posteriors "
          + " ".join(f"{p:.4f}" for p in det.peak_posteriors))
    print(f"decision {'accept' if accept else 'reject'} (threshold {args.threshold})")
    return EXIT_OK


def cmd_eval(args, _cfg):
    try:
        if args.threshold is None:
            kws.check_target_ca(args.target_ca)
        else:
            kws.check_threshold(args.threshold)
    except kws.KwsError as e:
        raise PipelineError(f"bad operating point: {e}")
    records = kws.read_scores(args.scores)
    scores = [(s, p) for _, s, p, _ in records]
    durations = [d for _, _, _, d in records]
    hours = None if None in durations else [d / 3600.0 for d in durations]
    if args.threshold is not None:
        th = args.threshold
    else:
        th = kws.threshold_at_ca(scores, args.target_ca)
    report = kws.evaluate(
        scores, th,
        durations_hours=hours,
        with_roc=args.roc is not None,
    )
    print(report.format_text())
    if args.roc is not None:
        with open(args.roc, "w") as fh:
            fh.write("# threshold CA FA\n")
            for row in report.roc:
                fh.write(f"{row[0]:.6f}\t{row[1]:.6f}\t{row[2]:.6f}\n")
    return EXIT_OK


def cmd_experiment(args, cfg):
    config = _build(args.experiment, cfg, args.command)
    if "out_dir" in cfg.get(args.command, {}):  # run_seeds would replace it
        raise PipelineError(f"{args.command}.out_dir: --out names the output directory")
    out = _prepare_out_dir(args.out, args.force)
    table = pipeline.run_seeds(config, args.seeds or [config.seed], out)
    _write_provenance(out, args, cfg, seeds=table.seeds, workers=table.workers, threads={
        var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")})
    print(table.format_text())
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="farspot",
        description="Far-field wake-word toolkit: simulation, distillation, CTC spotting.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True, seed=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="dotted config override, repeatable")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")
            p.add_argument("--force", action="store_true",
                           help="allow writing into a non-empty output directory")

    def workers(p):
        p.add_argument("--workers", type=int, default=1,
                       help="utterance-level parallelism (results independent of N)")

    p = sub.add_parser("synth", help="generate a synthetic wake-word corpus")
    common(p)
    workers(p)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("simulate", help="render far-field WAVs for a clean manifest")
    common(p)
    workers(p)
    p.add_argument("--manifest", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("featurize", help="extract feature archives for a manifest")
    common(p, seed=False)
    workers(p)
    p.add_argument("--manifest", required=True)
    p.set_defaults(fn=cmd_featurize)

    p = sub.add_parser("train", help="train a model (hard CE or CTC)")
    common(p)
    p.add_argument("--manifest", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("distill", help="teacher-student compression training")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--teacher", required=True, help="teacher checkpoint")
    p.set_defaults(fn=cmd_distill)

    p = sub.add_parser("adapt", help="teacher-student domain adaptation on parallel pairs")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--teacher", required=True, help="teacher checkpoint")
    p.set_defaults(fn=cmd_adapt)

    p = sub.add_parser("spot", help="run the keyword spotter on one WAV")
    common(p, needs_out=False, seed=False)
    p.add_argument("--model", required=True, help="model checkpoint")
    p.add_argument("--input", required=True, help="input WAV (16 kHz mono PCM)")
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(fn=cmd_spot)

    p = sub.add_parser("eval", help="CA/FA report from a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--target-ca", type=float, default=0.96)
    p.add_argument("--threshold", type=float, default=None,
                   help="evaluate at a fixed threshold instead of the CA target")
    p.add_argument("--roc", default=None, help="write a threshold/CA/FA table here")
    p.set_defaults(fn=cmd_eval, config=None, set=[])  # eval reads no config

    p = sub.add_parser("compress", help="run the KWS model-compression experiment")
    common(p, seed=False)
    p.add_argument("--seeds", type=int, nargs="+", help="seeds to run (default: config's)")
    p.set_defaults(fn=cmd_experiment, experiment=pipeline.KwsCompressionConfig)

    p = sub.add_parser("ladder", help="run the single-factor-change experiment ladder")
    common(p, seed=False)
    p.add_argument("--seeds", type=int, nargs="+", help="seeds to run (default: config's)")
    p.set_defaults(fn=cmd_experiment, experiment=pipeline.LadderConfig)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _apply_overrides(_load_config(args.config), args.set)
        unknown = sorted(set(cfg) - set(CONFIG_SECTIONS))
        if unknown:
            raise PipelineError(f"unknown config sections {unknown} "
                                f"(known: {', '.join(CONFIG_SECTIONS)})")
        return args.fn(args, cfg)
    except Exception as e:  # noqa: BLE001 - map any failure to a diagnostic
        rejected = isinstance(e, PipelineError)
        print(f"{'config error' if rejected else 'error'}: {e}", file=sys.stderr)
        return EXIT_CONFIG if rejected else EXIT_RUNTIME


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
