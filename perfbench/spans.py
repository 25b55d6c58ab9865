"""Layer tracer for the benchmark.

Wraps every public function of the seven farspot modules (the layers) from
outside the program.  A span covers the outermost call into a layer; calls a
layer makes into itself stay inside that span.  A layer's self time is its
spans' duration minus the time their child spans in other layers took.

Times are split into categories by function name (forward / backward /
checkpoint in netcore, CTC / CE in criteria, decode / eval in kws), so a
batched or renamed function lands in the same layer and usually the same
category.  Counters are attached to the few functions whose arguments carry
the work size.

Corpus calls with workers > 1 run their per-utterance jobs in forked pool
workers.  The wall of such a call is counted as `pipeline.pool_s` and is not
pipeline self time; each worker records its own spans and spools them to a
file that the parent merges when the pool call returns, so the self times
of simkit, featkit and pipeline include worker time summed over workers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("simkit", "featkit", "netcore", "criteria", "kws", "pipeline", "cli")

# (layer, substring of the function name) -> category; first match wins.
_CATEGORIES = {
    "netcore": (("backward", "bwd"), ("forward", "fwd"), ("checkpoint", "ckpt")),
    "criteria": (("ctc", "ctc"), ("ce_loss", "ce"), ("adaptation", "ce")),
    "kws": (("viterbi", "decode"), ("spot", "decode"), ("confidence", "decode"),
            ("evaluate", "eval"), ("threshold", "eval")),
}

# The tracer a forked pool worker finds after unpickling a job wrapper.
_ACTIVE: "Tracer | None" = None


def _category(layer: str, name: str) -> str:
    for needle, cat in _CATEGORIES.get(layer, ()):
        if needle in name:
            return cat
    return "other"


def _trailing_zero_frames(x) -> int:
    """Padded frames of a zero-padded (B, T, D) batch."""
    nonzero = np.any(x != 0, axis=2)  # (B, T)
    t = x.shape[1]
    last = t - np.argmax(nonzero[:, ::-1], axis=1)  # one past the last real frame
    last[~nonzero.any(axis=1)] = 0
    return int(np.sum(t - last))


class Tracer:
    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self._stack: list[list] = []  # [layer, category, child seconds]
        self._patched: list[tuple[object, str, object]] = []
        self._last_error: BaseException | None = None
        self.reset()

    def reset(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)  # "layer.category"
        self.counts: dict[str, float] = defaultdict(float)

    # -- spans -------------------------------------------------------------

    def _enter(self, layer: str, category: str) -> list:
        frame = [layer, category, 0.0]
        self._stack.append(frame)
        self.counts[f"{layer}.calls"] += 1
        return frame

    def _leave(self, frame: list, elapsed: float) -> None:
        self._stack.pop()
        self.seconds[f"{frame[0]}.{frame[1]}"] += elapsed - frame[2]
        if self._stack:
            self._stack[-1][2] += elapsed

    def _error(self, layer: str, exc: BaseException) -> None:
        if exc is not self._last_error:  # count where it was raised, once
            self._last_error = exc
            self.counts[f"{layer}.errors"] += 1

    def _wrap(self, layer: str, name: str, fn):
        category = _category(layer, name)
        count = _COUNTERS.get((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kw):
            if self._stack and self._stack[-1][0] == layer:
                result = fn(*args, **kw)
            else:
                frame = self._enter(layer, category)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kw)
                except Exception as exc:
                    self._error(layer, exc)
                    raise
                finally:
                    self._leave(frame, time.perf_counter() - t0)
            if count is not None:
                count(self.counts, args, kw, result)
            return result

        return traced

    def _wrap_pmap(self, fn):
        @functools.wraps(fn)
        def traced(job_fn, jobs, workers):
            if workers <= 1:
                return fn(job_fn, jobs, workers)
            frame = self._enter("pool", "wall")
            t0 = time.perf_counter()
            try:
                return fn(_PoolJob(job_fn), jobs, workers)
            finally:
                self._leave(frame, time.perf_counter() - t0)
                self._merge_spool()

        return traced

    # -- install / remove --------------------------------------------------

    def install(self, package) -> None:
        global _ACTIVE
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                self._patch(mod, name, self._wrap(layer, name, obj))
        self._patch(package.pipeline, "_pmap", self._wrap_pmap(package.pipeline._pmap))
        _ACTIVE = self

    def _patch(self, mod, name: str, new) -> None:
        self._patched.append((mod, name, getattr(mod, name)))
        setattr(mod, name, new)

    def remove(self) -> None:
        global _ACTIVE
        for mod, name, old in reversed(self._patched):
            setattr(mod, name, old)
        self._patched.clear()
        _ACTIVE = None

    # -- pool workers ------------------------------------------------------

    def _merge_spool(self) -> None:
        for path in sorted(self.spool_dir.glob("worker-*.json")):
            data = json.loads(path.read_text())
            for k, v in data["seconds"].items():
                self.seconds[k] += v
            for k, v in data["counts"].items():
                self.counts[k] += v
            path.unlink()

    def _run_in_worker(self, job_fn, job):
        if self.pid != os.getpid():  # first job in this forked worker
            self.pid = os.getpid()
            self._stack.clear()
            self.reset()
        frame = self._enter("pipeline", "other")
        t0 = time.perf_counter()
        try:
            return job_fn(job)
        finally:
            self._leave(frame, time.perf_counter() - t0)
            spool = self.spool_dir / f"worker-{self.pid}.json"
            spool.write_text(json.dumps({"seconds": self.seconds, "counts": self.counts}))

    # -- report ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        s, c = self.seconds, self.counts

        def self_s(layer):
            return sum((v for k, v in s.items() if k.split(".")[0] == layer), 0.0)

        fwd_calls = c["netcore.fwd_calls"]
        return {
            "criteria.self_s": self_s("criteria"),
            "criteria.ctc_s": s["criteria.ctc"],
            "criteria.ce_s": s["criteria.ce"],
            "criteria.calls": c["criteria.calls"],
            "criteria.ctc_cells": c["criteria.ctc_cells"],
            "criteria.errors": c["criteria.errors"],
            "netcore.self_s": self_s("netcore"),
            "netcore.fwd_s": s["netcore.fwd"],
            "netcore.fwd_calls": fwd_calls,
            "netcore.fwd_frames": c["netcore.fwd_frames"],
            "netcore.mean_batch": c["netcore.fwd_batch_rows"] / fwd_calls if fwd_calls else 0.0,
            "netcore.bwd_s": s["netcore.bwd"],
            "netcore.bwd_calls": c["netcore.bwd_calls"],
            "netcore.pad_frac": (c["netcore.train_pad_frames"] / c["netcore.train_frames"]
                                 if c["netcore.train_frames"] else 0.0),
            "netcore.ckpt_s": s["netcore.ckpt"],
            "netcore.errors": c["netcore.errors"],
            "kws.self_s": self_s("kws"),
            "kws.decode_s": s["kws.decode"],
            "kws.decodes": c["kws.decodes"],
            "kws.decode_frames": c["kws.decode_frames"],
            "kws.eval_s": s["kws.eval"],
            "kws.eval_points": c["kws.eval_points"],
            "kws.errors": c["kws.errors"],
            "simkit.self_s": self_s("simkit"),
            "simkit.calls": c["simkit.calls"],
            "simkit.rirs": c["simkit.rirs"],
            "simkit.samples_out": c["simkit.samples_out"],
            "simkit.wav_mb": c["simkit.wav_bytes"] / 1e6,
            "simkit.errors": c["simkit.errors"],
            "featkit.self_s": self_s("featkit"),
            "featkit.calls": c["featkit.calls"],
            "featkit.frames": c["featkit.frames"],
            "featkit.errors": c["featkit.errors"],
            "pipeline.self_s": self_s("pipeline"),
            "pipeline.pool_s": s["pool.wall"],
            "pipeline.errors": c["pipeline.errors"],
            "cli.self_s": self_s("cli"),
        }


_UNITS = (("_s", "s"), ("_mb", "MB"), ("frames", "frames"), ("_cells", "cells"),
          ("samples_out", "samples"), ("mean_batch", "utts"), ("pad_frac", "ratio"))


def unit(metric: str) -> str:
    for suffix, u in _UNITS:
        if metric.endswith(suffix):
            return u
    return "count"


class _PoolJob:
    """Picklable job wrapper: runs a corpus job under the worker's tracer."""

    def __init__(self, job_fn):
        self.job_fn = job_fn

    def __call__(self, job):
        if _ACTIVE is None:
            return self.job_fn(job)
        return _ACTIVE._run_in_worker(self.job_fn, job)


# -- work counters, keyed by (layer, function) -------------------------------

def _count_forward(c, args, kw, result):
    x = args[1]
    b, t = x.shape[0], x.shape[1]
    c["netcore.fwd_calls"] += 1
    c["netcore.fwd_frames"] += b * t
    c["netcore.fwd_batch_rows"] += b
    # a forward that keeps its cache feeds a backward pass: a training batch
    if kw.get("want_cache", args[2] if len(args) > 2 else True):
        c["netcore.train_frames"] += b * t
        c["netcore.train_pad_frames"] += _trailing_zero_frames(x)


def _count_backward(c, args, kw, result):
    c["netcore.bwd_calls"] += 1


def _count_ctc(c, args, kw, result):
    labels = args[1] if len(args) > 1 else kw["labels"]
    c["criteria.ctc_cells"] += len(args[0]) * (2 * len(labels) + 1)


def _count_decode(c, args, kw, result):
    c["kws.decodes"] += 1
    c["kws.decode_frames"] += args[0].num_frames


def _count_evaluate(c, args, kw, result):
    c["kws.eval_points"] += len(args[0])


def _count_rir(c, args, kw, result):
    c["simkit.rirs"] += 1


def _count_simulated(c, args, kw, result):
    c["simkit.samples_out"] += len(result)


def _count_wav_read(c, args, kw, result):
    c["simkit.wav_bytes"] += 2 * len(result)


def _count_wav_write(c, args, kw, result):
    c["simkit.wav_bytes"] += 2 * len(args[1])


def _count_log_mel(c, args, kw, result):
    c["featkit.frames"] += result.num_frames


_COUNTERS = {
    ("netcore", "forward_batch"): _count_forward,
    ("netcore", "backward_batch"): _count_backward,
    ("criteria", "ctc_loss"): _count_ctc,
    ("kws", "viterbi_locate"): _count_decode,
    ("kws", "evaluate"): _count_evaluate,
    ("simkit", "generate_rir"): _count_rir,
    ("simkit", "simulate_single_channel"): _count_simulated,
    ("simkit", "simulate_beamformed"): _count_simulated,
    ("simkit", "read_wav"): _count_wav_read,
    ("simkit", "write_wav"): _count_wav_write,
    ("featkit", "log_mel"): _count_log_mel,
}
