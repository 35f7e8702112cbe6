"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer wraps vstain's public functions and the stage calls made by
``network.forward`` by swapping module attributes, and puts the
originals back when it is removed. Nothing under ``src/`` is edited.
The wrappers only read timings, shapes and byte counts, so a traced run
computes exactly the same numbers as an untraced one; the benchmark
checks this by comparing the two runs' digests.

Stages are named as ``Network.named_parameters`` names them (``stem``,
``enc1.db``, ``enc1.gdt``, ..., ``head``). Backward time is attributed to
the stage whose forward recorded the tape node, by timing each node's
backward closure. Time the tracer spends on its own statistics is
subtracted from every span open at the time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from vstain import autograd, inference, kernels, network, training

GPT_STAGES = ("enc1.gdt", "enc2.gdt", "enc3.gdt", "bottom.gst",
              "dec1.gut", "dec2.gut", "dec3.gut")
STAGES = ("stem", "enc1.db", "enc1.gdt", "enc2.db", "enc2.gdt", "enc3.db",
          "enc3.gdt", "bottom.db", "bottom.gst", "dec1.gut", "dec1.db",
          "dec2.gut", "dec2.db", "dec3.gut", "dec3.db", "head")
LOSS = "loss"
FLOAT32_TINY = np.finfo(np.float32).tiny


def stage_names(net) -> dict[int, str]:
    """id(stage parameters) -> stage name, for one network."""
    names = {}
    for i, (db, gdt) in enumerate(net.encoder, start=1):
        names[id(db)] = f"enc{i}.db"
        names[id(gdt)] = f"enc{i}.gdt"
    names[id(net.bottom_db)] = "bottom.db"
    names[id(net.bottom_gst)] = "bottom.gst"
    for i, (gut, db) in enumerate(net.decoder, start=1):
        names[id(gut)] = f"dec{i}.gut"
        names[id(db)] = f"dec{i}.db"
    return names


class Tracer:
    """Accumulates seconds, counts and bytes per layer while installed."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.excluded = 0.0       # tracer self-time, removed from open spans
        self._stack: list[str] = []
        self._names: dict[int, str] = {}
        self._stem_w = self._head_w = None
        self._tape_seen: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str, stage: str | None = None):
        """Add the wall time of the block, minus tracer self-time, to `name`."""
        if stage is not None:
            self._stack.append(stage)
        t0, ex0 = time.perf_counter(), self.excluded
        try:
            yield
        finally:
            self.totals[name] += time.perf_counter() - t0 - (self.excluded - ex0)
            if stage is not None:
                self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.totals[name] += value

    def _current_stage(self) -> str | None:
        return self._stack[-1] if self._stack else None

    # -- installation -----------------------------------------------------

    def _patch(self, module, attr: str, wrapper_factory) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper_factory(original))

    def _timed(self, name: str, stage: str | None = None):
        def factory(fn):
            def wrapper(*args, **kwargs):
                with self.span(name, stage):
                    return fn(*args, **kwargs)
            return wrapper
        return factory

    def install(self) -> None:
        self._patch(training, "forward", self._forward_factory)
        self._patch(inference, "forward", self._forward_factory)
        self._patch(autograd, "conv2d", self._conv_factory)
        self._patch(network, "dense_forward", self._stage_factory)
        self._patch(network, "gpt_forward", self._stage_factory)
        self._patch(autograd, "make_op", self._make_op_factory)
        self._patch(kernels, "col_softmax", self._softmax_factory)
        self._patch(autograd, "backward", self._timed("autograd.backward.s"))
        self._patch(training, "masked_cross_entropy",
                    self._timed("training.masked_cross_entropy.s", LOSS))
        self._patch(training, "adam_step", self._timed("training.adam_step.s"))
        self._patch(training, "sample_training_patch",
                    self._timed("multiscale.sample_training_patch.s"))
        self._patch(training, "save_checkpoint", self._save_checkpoint_factory)
        self._patch(inference, "predict_distributions",
                    self._timed("network.predict_distributions.s"))
        self._patch(inference, "extract_multiscale",
                    self._timed("multiscale.extract_multiscale.s"))

    def remove(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- wrappers ---------------------------------------------------------

    def _forward_factory(self, fn):
        def forward(net, x, *args, **kwargs):
            self._names = stage_names(net)
            self._stem_w, self._head_w = net.stem_w, net.head_w
            self._tape_seen.clear()
            self.totals["network.forward.calls"] += 1
            with self.span("network.forward.s"):
                return fn(net, x, *args, **kwargs)
        return forward

    def _stage_factory(self, fn):
        def stage_call(x, params, *args, **kwargs):
            stage = self._names.get(id(params), "unattributed")
            with self.span(f"stage.{stage}.fwd_s", stage):
                return fn(x, params, *args, **kwargs)
        return stage_call

    def _conv_factory(self, fn):
        def conv2d(x, w, b, stride=1):
            if w is self._stem_w:
                stage = "stem"
            elif w is self._head_w:
                stage = "head"
            else:
                return fn(x, w, b, stride)
            with self.span(f"stage.{stage}.fwd_s", stage):
                return fn(x, w, b, stride)
        return conv2d

    def _make_op_factory(self, fn):
        def make_op(data, parents, backward_fn):
            stage = self._current_stage() or "unattributed"
            key = ("training.masked_cross_entropy.bwd_s" if stage == LOSS
                   else f"stage.{stage}.bwd_s")

            def timed_backward(g):
                t0 = time.perf_counter()
                backward_fn(g)
                self.totals[key] += time.perf_counter() - t0

            out = fn(data, parents, timed_backward)
            if out._backward is not None:
                t0 = time.perf_counter()
                self.totals["autograd.tape_nodes"] += 1
                self.totals[f"stage.{stage}.tape_bytes"] += self._tape_bytes(
                    out.data, backward_fn)
                self.excluded += time.perf_counter() - t0
            return out
        return make_op

    def _tape_bytes(self, data: np.ndarray, backward_fn) -> int:
        """Bytes a new tape node keeps alive: its output plus the arrays its
        backward closure captured, each buffer counted once per forward."""
        arrays = [data]
        for cell in backward_fn.__closure__ or ():
            try:
                value = cell.cell_contents
            except ValueError:
                continue
            if isinstance(value, np.ndarray):
                arrays.append(value)
        total = 0
        for a in arrays:
            if a.base is None and id(a) not in self._tape_seen:
                self._tape_seen.add(id(a))
                total += a.nbytes
        return total

    def _softmax_factory(self, fn):
        def col_softmax(m):
            out = fn(m)
            stage = self._current_stage()
            if stage in GPT_STAGES:
                t0 = time.perf_counter()
                below = np.count_nonzero(out < FLOAT32_TINY)
                zero = np.count_nonzero(out == 0)
                self.totals[f"stage.{stage}.softmax_subnormal"] += below - zero
                self.totals[f"stage.{stage}.softmax_weights"] += out.size
                self.totals[f"stage.{stage}.score_bytes"] += m.nbytes
                self.excluded += time.perf_counter() - t0
            return out
        return col_softmax

    def _save_checkpoint_factory(self, fn):
        def save_checkpoint(path, *args, **kwargs):
            with self.span("network.save_checkpoint.s"):
                fn(path, *args, **kwargs)
            self.totals["network.save_checkpoint.calls"] += 1
            self.totals["network.save_checkpoint.bytes"] += Path(path).stat().st_size
        return save_checkpoint


class NullTracer:
    """Stand-in used on untraced runs: spans cost nothing and record nothing."""

    @contextmanager
    def span(self, name: str, stage: str | None = None):
        yield

    def add(self, name: str, value: float) -> None:
        pass
