"""Spans around the public functions each CLI subcommand calls into.

The wrappers are installed from outside the package by replacing module
attributes, so nothing under ``src/`` changes. Every tinyembed module that
bound the original function (``from .x import f``) gets the wrapper too.

A span records its name, start, end, the span that caused it and the unit of
work (one set-up or one cycle) it belongs to. A span whose name is already
open on the stack is not opened again, so a layer calling itself
(``read_samples`` -> ``read_jsonl``) is counted once. Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# Ops whose per-step node counts are reported; they dominate the training graph.
NODE_OPS = ("matmul", "slice_cols", "transpose", "rms_norm", "row_softmax", "gather_rows")

CHECKPOINT_FILES = ("config.json", "manifest.json", "weights.bin")


def _checkpoint_bytes(ckpt_dir) -> int:
    root = Path(ckpt_dir)
    return sum((root / name).stat().st_size for name in CHECKPOINT_FILES if (root / name).exists())


def _texts_in_batches(batches) -> int:
    return sum(2 + len(s.negatives) for b in batches for s in b.samples)


class Tracer:
    """Records spans and counts while installed; restores every patched attribute on uninstall."""

    def __init__(self):
        # (name, start, end, parent index or -1, unit kind)
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: dict[str, Counter] = {}
        self.step_intervals_ms: list[float] = []
        self.units: Counter = Counter()
        self._unit = "cycle"
        self._stack: list[int] = []
        self._open_names: list[str] = []
        self._last_adamw: float | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._installed = 0

    # -- spans -----------------------------------------------------------------

    @contextmanager
    def unit(self, kind: str):
        """Tag the spans opened inside as belonging to one set-up or one cycle."""
        prev = self._unit
        self._unit = kind
        self.units[kind] += 1
        try:
            yield
        finally:
            self._unit = prev

    @contextmanager
    def span(self, name: str):
        if name in self._open_names:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent, self._unit))
        self._stack.append(idx)
        self._open_names.append(name)
        try:
            yield
        finally:
            self._stack.pop()
            self._open_names.pop()
            name_, start, _, parent_, unit = self.spans[idx]
            self.spans[idx] = (name_, start, time.perf_counter(), parent_, unit)

    def inside(self, name: str) -> bool:
        return name in self._open_names

    def count(self, key: str, n: float = 1) -> None:
        self.counts.setdefault(self._unit, Counter())[key] += n

    # -- installation ----------------------------------------------------------

    def _replace_everywhere(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("tinyembed") or mod is owner:
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        targets.append((mod, name))
        for obj, name in targets:
            self._patches.append((obj, name, getattr(obj, name)))
            setattr(obj, name, wrapper)

    def _wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name() if callable(name) else name
            if before is not None:
                before(*args, **kwargs)
            with tracer.span(span_name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        self._replace_everywhere(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer boundaries; nested installs only count depth."""
        self._installed += 1
        if self._installed == 1:
            self._install()

    def uninstall(self) -> None:
        self._installed -= 1
        if self._installed == 0:
            for obj, name, original in reversed(self._patches):
                setattr(obj, name, original)
            self._patches.clear()

    def _install(self) -> None:
        import tinyembed.autodiff as ad
        import tinyembed.cli as cli
        import tinyembed.data as td
        import tinyembed.evaluation as ev
        import tinyembed.model as tm
        import tinyembed.pruning as tp
        import tinyembed.synthetic as syn
        import tinyembed.tokenizer as tok
        import tinyembed.training as tt

        c = self.count

        self._wrap(tok, "tokenize", "tokenizer")

        def on_backward(graph, loss):
            c("autodiff.nodes", len(graph))
            for op, n in Counter(node.op for node in graph.nodes).items():
                c("autodiff.nodes." + op, n)

        self._wrap(ad, "backward", "autodiff.backward", after=on_backward)

        def forward_name():
            return "model.forward_grad" if ad.grad_enabled() else "model.forward_nograd"

        def on_forward(model, tokens, taps=None):
            if not ad.grad_enabled() and self.inside("training.stage"):
                c("training.teacher_cache.forwards")

        self._wrap(tm, "forward_hidden", forward_name, before=on_forward)
        self._wrap(tm, "save_checkpoint", "model.checkpoint_io",
                   after=lambda out, model, out_dir: c("model.checkpoint_io.bytes", _checkpoint_bytes(out_dir)))
        self._wrap(tm, "load_checkpoint", "model.checkpoint_io",
                   before=lambda ckpt_dir, trainable=True: c("model.checkpoint_io.bytes", _checkpoint_bytes(ckpt_dir)))

        def on_stage(model, data, plan, teacher=None, **kwargs):
            self._last_adamw = None
            if teacher is not None and plan.loss.distill_weight > 0:
                c("training.teacher_cache.requests", _texts_in_batches(data) * plan.epochs)

        def on_adamw(out, *args, **kwargs):
            now = time.perf_counter()
            if self._last_adamw is not None:
                self.step_intervals_ms.append(1000.0 * (now - self._last_adamw))
            self._last_adamw = now

        self._wrap(tt, "train_stage", "training.stage", before=on_stage)
        self._wrap(tt, "matryoshka_info_nce", "training.loss")
        self._wrap(tt, "distill_loss", "training.distill")
        self._wrap(tt, "adamw_step", "training.adamw", after=on_adamw)

        self._wrap(td, "consolidate", "data.consolidate")
        self._wrap(td, "consolidate_records", "data.consolidate")
        self._wrap(td, "read_samples", "data.read")
        self._wrap(td, "read_jsonl", "data.read")
        self._wrap(cli, "_load_records_with_lines", "data.read")
        self._wrap(td, "epoch_batches", "data.batching")
        self._wrap(td, "mine_hard_negatives", "data.mine")

        self._wrap(tp, "collect_activation_norms", "pruning.collect_norms",
                   before=lambda model, calibration: c("pruning.calibration_seqs", len(calibration)))
        self._wrap(tp, "prune_model", "pruning.slice")

        def on_evaluate(report, *args, **kwargs):
            c("evaluation.unique_texts", report.unique_texts)
            c("evaluation.cache.requests", report.requests)
            c("evaluation.cache.hits", report.cache_hits)

        self._wrap(ev._EmbedCache, "warm", "evaluation.embed")
        self._wrap(ev, "_score_task", "evaluation.score")
        self._wrap(ev, "evaluate", "evaluation.evaluate", after=on_evaluate)
        self._wrap(ev, "mrl_sweep", "evaluation.sweep")

        for fn in ("retrieval_training_samples", "retrieval_eval_task", "sts_eval_task",
                   "pair_classification_eval_task"):
            self._wrap(syn, fn, "synthetic")

    # -- derived metrics -------------------------------------------------------

    def _self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy and self seconds, each summed per unit of
        work (one set-up plus one cycle) so runs of any length compare."""
        own = self._self_times()
        sums: dict[tuple[str, str], list[float]] = {}
        for i, (name, start, end, _, unit) in enumerate(self.spans):
            t = sums.setdefault((name, unit), [0, 0.0, 0.0])
            t[0] += 1
            t[1] += end - start
            t[2] += own[i]
        # Divide once per unit kind, so whole counts stay exact.
        totals: dict[str, dict[str, float]] = {}
        for (name, unit), (calls, busy, self_s) in sums.items():
            n = max(1, self.units[unit])
            t = totals.setdefault(name, {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0})
            t["calls"] += calls / n
            t["busy_s"] += busy / n
            t["self_s"] += self_s / n
        return totals

    def count_totals(self) -> Counter:
        """Counts summed per unit of work, like layer_totals."""
        out: Counter = Counter()
        for unit, counts in self.counts.items():
            for key, n in counts.items():
                out[key] += n / max(1, self.units[unit])
        return out

    def self_time_residual(self) -> float:
        """Largest gap, over top-level spans, between the span's duration and the
        sum of self times of the spans under it; zero up to rounding when every
        child lies inside its parent."""
        own = self._self_times()
        root_of = [-1] * len(self.spans)
        self_sum: dict[int, float] = {}
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            root_of[i] = i if parent < 0 else root_of[parent]
            self_sum[root_of[i]] = self_sum.get(root_of[i], 0.0) + own[i]
        worst_negative = min(own, default=0.0)
        gap = max((abs(self_sum[r] - (self.spans[r][2] - self.spans[r][1])) for r in self_sum), default=0.0)
        return max(gap, -worst_negative, 0.0)
