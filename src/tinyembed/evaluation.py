"""Evaluation harness: retrieval nDCG, STS Spearman, pair-classification accuracy,
matryoshka truncation sweeps, and the distillation ablation."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Batch, SchemaError, check_fields, top_ranks
from .model import EmbeddingModel, raw_embeddings
from .tokenizer import tokenize
from .training import StagePlan, train_stage, truncate_and_renorm_array

KINDS = ("Retrieval", "STS", "PairClassification")


@dataclass
class EvalTask:
    kind: str
    name: str
    # Retrieval
    queries: list[str] | None = None
    corpus: list[str] | None = None
    relevance: list[dict[int, float]] | None = None
    k: int = 10
    # STS
    pairs: list[tuple[str, str]] | None = None
    gold: list[float] | None = None
    # PairClassification
    labels: list[int] | None = None

    def __post_init__(self):
        if self.kind == "Retrieval":
            if not (self.queries and self.corpus and self.relevance):
                raise ValueError("retrieval task needs queries, corpus, relevance")
            if len(self.relevance) != len(self.queries) or any(not r for r in self.relevance):
                raise ValueError("retrieval task needs a non-empty relevance set per query")
            if self.k < 1:
                raise ValueError(f"k must be >= 1, got {self.k}")
            for i, r in enumerate(self.relevance):
                outside = [d for d in r if not 0 <= d < len(self.corpus)]
                if outside:
                    raise ValueError(f"query {i}: document {outside[0]} is outside the corpus of {len(self.corpus)}")
                if not all(math.isfinite(g) and g >= 0 for g in r.values()) or max(r.values()) <= 0:
                    raise ValueError(f"query {i}: gains must be finite, >= 0 and not all 0")
        elif self.kind == "STS":
            if not self.pairs or self.gold is None or len(self.pairs) != len(self.gold):
                raise ValueError("sts task needs pairs and matching gold scores")
            if not all(math.isfinite(g) for g in self.gold):
                raise ValueError("sts gold scores must be finite")
            if len(set(self.gold)) < 2:
                raise ValueError("sts task needs at least 2 pairs with gold scores that are not all equal")
        elif self.kind == "PairClassification":
            if not self.pairs or self.labels is None or len(self.pairs) != len(self.labels):
                raise ValueError("pair task needs pairs and matching labels")
            if any(l not in (0, 1) for l in self.labels):
                raise ValueError("pair labels must be 0 or 1")
            if len(set(self.labels)) < 2:
                raise ValueError("pair task needs at least 2 pairs with both labels 0 and 1")
        else:
            raise ValueError(f"unknown task kind {self.kind!r}; options: {KINDS}")

    def texts(self) -> list[str]:
        if self.kind == "Retrieval":
            return list(self.queries) + list(self.corpus)
        return [t for pair in self.pairs for t in pair]

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "name": self.name}
        if self.kind == "Retrieval":
            d.update(
                queries=self.queries,
                corpus=self.corpus,
                relevance=[{str(i): g for i, g in r.items()} for r in self.relevance],
                k=self.k,
            )
        elif self.kind == "STS":
            d.update(pairs=[list(p) for p in self.pairs], gold=self.gold)
        else:
            d.update(pairs=[list(p) for p in self.pairs], labels=self.labels)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EvalTask":
        d = dict(d)
        if d.get("relevance") is not None:
            d["relevance"] = [{int(i): float(g) for i, g in r.items()} for r in d["relevance"]]
        if d.get("pairs") is not None:
            d["pairs"] = [tuple(p) for p in d["pairs"]]
        return cls(**d)


TASK_FIELDS = {
    "kind": "a string",
    "name": "a string",
    "queries": "a list of strings or null",
    "corpus": "a list of strings or null",
    "relevance": "a list of objects or null",
    "k": "an integer",
    "pairs": "a list of string pairs or null",
    "gold": "a list of numbers or null",
    "labels": "a list of integers or null",
}


def load_tasks(path: str | Path) -> list[EvalTask]:
    with open(path) as f:
        payload = json.load(f)
    if not isinstance(payload, list):
        raise SchemaError(f"{path}: expected a JSON list of tasks")
    tasks = []
    for i, d in enumerate(payload):
        where = f"{path}: task {i}" + (f" ({d['name']!r})" if isinstance(d, dict) and "name" in d else "")
        check_fields(where, d, TASK_FIELDS, ("kind", "name"))
        try:
            tasks.append(EvalTask.from_dict(d))
        except ValueError as e:
            raise SchemaError(f"{where}: {e}") from e
    return tasks


def save_tasks(path: str | Path, tasks: list[EvalTask]) -> None:
    with open(path, "w") as f:
        json.dump([t.to_dict() for t in tasks], f, indent=2, ensure_ascii=False)


# ---------------------------------------------------------------------------
# Metric kernels
# ---------------------------------------------------------------------------


def ndcg_at_k(ranking: list[int], relevant: dict[int, float], k: int) -> float:
    """Normalized discounted cumulative gain at cutoff k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not relevant:
        raise ValueError("empty relevant set")
    dcg = 0.0
    for i, doc in enumerate(ranking[:k], start=1):
        if doc in relevant:
            dcg += relevant[doc] / math.log2(i + 1)
    ideal = 0.0
    for i, gain in enumerate(sorted(relevant.values(), reverse=True)[:k], start=1):
        ideal += gain / math.log2(i + 1)
    return dcg / ideal


def _fractional_ranks(values: list[float]) -> np.ndarray:
    """1-based ranks in sorted order, each run of equal values given its mean rank."""
    order = np.argsort(values, kind="stable")
    v = np.asarray(values, dtype=np.float64)[order]
    first = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])  # where each run starts
    last = np.r_[first[1:], len(v)] - 1
    ranks = np.empty(len(v))
    ranks[order] = np.repeat((first + last) / 2 + 1.0, last - first + 1)
    return ranks


def spearman(pred: list[float], gold: list[float]) -> float:
    """Pearson correlation of fractional (average-tie) ranks."""
    if len(pred) != len(gold) or len(pred) < 2:
        raise ValueError("spearman needs two equal-length score lists of size >= 2")
    rp, rg = _fractional_ranks(pred), _fractional_ranks(gold)
    rp -= rp.mean()
    rg -= rg.mean()
    denom = math.sqrt(float(rp @ rp) * float(rg @ rg))
    if denom == 0.0:
        raise ValueError("spearman undefined: zero-variance ranks")
    return float(rp @ rg) / denom


def best_threshold_accuracy(sims: list[float], labels: list[int]) -> tuple[float, float]:
    """Scan all midpoints between sorted similarities (plus both extremes);
    predict label 1 when sim > threshold. Returns (best accuracy, threshold),
    the lowest threshold on a tie, counting by binary search per label."""
    if len(sims) != len(labels) or len(sims) < 2:
        raise ValueError("need >= 2 (similarity, label) pairs")
    if len(set(labels)) < 2:
        raise ValueError("both labels must be present")
    values, positive = np.asarray(sims, dtype=np.float64), np.asarray(labels, dtype=bool)
    uniq = np.array(sorted(set(sims)), dtype=np.float64)  # np.unique would import numpy.ma: +1.7 MB RSS on numpy 2.4
    thresholds = np.concatenate([[uniq[0] - 1.0], (uniq[:-1] + uniq[1:]) / 2, [uniq[-1] + 1.0]])
    ones, zeros = np.sort(values[positive]), np.sort(values[~positive])
    correct = len(ones) - np.searchsorted(ones, thresholds, side="right") + np.searchsorted(zeros, thresholds, side="right")
    best = int(np.argmax(correct))
    return float(correct[best] / len(sims)), float(thresholds[best])


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


class _EmbedCache:
    """Raw EOS embeddings computed once per unique text; truncation applied per use, to many texts at once."""

    def __init__(self, model: EmbeddingModel):
        self.model = model
        self.raw: dict[str, np.ndarray] = {}
        self.requests = 0
        self.hits = 0

    def warm(self, texts: list[str]) -> None:
        """Embed the texts not seen yet in one raw_embeddings call. Callers pass
        every task's texts at once, so texts of equal length from different tasks
        share length chunks, and one thread pool runs them all."""
        new: dict[str, None] = {}
        for text in texts:
            self.requests += 1
            if text in self.raw or text in new:
                self.hits += 1
            else:
                new[text] = None
        max_len = self.model.config.max_seq_len
        self.raw.update(zip(new, raw_embeddings(self.model, [tokenize(t, max_len) for t in new])))

    def units(self, texts: list[str], dim: int | None) -> np.ndarray:
        """Texts of a warm call as rows, truncated to dim and renormed. A row's
        norm is its own reduction, so each row rounds as it would alone."""
        raw = np.stack([self.raw[text] for text in texts])
        return truncate_and_renorm_array(raw, raw.shape[1] if dim is None else dim)


@dataclass
class TaskScore:
    name: str
    kind: str
    score: float


@dataclass
class EvalReport:
    scores: list[TaskScore]
    mean: float | None
    unique_texts: int
    requests: int
    cache_hits: int


def _score_task(task: EvalTask, cache: _EmbedCache, dim: int | None) -> float:
    """One task's score at dim. The corpus, the queries and each side of the
    pairs are truncated as one matrix each; retrieval ranks with top_ranks, and
    a pair's similarity is one dot product of its two rows."""
    if task.kind == "Retrieval":
        rankings = top_ranks(cache.units(task.corpus, dim), cache.units(task.queries, dim), task.k)
        per_query = [ndcg_at_k(ranking, relevant, task.k) for ranking, relevant in zip(rankings, task.relevance)]
        return sum(per_query) / len(per_query)
    firsts, seconds = (cache.units(side, dim) for side in zip(*task.pairs))
    sims = [float(u @ v) for u, v in zip(firsts, seconds)]
    if task.kind == "STS":
        return spearman(sims, task.gold)
    return best_threshold_accuracy(sims, task.labels)[0]


def evaluate(model: EmbeddingModel, tasks: list[EvalTask], dim: int | None = None) -> EvalReport:
    """Score every task at an optional truncation dimension; one embedding per unique text."""
    if dim is not None and not 1 <= dim <= model.config.hidden_size:
        raise ValueError(f"dim {dim} out of range [1, {model.config.hidden_size}]")
    cache = _EmbedCache(model)
    cache.warm([text for task in tasks for text in task.texts()])
    scores = [TaskScore(t.name, t.kind, _score_task(t, cache, dim)) for t in tasks]
    mean = sum(s.score for s in scores) / len(scores) if scores else None
    return EvalReport(scores, mean, len(cache.raw), cache.requests, cache.hits)


def mrl_sweep(model: EmbeddingModel, tasks: list[EvalTask], dims: list[int]) -> list[tuple[int, float]]:
    """Mean score at each truncation dimension; embeddings computed once."""
    if not tasks:
        raise ValueError("mrl_sweep needs at least one task")
    if not dims:
        raise ValueError("mrl_sweep needs at least one dim")
    if list(dims) != sorted(set(dims)):
        raise ValueError("dims must be ascending and distinct")
    if dims[0] < 8 or dims[-1] > model.config.hidden_size:
        raise ValueError(f"dims must lie within [8, {model.config.hidden_size}]")
    cache = _EmbedCache(model)
    cache.warm([text for task in tasks for text in task.texts()])
    return [(d, sum(_score_task(t, cache, d) for t in tasks) / len(tasks)) for d in dims]


def write_sweep_csv(path: str | Path, rows: list[tuple[int, float]]) -> None:
    with open(path, "w") as f:
        f.write("dim,mean_score\n")
        for d, score in rows:
            f.write(f"{d},{score!r}\n")


def write_scores_csv(path: str | Path, report: EvalReport) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["task", "kind", "score"])
        writer.writerows([s.name, s.kind, repr(s.score)] for s in report.scores)


# ---------------------------------------------------------------------------
# Distillation ablation (Table-4-style paired arms)
# ---------------------------------------------------------------------------


def ablation_distill(
    pruned_init: EmbeddingModel,
    teacher: EmbeddingModel,
    data: list[Batch],
    plan: StagePlan,
    tasks: list[EvalTask],
) -> dict:
    """Train two arms from the same pruned initialization — with distillation
    (the plan's weight) and without (no teacher) — under identical seeds and
    data, and evaluate both on the same tasks."""
    if plan.loss.distill_weight <= 0:
        raise ValueError("ablation needs a positive distill_weight for the distilled arm")
    distilled = pruned_init.astype(np.float32)
    plain = pruned_init.astype(np.float32)
    train_stage(distilled, data, plan, teacher=teacher)
    train_stage(plain, data, plan)
    with_score = evaluate(distilled, tasks).mean
    without_score = evaluate(plain, tasks).mean
    return {
        "with_distillation": with_score,
        "without_distillation": without_score,
        "delta": with_score - without_score,
    }
