"""Contrastive training: matryoshka InfoNCE with format-dependent negative policy,
teacher-embedding MSE distillation, AdamW, and the two-stage loop."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, ShapeError, Tensor
from .data import RETRIEVAL, Batch
from .model import EmbeddingModel, raw_embeddings, raw_sequence_embeddings
from .tokenizer import tokenize


@dataclass(frozen=True)
class LossConfig:
    mrl_dims: tuple[int, ...]
    temperature: float = 0.05
    mrl_weights: tuple[float, ...] | None = None  # None = uniform
    distill_weight: float = 1.0

    def __post_init__(self):
        # Each range test is also false for NaN.
        if not 0 < self.temperature < float("inf"):
            raise ValueError(f"temperature must be finite and > 0, got {self.temperature!r}")
        if not 0 <= self.distill_weight < float("inf"):
            raise ValueError(f"distill_weight must be finite and >= 0, got {self.distill_weight!r}")
        dims = self.mrl_dims
        if not dims or any(b <= a for a, b in zip(dims, dims[1:])):
            raise ValueError("mrl_dims must be non-empty and strictly ascending")
        if dims[0] < 8:
            raise ValueError("minimum matryoshka dimension is 8")
        if self.mrl_weights is not None:
            if len(self.mrl_weights) != len(dims):
                raise ValueError("mrl_weights must match mrl_dims")
            if not all(0 < w < float("inf") for w in self.mrl_weights):
                raise ValueError(f"mrl_weights must be finite and positive, got {list(self.mrl_weights)!r}")

    def weights(self) -> tuple[float, ...]:
        return self.mrl_weights if self.mrl_weights is not None else (1.0,) * len(self.mrl_dims)


@dataclass
class StagePlan:
    stage: int
    learning_rate: float
    epochs: int
    batch_size: int
    loss: LossConfig
    seed: int

    def __post_init__(self):
        if self.stage not in (1, 2):
            raise ValueError("stage must be 1 or 2")
        if self.epochs < 1 or self.batch_size < 2:
            raise ValueError("epochs must be >= 1 and batch_size >= 2")
        if not 0 <= self.learning_rate < float("inf"):  # also false for NaN
            raise ValueError(f"lr must be finite and >= 0, got {self.learning_rate!r}")


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def truncate_and_renorm(emb: Tensor, d: int) -> Tensor:
    """First d coordinates, re-normalized to unit rows; no graph node for a Tensor that needs no grad."""
    full = emb.shape[1]
    if not 1 <= d <= full:
        raise ValueError(f"truncation dim {d} out of range [1, {full}]")
    sliced = emb if d == full else ad.slice_cols(emb, 0, d)
    return ad.l2_normalize_rows(sliced)


def _check_unit_rows(name: str, rows: np.ndarray) -> None:
    worst = np.abs(np.linalg.norm(rows, axis=1) - 1.0).max(initial=0.0)
    if worst <= 1e-4:
        return
    if not np.isfinite(rows).all():
        raise NonFiniteError(f"info_nce: {name} embeddings contain NaN or Inf")
    raise ValueError(f"info_nce: {name} embeddings are not unit-norm (worst |n-1| = {worst:.2e})")


def info_nce(emb: Tensor, b: int, neg_counts: list[int], temperature: float, use_in_batch: bool) -> Tensor:
    """Temperature-scaled cross entropy over cosine similarities.

    emb's rows are b queries, their b positives, then query i's neg_counts[i]
    explicit negatives in query order. Candidates for query i are its positive,
    its explicit negatives, and (for retrieval batches) the other queries'
    positives.
    """
    ev = emb.values
    for name, rows in (("query", ev[:b]), ("positive", ev[b : 2 * b]), ("negative", ev[2 * b :])):
        _check_unit_rows(name, rows)
    if not sum(neg_counts) and (not use_in_batch or b < 2):
        raise ValueError("info_nce: no candidates beyond each query's own positive")
    return ad.info_nce(emb, b, neg_counts, 1.0 / temperature, use_in_batch)


def matryoshka_info_nce(
    raw_embs: Tensor, b: int, neg_counts: list[int], loss_cfg: LossConfig, use_in_batch: bool
) -> Tensor:
    """Weighted mean of info_nce over truncated-and-renormed prefixes of the rows
    info_nce takes."""
    full = raw_embs.shape[1]
    if loss_cfg.mrl_dims[-1] != full:
        raise ValueError(f"last mrl dim {loss_cfg.mrl_dims[-1]} must equal embedding size {full}")
    weights = loss_cfg.weights()
    total = None
    for d, w in zip(loss_cfg.mrl_dims, weights):
        emb = truncate_and_renorm(raw_embs, d)
        term = ad.scale(info_nce(emb, b, neg_counts, loss_cfg.temperature, use_in_batch), w)
        total = term if total is None else ad.add(total, term)
    return ad.scale(total, 1.0 / sum(weights))


def distill_loss(student_embs: Tensor, teacher: np.ndarray) -> Tensor:
    """MSE between unit student embeddings and the teacher's embeddings
    truncated-and-renormed to the student dimension."""
    d_s = student_embs.shape[1]
    if teacher.ndim != 2 or teacher.shape[0] != student_embs.shape[0]:
        raise ShapeError(f"distill_loss: student {student_embs.shape} vs teacher {teacher.shape}")
    if teacher.shape[1] < d_s:
        raise ValueError(f"teacher dim {teacher.shape[1]} smaller than student dim {d_s}")
    target = Tensor(teacher.astype(student_embs.values.dtype, copy=False))
    return ad.mse(student_embs, truncate_and_renorm(target, d_s))


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


BETA1, BETA2, EPS, WEIGHT_DECAY = 0.9, 0.999, 1e-8, 0.01


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, Tensor]) -> "OptimizerState":
        zeros = lambda: {k: np.zeros_like(p.values) for k, p in params.items()}
        return cls(m=zeros(), v=zeros())


def adamw_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray | None],
    state: OptimizerState,
    lr: float,
) -> None:
    """Decoupled weight decay Adam update, in place. Missing grads count as zero."""
    state.step += 1
    bc1 = 1.0 - BETA1**state.step
    bc2 = 1.0 - BETA2**state.step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.values)
        if g.shape != p.values.shape:
            raise ShapeError(f"adamw_step: grad {g.shape} vs param {p.values.shape} for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + EPS) + WEIGHT_DECAY * p.values
        p.values -= lr * update


# ---------------------------------------------------------------------------
# Stage loop
# ---------------------------------------------------------------------------


@dataclass
class StepMetrics:
    step: int
    total_loss: float
    contrastive_loss: float
    distill_loss: float


def write_metrics_csv(path: str | Path, metrics: list[StepMetrics]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "total_loss", "contrastive_loss", "distill_loss"])
        for m in metrics:
            w.writerow([m.step, repr(m.total_loss), repr(m.contrastive_loss), repr(m.distill_loss)])


def _packed_texts(batch: Batch) -> list[str]:
    """A step's texts in packed order: queries, positives, then each sample's negatives."""
    samples = batch.samples
    return [s.query for s in samples] + [s.positive for s in samples] + [n for s in samples for n in s.negatives]


def _teacher_targets(
    teacher: EmbeddingModel, data: list[Batch], tokens: dict[str, list[int]], start_step: int = 0
) -> dict[str, np.ndarray]:
    """Unit teacher embedding of every text of data, made before the first step,
    while no student graph is alive: one raw_embeddings call per batch in step
    order over its texts not embedded yet. tokens holds the teacher's token list
    of every text. A NonFiniteError names that step."""
    targets: dict[str, np.ndarray] = {}
    for step, batch in enumerate(data, start_step + 1):
        missing = [t for t in dict.fromkeys(_packed_texts(batch)) if t not in targets]
        try:
            rows = raw_embeddings(teacher, [tokens[t] for t in missing])
        except NonFiniteError as e:
            raise NonFiniteError(f"non-finite loss at step {step}: {e}") from e
        for text, raw in zip(missing, rows):
            targets[text] = raw / np.linalg.norm(raw)
    return targets


def _train_step(
    model: EmbeddingModel,
    batch: Batch,
    plan: StagePlan,
    opt: OptimizerState,
    step: int,
    tokens: dict[str, list[int]],
    targets: dict[str, np.ndarray] | None,
) -> StepMetrics:
    """One batch: forward, loss, backward and an AdamW update, distilling from
    targets (_teacher_targets, holding every text of the batch) unless None.
    tokens holds the student's token list of every text of the batch. The
    step's graph is dropped on return, before the next batch builds its own."""
    try:
        all_texts = _packed_texts(batch)
        eos = raw_sequence_embeddings(model, [tokens[t] for t in all_texts])
        neg_counts = [len(s.negatives) for s in batch.samples]
        contrastive = matryoshka_info_nce(
            eos, len(batch.samples), neg_counts, plan.loss, use_in_batch=batch.uses_in_batch_negatives
        )
        if targets is not None:
            # A normalize of its own, not the full dim's: the gradients then add in
            # the same order as when the two were separate graphs.
            dloss = distill_loss(ad.l2_normalize_rows(eos), np.stack([targets[t] for t in all_texts]))
            total = ad.add(contrastive, ad.scale(dloss, plan.loss.distill_weight))
            dval = float(dloss.values)
        else:
            total = contrastive
            dval = 0.0
        ad.backward(total)
    except NonFiniteError as e:
        raise NonFiniteError(f"non-finite loss at step {step}: {e}") from e
    params = model.params
    adamw_step(params, {k: p.grad for k, p in params.items()}, opt, plan.learning_rate)
    return StepMetrics(step, float(total.values), float(contrastive.values), dval)


def train_stage(
    model: EmbeddingModel,
    data: list[Batch],
    plan: StagePlan,
    teacher: EmbeddingModel | None = None,
    start_step: int = 0,
) -> tuple[EmbeddingModel, list[StepMetrics]]:
    """Run one training stage over pre-built batches, updating model in place.
    It writes no files: the caller saves the metrics and the checkpoint.

    Every distinct text is tokenized once per max_seq_len before step 1. It
    distills when given a teacher and a positive distill_weight: the teacher
    first embeds every distinct text without gradients (_teacher_targets). Then
    per batch: embed every text with the student, apply the matryoshka InfoNCE
    with in-batch negatives only for retrieval batches, add the weighted
    distillation MSE, backprop, and take one AdamW step. Deterministic given
    identical inputs.
    """
    if plan.stage == 1 and any(b.format != RETRIEVAL for b in data):
        raise ValueError("stage-1 plans use Retrieval-format data only")
    if teacher is not None and teacher.config.hidden_size < model.config.hidden_size:
        raise ValueError(
            f"teacher hidden size {teacher.config.hidden_size} smaller than student's {model.config.hidden_size}"
        )
    distills = teacher is not None and plan.loss.distill_weight > 0
    texts = dict.fromkeys(text for batch in data for text in _packed_texts(batch))
    lengths = {m.config.max_seq_len for m in ((model, teacher) if distills else (model,))}
    tokens = {n: {text: tokenize(text, n) for text in texts} for n in lengths}
    targets = _teacher_targets(teacher, data, tokens[teacher.config.max_seq_len], start_step) if distills else None
    opt = OptimizerState.for_params(model.params)
    metrics: list[StepMetrics] = []
    step = start_step
    for _ in range(plan.epochs):
        for batch in data:
            step += 1
            metrics.append(_train_step(model, batch, plan, opt, step, tokens[model.config.max_seq_len], targets))
    return model, metrics
