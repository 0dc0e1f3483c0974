"""Test-side autodiff ops, single-text helpers and one-item-at-a-time
scoring and consolidation: the references the tests compare the pipeline
against. The ops are built on `ad._make` like any primitive, but the pipeline
records none of them, so they are not in `ad.primitive_set()`."""

import math
import random
from collections import defaultdict
from typing import Iterable, Sequence

import numpy as np

from tinyembed import autodiff as ad
from tinyembed import data as td
from tinyembed import evaluation as ev
from tinyembed import model as tm
from tinyembed.autodiff import Tensor
from tinyembed.tokenizer import EOS_ID, tokenize
from tinyembed.training import truncate_and_renorm_array

# --- ops -----------------------------------------------------------------------


def transpose(a: Tensor) -> Tensor:
    """2-D transpose."""
    ad._shape_check("transpose", a.values.ndim == 2, a.shape)

    def vjp(g):
        return (g.T.copy(),)

    return ad._make("transpose", a.values.T.copy(), (a,), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shaped tensors."""
    ad._shape_check("mul", a.shape == b.shape, a.shape, b.shape)
    av, bv = a.values, b.values

    def vjp(g):
        return g * bv, g * av

    return ad._make("mul", av * bv, (a, b), vjp)


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x). The vjp recomputes the sigmoid rather than keep it."""
    av = a.values
    sig = ad._sigmoid(av)

    def vjp(g):
        sig = ad._sigmoid(av)
        gx = np.subtract(1.0, sig)  # g * sig * (1.0 + av * (1.0 - sig)), in place
        gx *= av
        gx += 1.0
        gx *= g * sig
        return (gx,)

    return ad._make("silu", av * sig, (a,), vjp)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along rows (axis 0) or columns (axis 1)."""
    if not parts:
        raise ValueError("concat: empty input list")
    if axis not in (0, 1):
        raise ValueError(f"concat: axis must be 0 or 1, got {axis}")
    vals = [p.values for p in parts]
    other = 1 - axis
    ad._shape_check(
        "concat",
        all(v.ndim == 2 and v.shape[other] == vals[0].shape[other] for v in vals),
        *[v.shape for v in vals],
    )
    out = np.concatenate(vals, axis=axis)
    sizes = [v.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):  # reads no input tensor, so it pins none of their values
        if axis == 0:
            return tuple(g[offsets[i] : offsets[i + 1]].copy() for i in range(len(sizes)))
        return tuple(g[:, offsets[i] : offsets[i + 1]].copy() for i in range(len(sizes)))

    return ad._make("concat", out, tuple(parts), vjp)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """View the same values under a new shape."""
    av = a.values
    if int(np.prod(shape)) != av.size:
        raise ad.ShapeError(f"reshape: cannot view {av.shape} as {tuple(shape)}")
    old = av.shape

    def vjp(g):
        return (g.reshape(old),)

    return ad._make("reshape", av.reshape(shape), (a,), vjp)


def sum_all(a: Tensor) -> Tensor:
    """Sum over all elements (scalar output)."""
    av = a.values

    def vjp(g):
        return (np.full_like(av, g),)

    return ad._make("sum_all", np.asarray(av.sum(), dtype=av.dtype), (a,), vjp)


def cross_entropy(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Mean of -log softmax(logits)[target] over rows (scalar output)."""
    lv = logits.values
    ad._shape_check("cross_entropy", lv.ndim == 2, lv.shape)
    t = np.asarray(targets, dtype=np.intp)
    ad._shape_check("cross_entropy", t.shape == (lv.shape[0],), lv.shape, t.shape)
    if t.size and (t.min() < 0 or t.max() >= lv.shape[1]):
        raise IndexError(f"cross_entropy: target out of range for {lv.shape[1]} classes")
    nll, p = ad._nll_softmax(lv, t)
    return ad._make("cross_entropy", np.asarray(nll.mean(), dtype=lv.dtype), (logits,), lambda g: (_nll_grad(p, t, g),))


def _nll_grad(p: np.ndarray, t: np.ndarray, g) -> np.ndarray:
    """Logit gradient of g times the mean over rows of the -log softmax."""
    gl = p.copy()
    gl[np.arange(p.shape[0]), t] -= 1.0
    return gl * (g / p.shape[0])


# --- one text at a time ----------------------------------------------------------


def raw_sequence_embedding(model: tm.EmbeddingModel, tokens: list[int]) -> Tensor:
    """Final hidden state at the EOS position, shape (1, hidden), not normalized."""
    return tm.raw_sequence_embeddings(model, [tokens])


def embed_sequence(model: tm.EmbeddingModel, tokens: list[int]) -> Tensor:
    """L2-normalized EOS hidden state, shape (1, hidden)."""
    return ad.l2_normalize_rows(raw_sequence_embedding(model, tokens))


def embed_text(model: tm.EmbeddingModel, text: str) -> np.ndarray:
    """Inference-mode unit embedding of a text string, shape (hidden,)."""
    with ad.no_grad():
        return embed_sequence(model, tokenize(text, model.config.max_seq_len)).values[0].copy()


def detokenize(tokens: list[int]) -> str:
    """Inverse of tokenize for untruncated input; ignores EOS/PAD tail."""
    body = []
    for t in tokens:
        if t >= EOS_ID:
            break
        body.append(t)
    return bytes(body).decode("utf-8")


# --- flat-vector views (whole-model gradient checks) --------------------------------


def flatten_params(model: tm.EmbeddingModel) -> np.ndarray:
    return np.concatenate([model.params[name].values.reshape(-1) for name, _, _, _ in tm.param_specs(model.config)])


def model_from_flat(config: tm.ModelConfig, flat: Tensor) -> tm.EmbeddingModel:
    """Build a model whose parameters are graph views into one flat leaf tensor."""
    row = reshape(flat, (1, flat.values.size))
    params: dict[str, Tensor] = {}
    offset = 0
    for name, shape, _, _ in tm.param_specs(config):
        size = int(np.prod(shape))
        params[name] = reshape(ad.slice_cols(row, offset, offset + size), shape)
        offset += size
    if offset != flat.values.size:
        raise ad.ShapeError(f"model_from_flat: flat vector has {flat.values.size} values, config needs {offset}")
    return tm.EmbeddingModel(config, params)


# --- one text, pair or anchor at a time -----------------------------------------


def unit(cache: ev._EmbedCache, text: str, dim: int | None) -> np.ndarray:
    """A text of a warm call, truncated to dim and renormed."""
    raw = cache.raw[text]
    d = raw.shape[0] if dim is None else dim
    return truncate_and_renorm_array(raw[None, :], d)[0]


def score_task(task: ev.EvalTask, cache: ev._EmbedCache, dim: int | None) -> float:
    """evaluation._score_task with one truncation, gemv and argsort per text,
    and the spearman and best_threshold_accuracy below."""
    if task.kind == "Retrieval":
        doc_matrix = np.stack([unit(cache, doc, dim) for doc in task.corpus])
        per_query = []
        for query, relevant in zip(task.queries, task.relevance):
            sims = doc_matrix @ unit(cache, query, dim)
            ranking = np.argsort(-sims, kind="stable").tolist()
            per_query.append(ev.ndcg_at_k(ranking, relevant, task.k))
        return sum(per_query) / len(per_query)
    sims = [float(unit(cache, a, dim) @ unit(cache, b, dim)) for a, b in task.pairs]
    if task.kind == "STS":
        return spearman(sims, task.gold)
    return best_threshold_accuracy(sims, task.labels)[0]


def _fractional_ranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


def spearman(pred: list[float], gold: list[float]) -> float:
    """Pearson correlation of fractional (average-tie) ranks, found one tie run at a time."""
    if len(pred) != len(gold) or len(pred) < 2:
        raise ValueError("spearman needs two equal-length score lists of size >= 2")
    rp = np.asarray(_fractional_ranks(list(pred)))
    rg = np.asarray(_fractional_ranks(list(gold)))
    rp -= rp.mean()
    rg -= rg.mean()
    denom = math.sqrt(float(rp @ rp) * float(rg @ rg))
    if denom == 0.0:
        raise ValueError("spearman undefined: zero-variance ranks")
    return float(rp @ rg) / denom


def best_threshold_accuracy(sims: list[float], labels: list[int]) -> tuple[float, float]:
    """Every pair compared against every threshold, built from the sorted set of sims."""
    if len(sims) != len(labels) or len(sims) < 2:
        raise ValueError("need >= 2 (similarity, label) pairs")
    if len(set(labels)) < 2:
        raise ValueError("both labels must be present")
    uniq = sorted(set(sims))
    thresholds = [uniq[0] - 1.0]
    thresholds += [(a + b) / 2 for a, b in zip(uniq, uniq[1:])]
    thresholds.append(uniq[-1] + 1.0)
    best_acc, best_thr = -1.0, thresholds[0]
    n = len(sims)
    for thr in thresholds:
        acc = sum((s > thr) == bool(l) for s, l in zip(sims, labels)) / n
        if acc > best_acc:
            best_acc, best_thr = acc, thr
    return best_acc, best_thr


def clustering_sample(
    anchor: str, classes: dict[str, list[str]], source: str, kind: str, rng: random.Random
) -> td.CanonicalSample:
    """The anchor with a random same-class positive and a random different-class
    negative, its lists rebuilt for this anchor alone."""
    own = next((label for label, texts in classes.items() if anchor in texts), None)
    if own is None:
        raise td.SchemaError("classed record anchor not found in any class")
    positives = [t for t in classes[own] if t != anchor]
    other_texts = [t for label in sorted(classes) if label != own for t in classes[label]]
    if not positives or not other_texts:
        raise td.SchemaError("classed record needs a same-class positive and a different-class negative")
    return td.CanonicalSample(
        format=td.CLUSTERING,
        query=anchor,
        positive=rng.choice(positives),
        negatives=[rng.choice(other_texts)],
        source=source,
        task_type=kind,
        symmetric=td._is_symmetric(kind),
    )


def consolidate_records(records: Iterable[dict], rng: random.Random) -> list[td.CanonicalSample]:
    """data.consolidate_records with one clustering_sample call per anchor."""
    samples: list[td.CanonicalSample] = []
    classed: dict[tuple[str, str], dict[str, list[str]]] = defaultdict(lambda: defaultdict(list))
    for record in records:
        if td.is_classed(record):
            classed[(record["source"], record["task_type"])][record["class"]].append(record["text"])
        else:
            samples.append(td.consolidate(record, record.get("task_type", ""), rng))
    for (source, task_type), classes in classed.items():
        if len(classes) < 2:
            continue
        for label in sorted(classes):
            if len(classes[label]) < 2:
                continue
            for anchor in classes[label]:
                samples.append(clustering_sample(anchor, classes, source, task_type, rng))
    return samples
