"""Data consolidation into the three canonical contrastive formats, hard-negative
mining, per-source capping, stage-dependent instruction formatting, and batching.

Ingestion accepts JSON-lines records in three schemas:
  retrieval: {"query", "pos", "negs": [...], "source", "task_type", "symmetric"?}
  classed:   {"text", "class", "source", "task_type"}   (paired within/across classes)
  binary:    {"text", "label", "labels": [l0, l1], "source", "task_type"}
"""

from __future__ import annotations

import json
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

RETRIEVAL = "Retrieval"
CLUSTERING = "Clustering"
PAIR_CLASSIFICATION = "PairClassification"
FORMATS = (RETRIEVAL, CLUSTERING, PAIR_CLASSIFICATION)

# Task kinds where query and document play interchangeable roles; these get
# document-side instruction dropout in stage 2 and never use in-batch negatives
# in clustering/classification formats.
SYMMETRIC_TASK_KINDS = {"clustering", "sts", "bitext", "paraphrase"}


class SchemaError(ValueError):
    """Raised for records that match no ingestion schema or miss required fields."""


_FIELD_KINDS: dict[str, Callable[[object], bool]] = {
    "a boolean": lambda v: type(v) is bool,
    "an integer": lambda v: type(v) is int,
    "a non-negative integer": lambda v: type(v) is int and v >= 0,
    "a number": lambda v: type(v) in (int, float),
    "a string": lambda v: type(v) is str,
    "a list of integers": lambda v: type(v) is list and all(type(x) is int for x in v),
    "a list of numbers": lambda v: type(v) is list and all(type(x) in (int, float) for x in v),
    "a list of strings": lambda v: type(v) is list and all(type(x) is str for x in v),
    "a list of objects": lambda v: type(v) is list and all(type(x) is dict for x in v),
    "an object of string lists": lambda v: type(v) is dict
    and all(type(x) is list and all(type(t) is str for t in x) for x in v.values()),
    "a list of string pairs": lambda v: type(v) is list
    and all(type(x) is list and len(x) == 2 and all(type(t) is str for t in x) for x in v),
}


def check_fields(where: str, record, kinds: dict[str, str], required: Iterable[str]) -> None:
    """A JSON object with only the keys of kinds, all the required ones, and each
    value of its kind (a _FIELD_KINDS key, or one with " or null", which also
    takes null). Raises SchemaError naming where and the field."""
    if not isinstance(record, dict):
        raise SchemaError(f"{where}: expected a JSON object, got {type(record).__name__}")
    unknown = [k for k in record if k not in kinds]
    if unknown:
        raise SchemaError(f"{where}: unknown field {unknown[0]!r} (known: {', '.join(kinds)})")
    missing = [k for k in required if k not in record]
    if missing:
        raise SchemaError(f"{where}: missing fields: {', '.join(missing)}")
    for key, value in record.items():
        kind = kinds[key]
        if value is None and kind.endswith(" or null"):
            continue
        if not _FIELD_KINDS[kind.removesuffix(" or null")](value):
            raise SchemaError(f"{where}: field {key!r} must be {kind}, got {value!r}")


@dataclass
class CanonicalSample:
    format: str
    query: str
    positive: str
    negatives: list[str]
    source: str
    task_type: str
    symmetric: bool
    instruction: str | None = None

    def __post_init__(self):
        if self.format not in FORMATS:
            raise ValueError(f"unknown canonical format {self.format!r}")
        if self.format in (CLUSTERING, PAIR_CLASSIFICATION) and not self.negatives:
            raise ValueError(f"{self.format} samples need at least one explicit negative")

    @property
    def uses_in_batch_negatives(self) -> bool:
        return self.format == RETRIEVAL

    def to_json(self) -> str:
        # vars, not asdict: asdict deep-copies every field of every sample.
        return json.dumps(vars(self), ensure_ascii=False, sort_keys=True)


CANONICAL_FIELDS = {
    "format": "a string",
    "query": "a string",
    "positive": "a string",
    "negatives": "a list of strings",
    "source": "a string",
    "task_type": "a string",
    "symmetric": "a boolean",
    "instruction": "a string or null",
}


@dataclass
class Batch:
    samples: list[CanonicalSample]

    def __post_init__(self):
        if not self.samples:
            raise ValueError("empty batch")
        fmt = self.samples[0].format
        if any(s.format != fmt for s in self.samples):
            raise ValueError("batch mixes canonical formats")
        if fmt == RETRIEVAL and len({s.source for s in self.samples}) != 1:
            raise ValueError("retrieval batch mixes sources")
        if fmt != RETRIEVAL and any(not s.negatives for s in self.samples):
            raise ValueError(f"{fmt} batch sample lacks an explicit negative")

    @property
    def format(self) -> str:
        return self.samples[0].format

    @property
    def uses_in_batch_negatives(self) -> bool:
        return self.format == RETRIEVAL

    def __len__(self) -> int:
        return len(self.samples)


# ---------------------------------------------------------------------------
# Consolidation
# ---------------------------------------------------------------------------


# The kind of every raw field a schema reads; fields no schema reads are allowed.
# The optional ones may be absent.
_OPTIONAL_FIELDS = ("negs", "symmetric")
_RAW_FIELDS = {
    "query": "a string", "pos": "a string", "negs": "a list of strings", "symmetric": "a boolean",
    "text": "a string", "label": "a string", "labels": "a list of strings", "class": "a string",
    "anchor": "a string", "classes": "an object of string lists", "source": "a string", "task_type": "a string",
}


def _require(record: dict, fields: tuple[str, ...], schema: str) -> None:
    """Each of fields present, unless optional, and of its _RAW_FIELDS kind."""
    missing = [f for f in fields if f not in record and f not in _OPTIONAL_FIELDS]
    if missing:
        raise SchemaError(f"{schema} record missing fields: {', '.join(missing)}")
    for f in fields:
        if f in record and not _FIELD_KINDS[_RAW_FIELDS[f]](record[f]):
            raise SchemaError(f"{schema} record field {f!r} must be {_RAW_FIELDS[f]}, got {record[f]!r}")


def _is_symmetric(task_kind: str) -> bool:
    return task_kind.lower() in SYMMETRIC_TASK_KINDS


def consolidate(record: dict, task_kind: str, rng: random.Random) -> CanonicalSample:
    """Map one raw record into a canonical sample.

    Retrieval records map directly; grouped class-labeled records map by
    pairing the anchor with a same-class positive and a different-class
    negative; binary-labeled records use the label text as positive and the
    opposite label text as the negative.
    """
    if "query" in record:
        _require(record, ("query", "pos", "negs", "symmetric", "source", "task_type"), "retrieval")
        kind = record["task_type"] or task_kind
        return CanonicalSample(
            format=RETRIEVAL,
            query=record["query"],
            positive=record["pos"],
            negatives=list(record.get("negs", [])),
            source=record["source"],
            task_type=kind,
            symmetric=record.get("symmetric", _is_symmetric(kind)),
        )
    if "label" in record:
        _require(record, ("text", "label", "labels", "source", "task_type"), "binary")
        labels = record["labels"]
        if len(labels) != 2 or record["label"] not in labels:
            raise SchemaError(f"binary record needs 2 labels containing {record['label']!r}")
        opposite = labels[1] if record["label"] == labels[0] else labels[0]
        kind = record["task_type"] or task_kind
        return CanonicalSample(
            format=PAIR_CLASSIFICATION,
            query=record["text"],
            positive=record["label"],
            negatives=[opposite],
            source=record["source"],
            task_type=kind,
            symmetric=_is_symmetric(kind),
        )
    if "classes" in record:
        _require(record, ("anchor", "classes", "source", "task_type"), "classed")
        kind = record["task_type"] or task_kind
        return _clustering_samples([record["anchor"]], record["classes"], record["source"], kind, rng)[0]
    raise SchemaError("unknown schema: record has none of the fields query / label / classes")


def _clustering_samples(
    anchors: list[str], classes: dict[str, list[str]], source: str, kind: str, rng: random.Random
) -> list[CanonicalSample]:
    """Each anchor with a random same-class positive (a text of its class other
    than itself) and a random different-class negative; its class is the first
    that holds it. Each draw is rng.choice over a range as long as the candidate
    list, mapped onto the candidates, so no list is built per anchor."""
    owner, spots, flat, start = {}, defaultdict(list), [], {}
    for label, texts in classes.items():
        for i, text in enumerate(texts):
            if owner.setdefault(text, label) == label:
                spots[text].append(i)  # where the text sits in its own class
    for label in sorted(classes):  # the texts of every class, in label order
        start[label] = len(flat)
        flat += classes[label]
    samples = []
    for anchor in anchors:
        if anchor not in owner:
            raise SchemaError("classed record anchor not found in any class")
        own = owner[anchor]
        members, skip = classes[own], spots[anchor]
        if len(members) == len(skip) or len(flat) == len(members):
            raise SchemaError("classed record needs a same-class positive and a different-class negative")
        i = rng.choice(range(len(members) - len(skip)))
        for s in skip:  # step over the anchor's copies
            i += s <= i
        j = rng.choice(range(len(flat) - len(members)))
        j += len(members) if j >= start[own] else 0  # step over the anchor's class
        samples.append(CanonicalSample(format=CLUSTERING, query=anchor, positive=members[i], negatives=[flat[j]],
                                       source=source, task_type=kind, symmetric=_is_symmetric(kind)))
    return samples


def is_classed(record: dict) -> bool:
    """True for a per-text classed record, which consolidate_records groups
    with its class before it becomes a sample. Raises SchemaError when such a
    record misses a field or has one of the wrong kind, so callers can check it
    where they know its line."""
    if "class" not in record or "query" in record or "label" in record:
        return False
    _require(record, ("text", "class", "source", "task_type"), "classed")
    return True


def consolidate_records(records: Iterable[dict], rng: random.Random) -> list[CanonicalSample]:
    """Consolidate a stream of raw records, grouping per-text classed records.

    Classed records ({"text", "class", ...}) are grouped by (source, task_type);
    each text becomes an anchor. Anchors whose class has no second member, or
    whose group has a single class, are skipped (no valid pair exists).
    """
    samples: list[CanonicalSample] = []
    classed: dict[tuple[str, str], dict[str, list[str]]] = defaultdict(lambda: defaultdict(list))
    for record in records:
        if is_classed(record):
            classed[(record["source"], record["task_type"])][record["class"]].append(record["text"])
        else:
            samples.append(consolidate(record, record.get("task_type", ""), rng))
    for (source, task_type), classes in classed.items():
        if len(classes) < 2:
            continue
        anchors = [anchor for label in sorted(classes) if len(classes[label]) >= 2 for anchor in classes[label]]
        samples += _clustering_samples(anchors, classes, source, task_type, rng)
    return samples


# ---------------------------------------------------------------------------
# Hard-negative mining
# ---------------------------------------------------------------------------


def top_ranks(doc_matrix: np.ndarray, queries, top: int) -> list[list[int]]:
    """Per query vector, the indices of its `top` most similar rows of doc_matrix,
    ties in index order. Each query's similarities are one gemv, doc_matrix @ q
    (a gemm over all queries rounds otherwise)."""
    return [np.argsort(-(doc_matrix @ q), kind="stable")[:top].tolist() for q in queries]


def mine_hard_negatives(
    queries: list[str],
    corpus: list[str],
    embedder: Callable[[str], np.ndarray],
    k: int,
    skip_top: int = 1,
    *,
    positive_indices: list[int],
) -> list[list[str]]:
    """Per query: rank the corpus by cosine similarity, drop the known positive
    and the first skip_top ranks, return the next k texts.

    The embedder must return unit vectors. positive_indices gives each query's
    known positive as an index into `corpus` (required so it can be excluded).
    """
    if k < 0 or skip_top < 0:
        raise ValueError("k and skip_top must be >= 0")
    if not corpus:
        raise ValueError("empty corpus")
    if len(positive_indices) != len(queries):
        raise ValueError("positive_indices must give one corpus index per query")
    doc_embs = np.stack([embedder(doc) for doc in corpus])
    # Dropping at most skip_top + 1 ranks leaves k within the first skip_top + k + 1.
    orders = top_ranks(doc_embs, [embedder(query) for query in queries], skip_top + k + 1)
    out: list[list[str]] = []
    for order, pos_idx in zip(orders, positive_indices):
        excluded = {*order[:skip_top], pos_idx}
        out.append([corpus[j] for j in order if j not in excluded][:k])
    return out


# ---------------------------------------------------------------------------
# Capping, instructions, batching, stats
# ---------------------------------------------------------------------------


def cap_per_source(samples: list[CanonicalSample], cap: int, rng: random.Random) -> list[CanonicalSample]:
    """Keep at most `cap` samples per source (uniform random subset, original order)."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    by_source: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(samples):
        by_source[s.source].append(i)
    keep: set[int] = set()
    for source in sorted(by_source):
        idxs = by_source[source]
        keep.update(idxs if len(idxs) <= cap else rng.sample(idxs, cap))
    return [s for i, s in enumerate(samples) if i in keep]


def attach_instructions(samples: list[CanonicalSample], templates: dict[str, str]) -> list[CanonicalSample]:
    """Set each sample's instruction template from a {task_type: template} map."""
    return [replace(s, instruction=templates.get(s.task_type, s.instruction)) for s in samples]


def apply_instructions(
    sample: CanonicalSample, stage: int, p_doc: float = 0.30, rng: random.Random | None = None
) -> CanonicalSample:
    """Stage 1: identity. Stage 2: prepend the instruction to the query, and for
    symmetric tasks independently to the positive and each negative with
    probability p_doc (one coin per text)."""
    if stage == 1:
        return sample
    if stage != 2:
        raise ValueError(f"stage must be 1 or 2, got {stage}")
    if not sample.instruction:
        raise ValueError(f"stage-2 sample from {sample.source!r} has no instruction template")
    if rng is None:
        raise ValueError("stage-2 instruction application needs a seeded rng")
    prefix = lambda text: sample.instruction + "\n" + text
    coin = lambda text: prefix(text) if rng.random() < p_doc else text
    if sample.symmetric:
        positive = coin(sample.positive)
        negatives = [coin(n) for n in sample.negatives]
    else:
        positive = sample.positive
        negatives = list(sample.negatives)
    return replace(sample, query=prefix(sample.query), positive=positive, negatives=negatives)


def make_batches(samples: list[CanonicalSample], batch_size: int, rng: random.Random) -> list[Batch]:
    """Group by (format, source), shuffle within groups, chunk, drop trailing
    singletons, and shuffle the global batch order."""
    if batch_size < 2:
        raise ValueError("batch_size must be >= 2")
    groups: dict[tuple[str, str], list[CanonicalSample]] = defaultdict(list)
    for s in samples:
        groups[(s.format, s.source)].append(s)
    batches: list[Batch] = []
    for key in sorted(groups):
        members = list(groups[key])
        rng.shuffle(members)
        for i in range(0, len(members), batch_size):
            chunk = members[i : i + batch_size]
            if len(chunk) >= 2:
                batches.append(Batch(chunk))
    rng.shuffle(batches)
    return batches


def epoch_batches(samples: list[CanonicalSample], batch_size: int, rng: random.Random, epochs: int) -> list[Batch]:
    """Independent make_batches shuffles per epoch, concatenated; varies the
    in-batch negative pairings across epochs."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    out: list[Batch] = []
    for _ in range(epochs):
        out.extend(make_batches(samples, batch_size, rng))
    return out


def stats_report(samples: list[CanonicalSample]) -> dict:
    """Per-source, per-format, per-task-type counts."""
    return {
        "total": len(samples),
        "by_source": dict(sorted(Counter(s.source for s in samples).items())),
        "by_format": dict(sorted(Counter(s.format for s in samples).items())),
        "by_task_type": dict(sorted(Counter(s.task_type for s in samples).items())),
    }


# ---------------------------------------------------------------------------
# JSONL io
# ---------------------------------------------------------------------------


def read_jsonl(path: str | Path) -> list[tuple[int, dict]]:
    """(line number, record) for every non-blank line; bad JSON names its path:line."""
    records = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append((lineno, json.loads(line)))
            except json.JSONDecodeError as e:
                raise SchemaError(f"{path}:{lineno}: invalid JSON ({e.msg})") from e
    return records


def read_samples(path: str | Path) -> list[CanonicalSample]:
    samples = []
    required = [k for k in CANONICAL_FIELDS if k != "instruction"]
    for lineno, record in read_jsonl(path):
        where = f"{path}:{lineno}"
        check_fields(where, record, CANONICAL_FIELDS, required)
        try:
            samples.append(CanonicalSample(**record))
        except ValueError as e:
            raise SchemaError(f"{where}: {e}") from e
    return samples


def write_samples(path: str | Path, samples: Iterable[CanonicalSample]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for s in samples:
            f.write(s.to_json() + "\n")
