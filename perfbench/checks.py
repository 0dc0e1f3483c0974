"""Checks on what each subcommand wrote. Each returns a list of problems; an
empty list means the output is correct, anything else fails the operation."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import tinyembed.autodiff as ad
import tinyembed.model as tm
from tinyembed.pruning import sliced_forward_oracle
from tinyembed.tokenizer import tokenize

SCORE_RANGE = {"Retrieval": (0.0, 1.0), "STS": (-1.0, 1.0), "PairClassification": (0.0, 1.0)}
ORACLE_SEQUENCES = 3


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_train(out: Path, steps: int, hidden: int) -> list[str]:
    """Every loss finite, the planned number of steps, and a checkpoint that reloads."""
    problems = []
    try:
        with open(out / "metrics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
    except OSError as e:
        return [f"train: metrics.csv unreadable ({e})"]
    if [r.get("step") for r in rows] != [str(i) for i in range(1, steps + 1)]:
        problems.append(f"train: metrics.csv has {len(rows)} steps, planned {steps}")
    for r in rows:
        bad = [k for k in ("total_loss", "contrastive_loss", "distill_loss") if not _finite(r.get(k) or "")]
        if bad:
            return problems + [f"train: non-finite {', '.join(bad)} at step {r.get('step')}"]
    try:
        state = json.loads((out / "checkpoint" / "training_state.json").read_text())
        if state.get("step") != steps:
            problems.append(f"train: training_state step {state.get('step')}, planned {steps}")
        model = tm.load_checkpoint(out / "checkpoint", trainable=False)
    except (OSError, ValueError) as e:
        return problems + [f"train: checkpoint does not reload ({e})"]
    if model.config.hidden_size != hidden:
        problems.append(f"train: checkpoint hidden size {model.config.hidden_size}, expected {hidden}")
    if not all(np.isfinite(p.values).all() for p in model.params.values()):
        problems.append("train: checkpoint holds non-finite weights")
    return problems


def train_fingerprint(out: Path) -> str:
    h = hashlib.sha256()
    for rel in ("metrics.csv", "checkpoint/weights.bin"):
        h.update((out / rel).read_bytes())
    return h.hexdigest()


def final_loss(out: Path) -> float:
    """Mean total loss over the second half of the steps in metrics.csv."""
    with open(out / "metrics.csv", newline="") as f:
        losses = [float(r["total_loss"]) for r in csv.DictReader(f)]
    tail = losses[len(losses) // 2:]
    return sum(tail) / len(tail)


def check_mine(canonical: Path, mined: Path, k: int) -> list[str]:
    """Each sample keeps its query and positive, gets k negatives, never its own positive."""
    try:
        before, after = _read_jsonl(canonical), _read_jsonl(mined)
    except (OSError, ValueError) as e:
        return [f"mine: output unreadable ({e})"]
    if len(before) != len(after):
        return [f"mine: {len(after)} samples out, {len(before)} in"]
    for i, (a, b) in enumerate(zip(before, after)):
        if (a["query"], a["positive"]) != (b.get("query"), b.get("positive")):
            return [f"mine: sample {i} query or positive changed"]
        negs = b.get("negatives") or []
        if len(negs) != k:
            return [f"mine: sample {i} has {len(negs)} negatives, expected {k}"]
        if b["positive"] in negs:
            return [f"mine: sample {i} got its own positive as a negative"]
    return []


def check_prune(teacher: Path, pruned: Path, canonical: Path) -> list[str]:
    """The pruned checkpoint's forward equals the sliced-forward oracle exactly."""
    try:
        source = tm.load_checkpoint(teacher, trainable=False)
        small = tm.load_checkpoint(pruned / "checkpoint", trainable=False)
        report = json.loads((pruned / "prune_report.json").read_text())
    except (OSError, ValueError) as e:
        return [f"prune: output unreadable ({e})"]
    n_layers = small.config.num_layers
    if report["kept_layers"] != list(range(n_layers)):
        return [f"prune: kept layers {report['kept_layers']} are not the first {n_layers}"]
    samples = _read_jsonl(canonical)[:ORACLE_SEQUENCES]
    for s in samples:
        toks = tokenize(s["query"], source.config.max_seq_len)
        with ad.no_grad():
            got = tm.forward_hidden(small, toks).values
        want = sliced_forward_oracle(source, report["kept_hidden"], report["kept_mlp_per_layer"], n_layers, toks)
        if got.shape != want.shape or not np.array_equal(got, want):
            return [f"prune: forward differs from the sliced oracle on {s['query']!r}"]
    return []


def check_eval(stdout: str, scores_csv: Path, tasks) -> tuple[list[str], float | None]:
    """Scores in range for their kind, one row per task, and the printed mean
    matching the CSV. Returns the problems and the mean score."""
    try:
        with open(scores_csv, newline="") as f:
            rows = list(csv.DictReader(f))
    except OSError as e:
        return [f"eval: scores unreadable ({e})"], None
    if [(r.get("task"), r.get("kind")) for r in rows] != [(t.name, t.kind) for t in tasks]:
        return [f"eval: rows {[r.get('task') for r in rows]} do not match the task file"], None
    scores = []
    for r in rows:
        lo, hi = SCORE_RANGE[r["kind"]]
        if not _finite(r["score"]) or not lo <= float(r["score"]) <= hi:
            return [f"eval: {r['task']} score {r['score']} outside [{lo}, {hi}]"], None
        scores.append(float(r["score"]))
    mean = sum(scores) / len(scores)
    printed = [line.split(":", 1)[1] for line in stdout.splitlines() if line.startswith("mean:")]
    if len(printed) != 1 or not _finite(printed[0]) or abs(float(printed[0]) - mean) > 5e-5:
        return [f"eval: printed mean {printed} does not match scores {mean:.6f}"], None
    return [], mean


def check_sweep(sweep_csv: Path, dims) -> list[str]:
    """One row per requested dim, in order, each a finite mean score in [-1, 1]."""
    try:
        with open(sweep_csv, newline="") as f:
            rows = list(csv.DictReader(f))
    except OSError as e:
        return [f"sweep-mrl: output unreadable ({e})"]
    if [r.get("dim") for r in rows] != [str(d) for d in dims]:
        return [f"sweep-mrl: rows {[r.get('dim') for r in rows]}, expected dims {list(dims)}"]
    for r in rows:
        if not _finite(r.get("mean_score") or "") or not -1.0 <= float(r["mean_score"]) <= 1.0:
            return [f"sweep-mrl: dim {r['dim']} score {r.get('mean_score')} out of range"]
    return []
