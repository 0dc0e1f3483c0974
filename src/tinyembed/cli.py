"""Single command-line entry point wiring the pipeline end to end.

Exit codes: 0 success, 2 user/config error, 3 numeric failure (non-finite loss).
All randomness flows from explicit seed fields; outputs carry no timestamps, so
reruns with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

from . import data as td
from . import evaluation as ev
from . import model as tm
from .autodiff import NonFiniteError, Tensor
from .data import SchemaError
from .pruning import PruneSpec, prune_model
from .tokenizer import tokenize
from .training import LossConfig, StagePlan, train_stage, truncate_and_renorm, write_metrics_csv

CONFIG_DIR = Path(__file__).parent / "configs"

# glibc mallopt (M_MMAP_THRESHOLD = -3, 4 MiB) and (M_TRIM_THRESHOLD = -1,
# 64 MiB). A training step frees tens of MB of arrays; glibc's defaults give
# them back to the OS, and the next step faults them in again, zero-filled.
# The smallest powers of two that keep every benchmark workload near zero
# faults per cycle (a 32 MiB trim threshold did not, on train_distill).
# (M_ARENA_MAX = -8, 1): raw_embeddings' chunk threads allocate from the main
# arena instead of each keeping freed memory in an arena of its own (about 3.5 MB
# of peak RSS on infer_pipeline and train_distill).
MALLOC_SETTINGS = ((-3, 4 << 20), (-1, 64 << 20), (-8, 1))


class UserError(ValueError):
    """Invalid invocation or config; maps to exit code 2."""


def _resolve_config_path(spec: str) -> Path:
    """Accept a filesystem path, a packaged path like table1/0.6B.json, or a bare size name."""
    p = Path(spec)
    if p.exists():
        return p
    candidates = [CONFIG_DIR / spec, CONFIG_DIR / f"{spec}.json", CONFIG_DIR / "table1" / spec, CONFIG_DIR / "table1" / f"{spec}.json"]
    for c in candidates:
        if c.exists():
            return c
    raise UserError(f"config not found: {spec}")


# data's JSONL reader under the name perfbench/tracing.py wraps
_load_records_with_lines = td.read_jsonl


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, ensure_ascii=False, sort_keys=True)
        f.write("\n")


def cmd_consolidate(args) -> int:
    inputs = sorted(Path(args.input).glob("*.jsonl")) if Path(args.input).is_dir() else [Path(args.input)]
    if not inputs:
        raise UserError(f"no .jsonl files under {args.input}")
    records = [(f"{path}:{lineno}", record) for path in inputs for lineno, record in _load_records_with_lines(path)]
    rng = random.Random(args.seed)
    samples = td.consolidate_records(records, rng)
    if args.cap is not None:
        samples = td.cap_per_source(samples, args.cap, rng)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    td.write_samples(out / "canonical.jsonl", samples)
    _write_json(out / "stats.json", td.stats_report(samples))
    print(f"consolidated {len(samples)} samples -> {out / 'canonical.jsonl'}")
    return 0


def cmd_stats(args) -> int:
    samples = td.read_samples(args.input)
    report = td.stats_report(samples)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        _write_json(Path(args.out) / "stats.json", report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_mine(args) -> int:
    samples = td.read_samples(args.input)
    model = tm.load_checkpoint(args.checkpoint, trainable=False)
    corpus = [s.positive for s in samples]
    queries = [s.query for s in samples]
    texts = list(dict.fromkeys(corpus + queries))
    raw = tm.raw_embeddings(model, [tokenize(t, model.config.max_seq_len) for t in texts])
    units = dict(zip(texts, truncate_and_renorm(Tensor(raw), raw.shape[1]).values))
    mined = td.mine_hard_negatives(
        queries, corpus, units.__getitem__, k=args.k, skip_top=args.skip_top, positive_indices=list(range(len(samples)))
    )
    out = []
    for s, negs in zip(samples, mined):
        merged = negs if args.mode == "replace" else s.negatives + [n for n in negs if n not in s.negatives]
        out.append(replace(s, negatives=merged))
    td.write_samples(args.out, out)
    # What the samples got: fewer than --k where the corpus holds fewer candidates.
    fewest, most = min(map(len, mined), default=args.k), max(map(len, mined), default=args.k)
    got = str(most) if fewest == most else f"{fewest}-{most}"
    print(f"mined {got} negatives for {len(out)} samples -> {args.out}")
    return 0


PLAN_FIELDS = {
    "stage": "an integer",
    "lr": "a number",
    "epochs": "an integer",
    "batch_size": "an integer",
    "mrl_dims": "a list of integers",
    "seed": "an integer",
    "data": "a list of strings",
    "temperature": "a number",
    "mrl_weights": "a list of numbers or null",
    "distill_weight": "a number",
    "teacher": "a string or null",
    "model_config": "a string or null",
    "instructions": "a string or null",
    "p_doc": "a number",
}


def _plan_from_json(path: str) -> tuple[StagePlan, dict]:
    raw = td.read_json(path)
    td.check_fields(f"plan {path}", raw, PLAN_FIELDS, ("stage", "lr", "epochs", "batch_size", "mrl_dims", "seed", "data"))
    try:
        loss = LossConfig(
            mrl_dims=tuple(raw["mrl_dims"]),
            mrl_weights=None if raw.get("mrl_weights") is None else tuple(raw["mrl_weights"]),
            **{k: raw[k] for k in ("temperature", "distill_weight") if k in raw},
        )
        plan = StagePlan(
            stage=raw["stage"],
            learning_rate=raw["lr"],
            epochs=raw["epochs"],
            batch_size=raw["batch_size"],
            loss=loss,
            seed=raw["seed"],
        )
        if "p_doc" in raw and not 0 <= raw["p_doc"] <= 1:  # also true for NaN
            raise ValueError(f"p_doc must be in [0, 1], got {raw['p_doc']!r}")
        # A field the plan would accept and then ignore.
        for field in ("instructions", "p_doc"):
            if plan.stage == 1 and raw.get(field) is not None:
                raise ValueError(f"{field} applies to stage-2 plans only")
        if raw.get("teacher") is not None and loss.distill_weight == 0:
            raise ValueError("teacher is never used with distill_weight 0")
    except ValueError as e:
        raise UserError(f"plan {path}: {e}") from e
    return plan, raw


def _load_training_samples(plan: StagePlan, raw: dict) -> list[td.CanonicalSample]:
    samples: list[td.CanonicalSample] = []
    for path in raw["data"]:
        samples.extend(td.read_samples(path))
    if not samples:
        raise UserError("no training samples found")
    if plan.stage == 2:
        if not raw.get("instructions"):
            raise UserError("stage-2 plans need an instructions template file")
        templates = td.read_json(raw["instructions"])
        if not isinstance(templates, dict) or not all(isinstance(v, str) for v in templates.values()):
            raise UserError(f"instructions {raw['instructions']}: expected a JSON object of task type -> template string")
        samples = td.attach_instructions(samples, templates)
        rng = random.Random(plan.seed + 1)
        p_doc = {"p_doc": raw["p_doc"]} if "p_doc" in raw else {}  # else apply_instructions' default
        samples = [td.apply_instructions(s, 2, rng=rng, **p_doc) for s in samples]
    return samples


def cmd_train(args) -> int:
    plan, raw = _plan_from_json(args.plan)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    start_step = 0
    if args.resume:
        model = tm.load_checkpoint(args.resume)
        state_path = Path(args.resume) / "training_state.json"
        if state_path.exists():
            state = td.read_json(state_path)
            td.check_fields(str(state_path), state, {"step": "a non-negative integer"}, ("step",))
            start_step = state["step"]
    else:
        if not raw.get("model_config"):
            raise UserError("plan needs model_config (or pass --resume)")
        config = tm.ModelConfig.from_json(_resolve_config_path(raw["model_config"]))
        model = tm.init_model(config, plan.seed)
    if plan.loss.mrl_dims[-1] != model.config.hidden_size:
        raise UserError(f"plan {args.plan}: mrl_dims must end at the model's hidden size {model.config.hidden_size}")
    teacher = None if raw.get("teacher") is None else tm.load_checkpoint(raw["teacher"], trainable=False)
    samples = _load_training_samples(plan, raw)
    batches = td.epoch_batches(samples, plan.batch_size, random.Random(plan.seed), plan.epochs)
    run_plan = replace(plan, epochs=1)  # epoch reshuffling is baked into the batch list
    _, metrics = train_stage(model, batches, run_plan, teacher=teacher, start_step=start_step)
    write_metrics_csv(out / "metrics.csv", metrics)
    tm.save_checkpoint(model, out / "checkpoint")
    _write_json(out / "checkpoint" / "training_state.json", {"step": metrics[-1].step if metrics else start_step})
    print(f"trained {len(metrics)} steps; final loss {metrics[-1].total_loss:.6f}" if metrics else "no steps run")
    return 0


def cmd_prune(args) -> int:
    model = tm.load_checkpoint(args.checkpoint)
    samples = td.read_samples(args.calibration)
    rng = random.Random(args.seed)
    texts = [s.query for s in samples] + [s.positive for s in samples]
    if len(texts) > args.calib_size:
        texts = rng.sample(texts, args.calib_size)
    calib = [tokenize(t, model.config.max_seq_len) for t in texts]
    spec = PruneSpec(
        target_hidden=args.target_hidden,
        target_mlp=args.target_mlp,
        target_layers=args.target_layers,
        calibration=calib,
    )
    pruned, report = prune_model(model, spec, layer_strategy=args.layer_strategy)
    out = Path(args.out)
    tm.save_checkpoint(pruned, out / "checkpoint")
    _write_json(out / "prune_report.json", report)
    print(f"pruned to hidden={args.target_hidden} mlp={args.target_mlp} layers={args.target_layers} -> {out}")
    return 0


def cmd_eval(args) -> int:
    model = tm.load_checkpoint(args.checkpoint, trainable=False)
    tasks = ev.load_tasks(args.tasks)
    report = ev.evaluate(model, tasks, dim=args.dim)
    if args.out:
        ev.write_scores_csv(args.out, report)
    for s in report.scores:
        print(f"{s.name} ({s.kind}): {s.score:.4f}")
    if report.mean is not None:
        print(f"mean: {report.mean:.4f}")
    print(f"embed cache: {report.unique_texts} unique texts, {report.requests} requests, {report.cache_hits} hits")
    return 0


def cmd_sweep_mrl(args) -> int:
    model = tm.load_checkpoint(args.checkpoint, trainable=False)
    tasks = ev.load_tasks(args.tasks)
    rows = ev.mrl_sweep(model, tasks, args.dims)
    if args.out:
        ev.write_sweep_csv(args.out, rows)
    for d, score in rows:
        print(f"dim {d}: {score:.4f}")
    return 0


def cmd_param_count(args) -> int:
    config = tm.ModelConfig.from_json(_resolve_config_path(args.config))
    total = tm.param_count(config)
    emb = tm.embedding_param_count(config)
    print(f"embedding parameters:     {emb:,}")
    print(f"non-embedding parameters: {total - emb:,}")
    print(f"total parameters:         {total:,}")
    return 0


def cmd_ablate(args) -> int:
    teacher = tm.load_checkpoint(args.teacher, trainable=False)
    plan, raw = _plan_from_json(args.plan)
    if plan.loss.distill_weight <= 0:
        raise UserError("ablate needs distill_weight > 0 in the plan")
    samples = _load_training_samples(plan, raw)
    tasks = ev.load_tasks(args.tasks)
    rng = random.Random(plan.seed)
    texts = [s.query for s in samples] + [s.positive for s in samples]
    calib_texts = rng.sample(texts, min(args.calib_size, len(texts)))
    calib = [tokenize(t, teacher.config.max_seq_len) for t in calib_texts]
    spec = PruneSpec(args.target_hidden, args.target_mlp, args.target_layers, calib)
    pruned, _ = prune_model(teacher, spec)
    student_loss = replace(plan.loss, mrl_dims=tuple(d for d in plan.loss.mrl_dims if d <= args.target_hidden))
    if student_loss.mrl_dims[-1] != args.target_hidden:
        student_loss = replace(student_loss, mrl_dims=student_loss.mrl_dims + (args.target_hidden,))
    replicates = []
    wins = 0
    for r in range(args.replicates):
        arm_batches = td.epoch_batches(samples, plan.batch_size, random.Random(plan.seed + 1000 + r), plan.epochs)
        arm_plan = replace(plan, epochs=1, loss=student_loss)
        result = ev.ablation_distill(pruned, teacher, arm_batches, arm_plan, tasks)
        wins += result["delta"] > 0
        replicates.append(result)
        print(
            f"replicate {r}: with={result['with_distillation']:.4f} "
            f"without={result['without_distillation']:.4f} delta={result['delta']:+.4f}"
        )
    report = {"replicates": replicates, "positive_delta_count": wins, "replicate_count": args.replicates}
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        _write_json(Path(args.out) / "ablation.json", report)
    print(f"distillation improved {wins}/{args.replicates} replicates")
    return 0


def _count(minimum: int):
    """argparse type for a count flag: an integer >= minimum, so a bad value exits
    2 naming its flag before any work starts."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return count


def _int_list(text: str) -> list[int]:
    """argparse type for a comma-separated list of integers (empty entries skipped)."""
    try:
        return [int(d) for d in text.split(",") if d]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tinyembed", description="Desk-scale embedding-model training pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("consolidate", help="ingest raw JSONL into canonical contrastive samples")
    p.add_argument("--input", required=True, help="JSONL file or directory of *.jsonl")
    p.add_argument("--out", required=True)
    p.add_argument("--cap", type=_count(1), default=None, help="max samples per source")
    p.add_argument("--seed", type=int, default=0, help="seed for classed pairing and --cap sampling")
    p.set_defaults(fn=cmd_consolidate)

    p = sub.add_parser("stats", help="per-source/format/task-type counts of a canonical file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("mine", help="mine hard negatives with a checkpoint embedder")
    p.add_argument("--input", required=True, help="canonical JSONL")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--k", type=_count(1), required=True)
    p.add_argument("--skip-top", type=_count(0), default=1)
    p.add_argument("--mode", choices=("replace", "extend"), default="replace")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_mine)

    p = sub.add_parser("train", help="run one training stage from a plan file")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", default=None, help="checkpoint dir to continue from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("prune", help="structured pruning of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--calibration", required=True, help="canonical JSONL to draw calibration texts from")
    p.add_argument("--calib-size", type=_count(1), default=64)
    p.add_argument("--target-hidden", type=int, required=True)
    p.add_argument("--target-mlp", type=int, required=True)
    p.add_argument("--target-layers", type=int, required=True)
    p.add_argument("--layer-strategy", choices=("first_n", "norm_change"), default="first_n")
    p.add_argument("--seed", type=int, default=0, help="seed for calibration sampling")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser("eval", help="score a checkpoint on task files")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tasks", required=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--out", default=None, help="per-task CSV path")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep-mrl", help="evaluate at several truncation dimensions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tasks", required=True)
    p.add_argument("--dims", type=_int_list, required=True, help="comma-separated ascending dims, e.g. 8,16,32")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sweep_mrl)

    p = sub.add_parser("param-count", help="analytic parameter count for a config")
    p.add_argument("--config", required=True, help="path or shipped name (e.g. table1/0.6B.json)")
    p.set_defaults(fn=cmd_param_count)

    p = sub.add_parser("ablate", help="paired with/without-distillation training from a pruned teacher")
    p.add_argument("--teacher", required=True, help="teacher checkpoint dir")
    p.add_argument("--plan", required=True)
    p.add_argument("--tasks", required=True)
    p.add_argument("--target-hidden", type=int, required=True)
    p.add_argument("--target-mlp", type=int, required=True)
    p.add_argument("--target-layers", type=int, required=True)
    p.add_argument("--calib-size", type=_count(1), default=64)
    p.add_argument("--replicates", type=_count(1), default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_ablate)

    return parser


def _keep_freed_memory() -> None:
    """Keep memory freed by one step in the process for the next. No-op where
    the C library has no mallopt (it is glibc's); a library import never calls it."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in MALLOC_SETTINGS:
        mallopt(param, value)


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NonFiniteError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except (UserError, SchemaError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
