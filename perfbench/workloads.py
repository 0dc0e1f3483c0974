"""The three benchmark workloads: inputs made from a seed, and one cycle of
CLI subcommands run in-process against them.

Each workload writes only generated files (canonical JSONL, plan, model
config, task file, checkpoints); the program sees nothing else. A cycle is a
closed loop: one subcommand at a time, each started after the previous one
returned, from a single client.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import tinyembed.data as td
import tinyembed.evaluation as ev
import tinyembed.model as tm
import tinyembed.synthetic as syn
from tinyembed.pruning import PruneSpec, prune_model
from tinyembed.tokenizer import tokenize

import checks

# Acceptance teacher config (criteria 5 and 6).
TEACHER = dict(hidden_size=64, mlp_intermediate_size=256, num_layers=4, num_heads=4, num_kv_heads=2,
               head_dim=16, vocab_size=258, max_seq_len=48, rope_base=10000.0)
N_CLUSTERS = 350
BATCH = 16
SWEEP_DIMS = (8, 16, 32, 64)


@dataclass
class Op:
    """One subcommand the cycle ran: its exit code, output, timing and check failures."""

    argv: list[str]
    code: int
    stdout: str
    start: float  # perf_counter at the call and at its return
    end: float
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _save_teacher(path: Path, seed: int, max_seq_len: int) -> tm.EmbeddingModel:
    model = tm.init_model(tm.ModelConfig(**{**TEACHER, "max_seq_len": max_seq_len}), seed)
    tm.save_checkpoint(model, path)
    return model


class TrainWorkload:
    """`tinyembed train` from a plan: stage 1 from a fresh teacher-config model, or
    stage 2 resuming a pruned student with a teacher and instructions."""

    def __init__(self, name: str, stage: int, why: str):
        self.name, self.stage, self.why = name, stage, why

    def setup(self, root: Path, seed: int, run_cli) -> dict:
        root.mkdir(parents=True)
        if self.stage == 1:
            samples = syn.retrieval_training_samples(6 * BATCH, N_CLUSTERS, seed)
            _write_json(root / "model.json", TEACHER)
            plan = {"stage": 1, "lr": 3e-3, "epochs": 1, "batch_size": BATCH, "mrl_dims": list(SWEEP_DIMS),
                    "seed": seed, "model_config": str(root / "model.json")}
            resume = []
        else:
            samples = self._distill_samples(seed)
            # Room for the instruction prefix: no query or document is truncated.
            teacher = _save_teacher(root / "teacher", seed, max_seq_len=96)
            calib = [tokenize(s.query, 96) for s in samples[:16]]
            student, _ = prune_model(teacher, PruneSpec(32, 128, 2, calib))
            tm.save_checkpoint(student, root / "student")
            _write_json(root / "instructions.json", {
                "qa": "Given a question, retrieve passages that answer it",
                "clustering": "Identify the topic or theme of the given text",
            })
            plan = {"stage": 2, "lr": 1e-3, "epochs": 2, "batch_size": BATCH, "mrl_dims": [8, 16, 32],
                    "seed": seed, "teacher": str(root / "teacher"), "distill_weight": 1.0,
                    "instructions": str(root / "instructions.json")}
            resume = ["--resume", str(root / "student")]
        td.write_samples(root / "canonical.jsonl", samples)
        plan["data"] = [str(root / "canonical.jsonl")]
        _write_json(root / "plan.json", plan)
        # Every group holds whole batches, so the planned step count is exact.
        steps = plan["epochs"] * len(samples) // BATCH
        return {
            "root": root,
            "train_argv": ["train", "--plan", str(root / "plan.json"), "--out", str(root / "run")] + resume,
            "steps": steps,
            "texts": plan["epochs"] * sum(2 + len(s.negatives) for s in samples),
            "hidden": 64 if self.stage == 1 else 32,
            "first": None,
        }

    @staticmethod
    def _distill_samples(seed: int) -> list[td.CanonicalSample]:
        """Retrieval samples with three family-scoped negatives, plus Clustering-format
        samples (explicit negatives only, symmetric, longer texts)."""
        # Retrieval documents are longer than the Clustering texts so both batch
        # kinds hold about as many tokens: a train step's peak memory then does not
        # hinge on the seed's batch order (two long steps in a row).
        retrieval = syn.retrieval_training_samples(BATCH, N_CLUSTERS, seed, n_negatives=3, query_words=6,
                                                   doc_words=10, negative_scope="family")
        clustered = syn.retrieval_training_samples(BATCH, N_CLUSTERS, seed + 7, source="toy-cluster",
                                                   n_negatives=3, query_words=6, doc_words=8,
                                                   negative_scope="family")
        clustered = [replace(s, format=td.CLUSTERING, task_type="clustering", symmetric=True) for s in clustered]
        return retrieval + clustered

    def cycle(self, ctx: dict, run_cli) -> list[Op]:
        out = ctx["root"] / "run"
        op = run_cli(ctx["train_argv"])
        if op.code == 0:
            op.problems = checks.check_train(out, ctx["steps"], ctx["hidden"])
            if not op.problems:
                fingerprint = checks.train_fingerprint(out)
                if ctx["first"] is None:
                    ctx["first"] = fingerprint
                    ctx["loss_final"] = checks.final_loss(out)
                elif fingerprint != ctx["first"]:
                    op.problems.append("train: rerun of the same plan is not byte-identical")
        return [op]


class InferWorkload:
    """mine -> prune -> eval -> sweep-mrl against a teacher-config checkpoint."""

    name = "infer_pipeline"
    why = ("read-only half of the pipeline (no gradients): no-grad forward, eval caches, "
           "ranking and scoring, calibration norms, checkpoint and JSONL io")
    n_samples, k, calib_size = 200, 4, 128

    def setup(self, root: Path, seed: int, run_cli) -> dict:
        root.mkdir(parents=True)
        (root / "raw").mkdir()
        samples = syn.retrieval_training_samples(self.n_samples, N_CLUSTERS, seed)
        # Distinct positives, so "never its own positive" is decidable from the text.
        samples = list({s.positive: s for s in samples}.values())
        with open(root / "raw" / "retrieval.jsonl", "w") as f:
            for s in samples:
                f.write(json.dumps({"query": s.query, "pos": s.positive, "negs": [], "source": s.source,
                                    "task_type": s.task_type}) + "\n")
        op = run_cli(["consolidate", "--input", str(root / "raw"), "--out", str(root / "data"),
                      "--seed", str(seed)])
        if op.code != 0:
            raise RuntimeError(f"set-up consolidate exited {op.code}")
        _save_teacher(root / "teacher", seed, max_seq_len=TEACHER["max_seq_len"])
        tasks = [
            syn.retrieval_eval_task("retrieval", 100, N_CLUSTERS, seed, docs_per_cluster=1),
            syn.sts_eval_task("sts", 50, seed + 1),
            syn.pair_classification_eval_task("pairs", 50, 40, seed + 2),
        ]
        ev.save_tasks(root / "tasks.json", tasks)
        n = len(td.read_samples(root / "data" / "canonical.jsonl"))
        unique = len({t for task in tasks for t in task.texts()})
        # Texts embedded per cycle: mine embeds corpus and queries, prune its
        # calibration sequences, eval and sweep-mrl each unique task text once.
        return {"root": root, "tasks": tasks, "seed": seed,
                "texts": 2 * n + min(self.calib_size, 2 * n) + 2 * unique}

    def cycle(self, ctx: dict, run_cli) -> list[Op]:
        root = ctx["root"]
        canonical, teacher = root / "data" / "canonical.jsonl", root / "teacher"
        ops = []

        op = run_cli(["mine", "--input", str(canonical), "--checkpoint", str(teacher), "--k", str(self.k),
                      "--out", str(root / "mined.jsonl")])
        if op.code == 0:
            op.problems = checks.check_mine(canonical, root / "mined.jsonl", self.k)
        ops.append(op)

        op = run_cli(["prune", "--checkpoint", str(teacher), "--calibration", str(canonical),
                      "--calib-size", str(self.calib_size), "--target-hidden", "32", "--target-mlp", "128",
                      "--target-layers", "2", "--seed", str(ctx["seed"]), "--out", str(root / "pruned")])
        if op.code == 0:
            op.problems = checks.check_prune(teacher, root / "pruned", canonical)
        ops.append(op)

        op = run_cli(["eval", "--checkpoint", str(teacher), "--tasks", str(root / "tasks.json"),
                      "--out", str(root / "scores.csv")])
        if op.code == 0:
            op.problems, ctx["score"] = checks.check_eval(op.stdout, root / "scores.csv", ctx["tasks"])
        ops.append(op)

        dims = ",".join(str(d) for d in SWEEP_DIMS)
        op = run_cli(["sweep-mrl", "--checkpoint", str(teacher), "--tasks", str(root / "tasks.json"),
                      "--dims", dims, "--out", str(root / "sweep.csv")])
        if op.code == 0:
            op.problems = checks.check_sweep(root / "sweep.csv", SWEEP_DIMS)
        ops.append(op)
        return ops


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload("train_inbatch", 1, "stage-1 train at the teacher config with in-batch negatives only: "
                      "student forward with gradients and autodiff backward carry the time"),
        TrainWorkload("train_distill", 2, "stage-2 train of a pruned student with instructions, explicit "
                      "negatives and a teacher: long ragged inputs, masked InfoNCE, teacher cache"),
        InferWorkload(),
    )
}
