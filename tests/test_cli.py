"""End-to-end CLI behavior: schemas, exit codes, pipeline smoke, determinism."""

import json
import os
import platform
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import tinyembed
from tinyembed import cli
from tinyembed import evaluation as ev
from tinyembed import synthetic as syn
from tinyembed.cli import main
from tinyembed.data import epoch_batches, read_samples
from tinyembed.model import ModelConfig, init_model, load_checkpoint, save_checkpoint
from tinyembed.training import LossConfig, StagePlan


def write_raw_inputs(dirpath: Path) -> int:
    dirpath.mkdir(parents=True, exist_ok=True)
    retrieval = [
        {"query": f"q{i}", "pos": f"d{i}", "negs": [], "source": "ret-src", "task_type": "qa"}
        for i in range(6)
    ]
    binary = [
        {"text": f"t{i}", "label": "pos", "labels": ["pos", "neg"], "source": "bin-src", "task_type": "sentiment"}
        for i in range(4)
    ]
    classed = [
        {"text": f"x{i}", "class": "A", "source": "cls-src", "task_type": "clustering"} for i in range(3)
    ] + [{"text": f"y{i}", "class": "B", "source": "cls-src", "task_type": "clustering"} for i in range(2)]
    with open(dirpath / "retrieval.jsonl", "w") as f:
        f.writelines(json.dumps(r) + "\n" for r in retrieval)
    with open(dirpath / "binary.jsonl", "w") as f:
        f.writelines(json.dumps(r) + "\n" for r in binary)
    with open(dirpath / "classed.jsonl", "w") as f:
        f.writelines(json.dumps(r) + "\n" for r in classed)
    return 6 + 4 + 5  # classed: every anchor has a same-class partner and another class


def tiny_model_config(tmp_path: Path) -> Path:
    cfg = {
        "hidden_size": 16, "mlp_intermediate_size": 24, "num_layers": 1, "num_heads": 2,
        "num_kv_heads": 1, "head_dim": 4, "vocab_size": 258, "max_seq_len": 32, "rope_base": 10000.0,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    return path


def write_plan(tmp_path: Path, data_paths, **overrides) -> Path:
    plan = {
        "stage": 1, "lr": 1e-3, "epochs": 1, "batch_size": 4, "temperature": 0.05,
        "mrl_dims": [8, 16], "distill_weight": 1.0, "teacher": None, "seed": 3,
        "data": [str(p) for p in data_paths], "model_config": str(tiny_model_config(tmp_path)),
    }
    plan.update(overrides)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return path


def write_toy_canonical(tmp_path: Path, n=12, n_clusters=4, seed=0) -> Path:
    from tinyembed.data import write_samples

    samples = syn.retrieval_training_samples(n, n_clusters, seed=seed)
    path = tmp_path / "canonical.jsonl"
    write_samples(path, samples)
    return path


def write_tasks(tmp_path: Path) -> Path:
    tasks = [syn.retrieval_eval_task("ret", n_queries=4, n_clusters=4, seed=1)]
    path = tmp_path / "tasks.json"
    ev.save_tasks(path, tasks)
    return path


# --- consolidate / stats -------------------------------------------------------


def test_consolidate_three_schemas(tmp_path, capsys):
    expected = write_raw_inputs(tmp_path / "raw")
    assert main(["consolidate", "--input", str(tmp_path / "raw"), "--out", str(tmp_path / "out")]) == 0
    samples = read_samples(tmp_path / "out" / "canonical.jsonl")
    assert len(samples) == expected
    stats = json.loads((tmp_path / "out" / "stats.json").read_text())
    assert stats["total"] == expected
    assert stats["by_format"] == {"Clustering": 5, "PairClassification": 4, "Retrieval": 6}


def test_consolidate_cap_applies(tmp_path):
    write_raw_inputs(tmp_path / "raw")
    assert main(["consolidate", "--input", str(tmp_path / "raw"), "--out", str(tmp_path / "out"), "--cap", "2"]) == 0
    stats = json.loads((tmp_path / "out" / "stats.json").read_text())
    assert all(v <= 2 for v in stats["by_source"].values())


def test_consolidate_malformed_record_exit_2(tmp_path, capsys):
    good = '{"query": "q", "pos": "d", "source": "s", "task_type": "qa"}\n'
    cases = (
        ("retrieval", '{"query": "q2"}'),
        ("classed", '{"class": "y"}'),
        ("negs", '{"query": "q", "pos": "d", "negs": "abc", "source": "s", "task_type": "qa"}'),
        ("pos", '{"query": "q", "pos": 7, "source": "s", "task_type": "qa"}'),
        ("symmetric", '{"query": "q", "pos": "d", "symmetric": "yes", "source": "s", "task_type": "qa"}'),
        ("labels", '{"text": "t", "label": "a", "labels": ["a", 1], "source": "s", "task_type": "qa"}'),
        ("class", '{"text": "t", "class": 3, "source": "s", "task_type": "qa"}'),
        ("classes", '{"anchor": "x", "classes": {"A": "x y"}, "source": "s", "task_type": "qa"}'),
    )
    for name, bad in cases:
        raw = tmp_path / name
        raw.mkdir()
        (raw / "bad.jsonl").write_text(good + bad + "\n")
        assert main(["consolidate", "--input", str(raw), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "bad.jsonl:2" in err and name in err


def test_consolidate_empty_input_ok(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "empty.jsonl").write_text("")
    assert main(["consolidate", "--input", str(raw), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "canonical.jsonl").read_text() == ""


def test_stats_command(tmp_path, capsys):
    path = write_toy_canonical(tmp_path)
    assert main(["stats", "--input", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total"] == 12


CANONICAL = {"format": "Retrieval", "query": "q", "positive": "p", "negatives": [], "source": "s",
             "task_type": "qa", "symmetric": False}


@pytest.mark.parametrize("bad", [
    {k: v for k, v in CANONICAL.items() if k != "positive"},
    {**CANONICAL, "format": "Nope"},
    {**CANONICAL, "format": "Clustering"},
    {**CANONICAL, "negatives": "abc"},
    {**CANONICAL, "symmetric": "false"},
    {**CANONICAL, "query": 5},
    {**CANONICAL, "label": 1},
], ids=["missing-positive", "unknown-format", "clustering-without-negatives", "negatives-string",
        "symmetric-string", "query-number", "unknown-field"])
def test_stats_bad_canonical_record_exit_2(tmp_path, capsys, bad):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(CANONICAL) + "\n" + json.dumps(bad) + "\n")
    assert main(["stats", "--input", str(path)]) == 2
    assert "bad.jsonl:2" in capsys.readouterr().err


def test_no_flag_is_accepted_and_ignored():
    import argparse

    from tinyembed.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: {s for a in p._actions for s in a.option_strings} for name, p in sub.choices.items()}
    assert len(flags) == 9
    assert {name for name, opts in flags.items() if "--seed" in opts} == {"consolidate", "prune"}
    assert not any("--threads" in opts for opts in flags.values())
    for argv in (["stats", "--input", "x", "--seed", "1"], ["eval", "--checkpoint", "c", "--tasks", "t", "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# --- train / resume ------------------------------------------------------------


def test_train_writes_loadable_checkpoint(tmp_path):
    data = write_toy_canonical(tmp_path)
    plan = write_plan(tmp_path, [data])
    assert main(["train", "--plan", str(plan), "--out", str(tmp_path / "run")]) == 0
    model = load_checkpoint(tmp_path / "run" / "checkpoint")
    assert model.config.hidden_size == 16
    metrics = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "step,total_loss,contrastive_loss,distill_loss"
    assert len(metrics) == 4  # 12 samples / batch 4 = 3 steps + header


def test_train_resume_continues_step_numbering(tmp_path):
    data = write_toy_canonical(tmp_path)
    plan = write_plan(tmp_path, [data])
    assert main(["train", "--plan", str(plan), "--out", str(tmp_path / "run1")]) == 0
    plan = write_plan(tmp_path, [data], model_config=None)
    assert main([
        "train", "--plan", str(plan), "--out", str(tmp_path / "run2"),
        "--resume", str(tmp_path / "run1" / "checkpoint"),
    ]) == 0
    rows = (tmp_path / "run2" / "metrics.csv").read_text().splitlines()[1:]
    assert rows[0].startswith("4,")  # first run ended at step 3


@pytest.mark.parametrize("state, field", [({}, "missing fields: step"), ({"step": "7"}, "field 'step'"), ({"step": -1}, "field 'step'")])
def test_train_resume_malformed_training_state_exit_2(tmp_path, capsys, state, field):
    data = write_toy_canonical(tmp_path)
    plan = write_plan(tmp_path, [data])
    assert main(["train", "--plan", str(plan), "--out", str(tmp_path / "run1")]) == 0
    state_path = tmp_path / "run1" / "checkpoint" / "training_state.json"
    state_path.write_text(json.dumps(state))
    plan = write_plan(tmp_path, [data], model_config=None)
    capsys.readouterr()
    code = main(["train", "--plan", str(plan), "--out", str(tmp_path / "run2"), "--resume", str(state_path.parent)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(state_path) in err and field in err, err


def test_train_missing_teacher_exit_2(tmp_path, capsys):
    data = write_toy_canonical(tmp_path)
    plan = write_plan(tmp_path, [data], teacher=str(tmp_path / "missing-ckpt"))
    assert main(["train", "--plan", str(plan), "--out", str(tmp_path / "run")]) == 2


def test_train_plan_missing_fields_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad-plan.json"
    bad.write_text(json.dumps({"stage": 1}))
    assert main(["train", "--plan", str(bad), "--out", str(tmp_path / "run")]) == 2
    assert "missing fields" in capsys.readouterr().err


@pytest.mark.parametrize("override, field", [
    ({"lr": "0.001"}, "lr"),
    ({"lr": float("nan")}, "lr"),
    ({"lr": float("inf")}, "lr"),
    ({"lr": -1e-3}, "lr"),
    ({"mrl_dims": 8}, "mrl_dims"),
    ({"epochs": True}, "epochs"),
    ({"data": "canonical.jsonl"}, "data"),
    ({"temprature": 0.05}, "temprature"),
    ({"batch_size": 1}, "batch_size"),
    ({"temperature": float("nan")}, "temperature"),
    ({"temperature": float("inf")}, "temperature"),
    ({"distill_weight": float("nan")}, "distill_weight"),
    ({"distill_weight": float("inf")}, "distill_weight"),
    ({"mrl_weights": [1.0, float("nan")]}, "mrl_weights"),
    ({"mrl_weights": [float("inf"), 1.0]}, "mrl_weights"),
    ({"mrl_weights": []}, "mrl_weights"),
    ({"p_doc": 1.5}, "p_doc"),
    ({"p_doc": -0.1}, "p_doc"),
    ({"p_doc": float("nan")}, "p_doc"),
    ({"mrl_dims": [8]}, "mrl_dims"),  # the tiny model's hidden size is 16
    # Fields a plan would otherwise accept and ignore.
    ({"instructions": "nope.json"}, "instructions"),
    ({"p_doc": 0.5}, "p_doc"),
    ({"teacher": "missing-ckpt", "distill_weight": 0}, "teacher"),
])
def test_train_malformed_plan_field_exit_2(tmp_path, capsys, override, field):
    # Rejected before any step runs, naming the plan file and the field.
    plan = write_plan(tmp_path, [write_toy_canonical(tmp_path)], **override)
    assert main(["train", "--plan", str(plan), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert str(plan) in err and field in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, override, named", [
    ("train", {}, "{plan}: model_config"),
    ("ablate", {}, "{plan}: model_config"),
    ("ablate", {"model_config": None, "teacher": None}, "{plan}: ablate needs a teacher"),
    ("ablate", {"model_config": None, "teacher": "/nonexistent-teacher"}, "/nonexistent-teacher/config.json"),
], ids=["train-resume-model-config", "ablate-model-config", "ablate-no-teacher", "ablate-missing-teacher"])
def test_plan_beside_a_start_checkpoint_exit_2(tmp_path, capsys, command, override, named):
    # The model is the start checkpoint's, and ablate's teacher is the plan's: a
    # plan field the run would ignore, or a teacher it cannot load, exits 2.
    ckpt = tmp_path / "ckpt"
    save_checkpoint(init_model(ModelConfig.from_json(tiny_model_config(tmp_path)), seed=0), ckpt)
    teacher = {"teacher": str(ckpt)} if command == "ablate" else {}
    plan = write_plan(tmp_path, [write_toy_canonical(tmp_path)], **{**teacher, **override})
    out = tmp_path / "run"
    argv = {
        "train": ["train", "--plan", str(plan), "--resume", str(ckpt), "--out", str(out)],
        "ablate": ["ablate", "--plan", str(plan), "--checkpoint", str(ckpt), "--tasks", str(write_tasks(tmp_path)),
                   "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert named.format(plan=plan) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("change, field", [
    ({"hidden_sizes": 16}, "hidden_sizes"),
    ({"num_heads": "2"}, "num_heads"),
    ({"rope_base": "1e4"}, "rope_base"),
    ({"vocab_size": None}, "vocab_size"),
    ({"head_dim": 3}, "head_dim"),
    ({"rope_base": -1}, "rope_base"),
    ({"rope_base": 0}, "rope_base"),
    ({"rope_base": float("inf")}, "rope_base"),
])
def test_malformed_model_config_exit_2(tmp_path, capsys, change, field):
    # The same check on the three ways in: param-count, a plan's model_config, a checkpoint.
    good = json.loads(tiny_model_config(tmp_path).read_text())
    bad = {k: v for k, v in {**good, **change}.items() if v is not None}
    cfg = tmp_path / "bad-model.json"
    cfg.write_text(json.dumps(bad))
    plan = write_plan(tmp_path, [write_toy_canonical(tmp_path)], model_config=str(cfg))
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    (ckpt / "config.json").write_text(json.dumps(bad))
    tasks = write_tasks(tmp_path)
    for argv, path in (
        (["param-count", "--config", str(cfg)], cfg),
        (["train", "--plan", str(plan), "--out", str(tmp_path / "run")], cfg),
        (["eval", "--checkpoint", str(ckpt), "--tasks", str(tasks)], ckpt / "config.json"),
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert str(path) in err and field in err, err


def _drop_offset(manifest):
    del manifest[0]["offset"]
    return manifest


def _shape_five(manifest):
    manifest[0]["shape"] = 5
    return manifest


def _second_offset_zero(manifest):
    manifest[1]["offset"] = 0
    return manifest


@pytest.mark.parametrize("corrupt, message", [
    (_drop_offset, "entry 0: missing fields: offset"),
    (lambda manifest: {"params": manifest}, "expected a JSON list of parameter entries, got dict"),
    (_shape_five, "entry 0: field 'shape' must be a list of integers"),
    (_second_offset_zero, "entry 1 (layers.0.attn_norm) has offset 0, expected"),
], ids=["no-offset", "object", "shape-int", "overlapping-offset"])
def test_malformed_checkpoint_manifest_exit_2(tmp_path, capsys, corrupt, message):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(init_model(ModelConfig.from_json(tiny_model_config(tmp_path)), seed=0), ckpt)
    path = ckpt / "manifest.json"
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--tasks", str(write_tasks(tmp_path))]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and message in err, err


@pytest.mark.parametrize("change, message", [
    ({"foo": 1}, "unknown field 'foo'"),
    ({"k": "10"}, "field 'k' must be an integer"),
    ({"relevance": [{"0": 1.0}]}, "relevance set per query"),
    ({"relevance": [1, 2, 3, 4]}, "field 'relevance' must be a list of objects"),
    ({"relevance": [{"0": 0.0}] * 4}, "query 0: gains must be finite, >= 0 and not all 0"),
    ({"relevance": [{"1": 1.0}, {"9999": 1.0}, {"1": 1.0}, {"1": 1.0}]}, "query 1: document 9999 is outside the corpus"),
    ({"k": 0}, "k must be >= 1"),
])
def test_eval_malformed_task_exit_2(trained_run, capsys, change, message):
    tmp_path, _ = trained_run
    task = json.loads(write_tasks(tmp_path).read_text())[0]
    tasks = tmp_path / "bad-tasks.json"
    tasks.write_text(json.dumps([{**task, **change}]))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint"), "--tasks", str(tasks)]) == 2
    err = capsys.readouterr().err
    assert f"{tasks}: task 0 ('ret')" in err and message in err, err


@pytest.mark.parametrize("task, message", [
    ({"kind": "STS", "pairs": [["a", "b"]], "gold": [0.5]}, "sts task needs at least 2 pairs"),
    ({"kind": "STS", "pairs": [["a", "b"], ["a", "c"]], "gold": [0.5, 0.5]}, "gold scores that are not all equal"),
    ({"kind": "PairClassification", "pairs": [["a", "b"]], "labels": [1]}, "pair task needs at least 2 pairs"),
    ({"kind": "PairClassification", "pairs": [["a", "b"], ["a", "c"]], "labels": [0, 0]}, "both labels 0 and 1"),
], ids=["sts-one-pair", "sts-equal-gold", "pair-one-pair", "pair-one-label"])
def test_eval_degenerate_task_exit_2(tmp_path, capsys, task, message):
    # Rejected when the file loads, naming file and task, before anything is embedded.
    ckpt = tmp_path / "ckpt"
    save_checkpoint(init_model(ModelConfig.from_json(tiny_model_config(tmp_path)), seed=0), ckpt)
    tasks = tmp_path / "degenerate-tasks.json"
    tasks.write_text(json.dumps([{"name": "flat", **task}]))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--tasks", str(tasks)]) == 2
    err = capsys.readouterr().err
    assert f"{tasks}: task 0 ('flat')" in err and message in err, err


def _reading(tmp_path, data, command, kind):
    """(argv, the file argv reads as kind) beside the trained run's checkpoint."""
    ckpt, out, bad = tmp_path / "run" / "checkpoint", str(tmp_path / "out"), tmp_path / f"bad-{kind}"
    train = lambda data=data, **plan: ["train", "--plan", str(write_plan(tmp_path, [data], **plan)), "--out", out]
    resume = lambda: train(model_config=None) + ["--resume", str(ckpt)]
    evaluate = lambda tasks: ["eval", "--checkpoint", str(ckpt), "--tasks", str(tasks)]
    return {
        ("consolidate", "raw"): lambda: (["consolidate", "--input", str(bad), "--out", out], bad),
        ("train", "plan"): lambda: (train(), tmp_path / "plan.json"),
        ("train", "canonical"): lambda: (train(data=bad), bad),
        ("train", "instructions"): lambda: (train(stage=2, instructions=str(bad)), bad),
        ("train", "model config"): lambda: (train(model_config=str(bad)), bad),
        ("train", "training state"): lambda: (resume(), ckpt / "training_state.json"),
        ("train", "resume weights"): lambda: (resume(), ckpt / "weights.bin"),
        ("eval", "tasks"): lambda: (evaluate(bad), bad),
        ("eval", "checkpoint config"): lambda: (evaluate(write_tasks(tmp_path)), ckpt / "config.json"),
        ("eval", "manifest"): lambda: (evaluate(write_tasks(tmp_path)), ckpt / "manifest.json"),
        ("eval", "weights"): lambda: (evaluate(write_tasks(tmp_path)), ckpt / "weights.bin"),
        ("prune", "calibration"): lambda: ([
            "prune", "--checkpoint", str(ckpt), "--calibration", str(bad),
            "--target-hidden", "8", "--target-mlp", "8", "--target-layers", "1", "--out", out,
        ], bad),
    }[command, kind]()


@pytest.mark.parametrize("command, kind, fault", [
    (command, kind, fault)
    for command, kind in [
        ("consolidate", "raw"), ("train", "plan"), ("train", "canonical"), ("train", "instructions"),
        ("train", "model config"), ("train", "training state"), ("eval", "tasks"), ("eval", "checkpoint config"),
        ("eval", "manifest"), ("prune", "calibration"),
    ]
    for fault in ["invalid JSON", "not UTF-8"]
] + [
    # weights.bin is binary: it is cut short or missing, not unparsable text.
    (command, kind, fault) for command, kind in [("eval", "weights"), ("train", "resume weights")]
    for fault in ["truncated", "missing"]
] + [
    # A JSONL line that parses but is not a record.
    (command, kind, "not an object") for command, kind in [("consolidate", "raw"), ("train", "canonical"), ("prune", "calibration")]
])
def test_an_input_file_that_does_not_parse_exits_2_naming_it(trained_run, capsys, command, kind, fault):
    tmp_path, data = trained_run
    argv, path = _reading(tmp_path, data, command, kind)
    jsonl = kind in ("raw", "canonical", "calibration")
    if fault == "truncated":
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-3])
    elif fault == "missing":
        path.unlink()
    elif fault == "not UTF-8":
        path.write_bytes(b'{"text": "\xff"}\n')
    elif fault == "not an object":
        path.write_text("5\n")
    elif jsonl:
        path.write_text('{"text": "t"}\n{"text": \n')  # line 2 is cut short
    else:
        path.write_text('{\n  "a": 1,\n  b\n}\n')  # line 3 holds a bare name
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    if fault == "truncated":
        assert f"{path} has {size - 3} bytes, {path.parent / 'manifest.json'} implies {size}" in err, err
    elif fault == "missing":
        assert f"No such file or directory: '{path}'" in err, err
    elif fault == "not UTF-8":
        assert f"{path}: 'utf-8' codec can't decode" in err, err
    elif fault == "not an object":
        assert f"{path}:1: expected a JSON object, got int" in err, err
    else:
        assert f"{path}:{2 if jsonl else 3}: invalid JSON" in err, err


def test_train_determinism_byte_identical(tmp_path):
    data = write_toy_canonical(tmp_path)
    plan = write_plan(tmp_path, [data])
    assert main(["train", "--plan", str(plan), "--out", str(tmp_path / "a")]) == 0
    assert main(["train", "--plan", str(plan), "--out", str(tmp_path / "b")]) == 0
    for rel in ("metrics.csv", "checkpoint/weights.bin", "checkpoint/manifest.json", "checkpoint/config.json"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


@pytest.mark.parametrize("templates", [["x"], 5, "x", {"qa": 5}, {"qa": None}],
                         ids=["list", "number", "string", "number-value", "null-value"])
def test_train_instructions_not_an_object_of_strings_exit_2(tmp_path, capsys, templates):
    instructions = tmp_path / "instructions.json"
    instructions.write_text(json.dumps(templates))
    plan = write_plan(tmp_path, [write_toy_canonical(tmp_path)], stage=2, instructions=str(instructions))
    assert main(["train", "--plan", str(plan), "--out", str(tmp_path / "run")]) == 2
    assert str(instructions) in capsys.readouterr().err


def test_train_teacher_non_finite_exit_3(tmp_path, capsys, monkeypatch):
    import numpy as np

    monkeypatch.setattr(tinyembed.model, "_cpu_count", lambda: 2)
    data = write_toy_canonical(tmp_path)
    assert main(["train", "--plan", str(write_plan(tmp_path, [data])), "--out", str(tmp_path / "teacher")]) == 0
    ckpt = tmp_path / "teacher" / "checkpoint"
    n_floats = len((ckpt / "weights.bin").read_bytes()) // 4
    (ckpt / "weights.bin").write_bytes(np.full(n_floats, np.nan, dtype="<f4").tobytes())
    plan = write_plan(tmp_path, [data], teacher=str(ckpt))
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert main(["train", "--plan", str(plan), "--out", str(tmp_path / "run")]) == 3
    assert "numeric failure: non-finite loss at step 1" in capsys.readouterr().err


# --- prune / eval / sweep --------------------------------------------------------


@pytest.fixture()
def trained_run(tmp_path):
    data = write_toy_canonical(tmp_path)
    plan = write_plan(tmp_path, [data])
    assert main(["train", "--plan", str(plan), "--out", str(tmp_path / "run")]) == 0
    return tmp_path, data


def test_prune_then_eval_pipeline(trained_run):
    tmp_path, data = trained_run
    ckpt = tmp_path / "run" / "checkpoint"
    assert main([
        "prune", "--checkpoint", str(ckpt), "--calibration", str(data), "--calib-size", "8",
        "--target-hidden", "8", "--target-mlp", "12", "--target-layers", "1",
        "--out", str(tmp_path / "pruned"),
    ]) == 0
    report = json.loads((tmp_path / "pruned" / "prune_report.json").read_text())
    assert len(report["kept_hidden"]) == 8
    tasks = write_tasks(tmp_path)
    assert main([
        "eval", "--checkpoint", str(tmp_path / "pruned" / "checkpoint"),
        "--tasks", str(tasks), "--out", str(tmp_path / "scores.csv"),
    ]) == 0
    lines = (tmp_path / "scores.csv").read_text().splitlines()
    assert lines[0] == "task,kind,score" and len(lines) == 2


def test_sweep_mrl_two_rows(trained_run):
    tmp_path, _ = trained_run
    tasks = write_tasks(tmp_path)
    assert main([
        "sweep-mrl", "--checkpoint", str(tmp_path / "run" / "checkpoint"),
        "--tasks", str(tasks), "--dims", "8,16", "--out", str(tmp_path / "sweep.csv"),
    ]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "dim,mean_score" and len(lines) == 3


@pytest.mark.parametrize("dims", ["", ","])
def test_sweep_mrl_empty_dims_exit_2(trained_run, capsys, dims):
    tmp_path, _ = trained_run
    tasks = write_tasks(tmp_path)
    capsys.readouterr()
    assert main(["sweep-mrl", "--checkpoint", str(tmp_path / "run" / "checkpoint"), "--tasks", str(tasks), "--dims", dims]) == 2
    assert "at least one dim" in capsys.readouterr().err


def test_eval_dim_out_of_range_exit_2(trained_run, capsys):
    tmp_path, _ = trained_run
    tasks = write_tasks(tmp_path)
    assert main([
        "eval", "--checkpoint", str(tmp_path / "run" / "checkpoint"),
        "--tasks", str(tasks), "--dim", "4096",
    ]) == 2


def test_eval_prints_cache_counts(trained_run, capsys):
    tmp_path, _ = trained_run
    tasks = [
        ev.EvalTask(kind="STS", name="sts", pairs=[("a", "b"), ("a", "b"), ("a", "c")], gold=[0.1, 0.2, 0.3]),
        ev.EvalTask(kind="PairClassification", name="pc", pairs=[("a", "d"), ("e", "b")], labels=[0, 1]),
    ]
    ev.save_tasks(tmp_path / "dup_tasks.json", tasks)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                 "--tasks", str(tmp_path / "dup_tasks.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "embed cache: 5 unique texts, 10 requests, 5 hits"
    assert sum(line.startswith("mean:") for line in lines) == 1


def test_eval_non_finite_in_a_chunk_thread_exit_3(trained_run, capsys, monkeypatch):
    import numpy as np

    monkeypatch.setattr(tinyembed.model, "_cpu_count", lambda: 2)
    tmp_path, _ = trained_run
    ckpt = tmp_path / "run" / "checkpoint"
    n_floats = len((ckpt / "weights.bin").read_bytes()) // 4
    (ckpt / "weights.bin").write_bytes(np.full(n_floats, np.nan, dtype="<f4").tobytes())
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert main(["eval", "--checkpoint", str(ckpt), "--tasks", str(write_tasks(tmp_path))]) == 3
    assert "numeric failure: primitive" in capsys.readouterr().err


# --- mine -----------------------------------------------------------------------


def test_mine_command(trained_run):
    tmp_path, data = trained_run
    assert main([
        "mine", "--input", str(data), "--checkpoint", str(tmp_path / "run" / "checkpoint"),
        "--k", "2", "--out", str(tmp_path / "mined.jsonl"),
    ]) == 0
    mined = read_samples(tmp_path / "mined.jsonl")
    assert all(len(s.negatives) == 2 for s in mined)
    for s in mined:
        assert s.positive not in s.negatives


def test_mine_prints_the_negatives_each_sample_got(trained_run, capsys):
    # The 12-text corpus holds 10 or 11 candidates per query (its own positive and
    # the top rank are skipped), so --k 100 cannot be met; --k 2 can.
    tmp_path, data = trained_run
    ckpt, out = str(tmp_path / "run" / "checkpoint"), tmp_path / "mined.jsonl"
    for k, counts, got in (("2", [2], "2"), ("100", [10, 11], "10-11")):
        capsys.readouterr()
        assert main(["mine", "--input", str(data), "--checkpoint", ckpt, "--k", k, "--out", str(out)]) == 0
        assert sorted({len(s.negatives) for s in read_samples(out)}) == counts
        assert capsys.readouterr().out == f"mined {got} negatives for 12 samples -> {out}\n"


def test_train_non_finite_exit_3(tmp_path, capsys):
    import numpy as np

    data = write_toy_canonical(tmp_path)
    plan = write_plan(tmp_path, [data])
    assert main(["train", "--plan", str(plan), "--out", str(tmp_path / "run")]) == 0
    ckpt = tmp_path / "run" / "checkpoint"
    n_floats = len((ckpt / "weights.bin").read_bytes()) // 4
    (ckpt / "weights.bin").write_bytes(np.full(n_floats, np.nan, dtype="<f4").tobytes())
    plan = write_plan(tmp_path, [data], model_config=None)
    with np.errstate(all="ignore"):
        code = main(["train", "--plan", str(plan), "--out", str(tmp_path / "run2"), "--resume", str(ckpt)])
    assert code == 3
    assert "step" in capsys.readouterr().err
    assert not (tmp_path / "run2").exists()


# --- param-count ------------------------------------------------------------------


def test_param_count_table1_within_2pct(capsys):
    assert main(["param-count", "--config", "table1/0.6B.json"]) == 0
    out = capsys.readouterr().out
    total = int(out.splitlines()[-1].split()[-1].replace(",", ""))
    assert abs(total - 596e6) / 596e6 < 0.02


def test_param_count_accepts_bare_name(capsys):
    assert main(["param-count", "--config", "80M"]) == 0
    total = int(capsys.readouterr().out.splitlines()[-1].split()[-1].replace(",", ""))
    assert abs(total - 80e6) / 80e6 < 0.02


def test_param_count_unknown_config_exit_2(capsys):
    assert main(["param-count", "--config", "no-such-config"]) == 2


# --- allocator setting -------------------------------------------------------------


def test_main_sets_the_allocator(monkeypatch, tmp_path):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    assert main(["param-count", "--config", str(tiny_model_config(tmp_path))]) == 0
    assert calls == [(-3, 4 << 20), (-1, 64 << 20), (-8, 1)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD, M_ARENA_MAX


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [lambda name: SimpleNamespace(), _no_c_library], ids=["no-mallopt", "no-libc"])
def test_main_runs_without_mallopt(monkeypatch, tmp_path, capsys, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert main(["param-count", "--config", str(tiny_model_config(tmp_path))]) == 0
    assert "total parameters" in capsys.readouterr().out


_STEP_FAULTS_SCRIPT = """
import resource, sys
import numpy as np
from tinyembed.cli import main

main(["param-count", "--config", sys.argv[1]])

def step():
    live = [np.ones(1 << 18, dtype=np.float32) for _ in range(40)]  # 40 MiB, freed together
    del live

step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator setting is glibc's")
def test_main_keeps_freed_step_memory_in_the_process(tmp_path):
    # With glibc's defaults each step's 40 MiB goes back to the OS and is faulted
    # in again: about 10k minor faults a step, 100k over the ten.
    src = str(Path(tinyembed.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", _STEP_FAULTS_SCRIPT, str(tiny_model_config(tmp_path))],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert int(run.stdout.split()[-1]) < 1000, run.stdout


# --- ablate (tiny smoke) -----------------------------------------------------------


@pytest.mark.parametrize("command, flag, value", [
    ("prune", "--calib-size", "-1"),
    ("prune", "--calib-size", "0"),
    ("ablate", "--replicates", "0"),
])
def test_count_flag_below_one_exit_2_naming_the_flag(trained_run, capsys, command, flag, value):
    # Before any work: a negative --calib-size reached rng.sample's message, which
    # names no flag, and --replicates 0 trained nothing and exited 0.
    tmp_path, data = trained_run
    ckpt, out = str(tmp_path / "run" / "checkpoint"), tmp_path / "out"
    argv = {
        "prune": ["prune", "--checkpoint", ckpt, "--calibration", str(data),
                  "--target-hidden", "8", "--target-mlp", "12", "--target-layers", "1"],
        "ablate": ["ablate", "--plan", str(tmp_path / "plan.json"), "--checkpoint", ckpt, "--tasks", str(write_tasks(tmp_path))],
    }[command] + ["--out", str(out), flag, value]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert f"argument {flag}: must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value, minimum", [
    ("consolidate", "--cap", "0", 1),
    ("mine", "--k", "0", 1),
    ("mine", "--k", "-1", 1),
    ("mine", "--skip-top", "-1", 0),
])
def test_count_flag_below_its_minimum_exits_2_naming_the_flag(tmp_path, capsys, command, flag, value, minimum):
    # Checked as the arguments parse, before any input is read: --cap 0 wrote an
    # empty canonical.jsonl and exited 0, --k 0 mined nothing, and a negative
    # --k or --skip-top failed in the miner with a message naming neither flag.
    write_raw_inputs(tmp_path / "raw")
    out = tmp_path / "out"
    argv = {
        "consolidate": ["consolidate", "--input", str(tmp_path / "raw"), "--out", str(out)],
        "mine": ["mine", "--input", str(tmp_path / "in.jsonl"), "--checkpoint", str(tmp_path), "--k", "2", "--out", str(out)],
    }[command] + [flag, value]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert f"argument {flag}: must be >= {minimum}, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dims", ["8,x", "8,16.0", "eight"])
def test_sweep_mrl_dims_that_are_not_integers_exit_2_naming_the_flag(tmp_path, capsys, dims):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(["sweep-mrl", "--checkpoint", str(tmp_path), "--tasks", str(tmp_path / "tasks.json"), "--dims", dims])
    assert exit_.value.code == 2
    assert f"argument --dims: expected comma-separated integers, got {dims!r}" in capsys.readouterr().err


def test_ablate_smoke(tmp_path):
    # prune, then ablate from the pruned checkpoint: each replicate is
    # ablation_distill on that checkpoint, the plan's teacher and the plan.
    data = write_toy_canonical(tmp_path, n=16, n_clusters=4, seed=2)
    plan = write_plan(tmp_path, [data], mrl_dims=[8, 16], seed=5)
    assert main(["train", "--plan", str(plan), "--out", str(tmp_path / "teacher")]) == 0
    teacher, pruned = tmp_path / "teacher" / "checkpoint", tmp_path / "pruned" / "checkpoint"
    assert main([
        "prune", "--checkpoint", str(teacher), "--calibration", str(data), "--calib-size", "8",
        "--target-hidden", "8", "--target-mlp", "12", "--target-layers", "1", "--out", str(pruned.parent),
    ]) == 0
    plan = write_plan(tmp_path, [data], mrl_dims=[8], seed=5, teacher=str(teacher), model_config=None)
    tasks = write_tasks(tmp_path)
    assert main([
        "ablate", "--plan", str(plan), "--checkpoint", str(pruned), "--tasks", str(tasks),
        "--replicates", "1", "--out", str(tmp_path / "ablation"),
    ]) == 0
    report = json.loads((tmp_path / "ablation" / "ablation.json").read_text())
    student_plan = StagePlan(stage=1, learning_rate=1e-3, epochs=1, batch_size=4, seed=5,
                             loss=LossConfig(mrl_dims=(8,), temperature=0.05, distill_weight=1.0))
    batches = epoch_batches(read_samples(data), 4, random.Random(5 + 1000), 1)
    want = ev.ablation_distill(
        load_checkpoint(pruned), load_checkpoint(teacher, trainable=False), batches, student_plan, ev.load_tasks(tasks)
    )
    assert report == {"replicates": [want], "positive_delta_count": int(want["delta"] > 0), "replicate_count": 1}
