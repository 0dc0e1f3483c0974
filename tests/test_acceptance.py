"""Acceptance criteria, one test per criterion, at the stated tolerances and budgets.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion. The heavy criteria (5-7) train real toy models; the whole module
takes on the order of ten minutes on one CPU core.
"""

import json
import math
import random
import time
import zlib

import numpy as np
import pytest
import scipy.stats

from tinyembed import autodiff as ad
from tinyembed import data as td
from tinyembed import evaluation as ev
from tinyembed import pruning as tp
from tinyembed import synthetic as syn
from tinyembed import training as tt
from tinyembed.autodiff import Tensor
from tinyembed.cli import main as cli_main
from tinyembed.model import ModelConfig, forward_hidden, init_model, param_count
from tinyembed.tokenizer import EOS_ID, tokenize

from reference import concat, embed_text, flatten_params, model_from_flat, raw_sequence_embedding
from test_autodiff import GRAD_CASES


def report(criterion: int, detail: str) -> None:
    print(f"\n[acceptance] criterion {criterion}: PASS ({detail})")


# --- shared toy pipeline (criteria 5 and 6) -----------------------------------

TEACHER_CFG = ModelConfig(hidden_size=64, mlp_intermediate_size=256, num_layers=4,
                          num_heads=4, num_kv_heads=2, head_dim=16, vocab_size=258, max_seq_len=48)
N_CLUSTERS = 350
MRL_DIMS = (8, 16, 32, 64)


@pytest.fixture(scope="session")
def toy_pipeline():
    """Teacher trained to convergence on the 2,000-sample corpus, plus its
    pruned (hidden 32, MLP half, 2 layers) initialization and the eval task."""
    corpus = syn.retrieval_training_samples(2000, N_CLUSTERS, seed=7)
    task = syn.retrieval_eval_task("toy-retrieval", n_queries=200, n_clusters=N_CLUSTERS,
                                   seed=7, docs_per_cluster=2)
    teacher = init_model(TEACHER_CFG, seed=0)
    plan = tt.StagePlan(stage=1, learning_rate=3e-3, epochs=1, batch_size=16,
                        loss=tt.LossConfig(mrl_dims=MRL_DIMS, temperature=0.05), seed=0)
    batches = td.epoch_batches(corpus, 16, random.Random(11), epochs=2)
    tt.train_stage(teacher, batches, plan)
    calib = [tokenize(s.query, 48) for s in corpus[:32]] + [tokenize(s.positive, 48) for s in corpus[:32]]
    pruned, _ = tp.prune_model(teacher, tp.PruneSpec(32, 128, 2, calib))
    return {"teacher": teacher, "corpus": corpus, "task": task, "pruned": pruned}


# --- criterion 1: gradient integrity -------------------------------------------


def test_criterion_01_gradient_integrity():
    start = time.time()
    for name, (fn, shape, _) in sorted(GRAD_CASES.items()):
        point = Tensor(np.random.default_rng(zlib.crc32(name.encode())).standard_normal(shape))
        assert ad.grad_check(fn, point, tolerance=1e-3) < 1e-3, name

    cfg = ModelConfig(hidden_size=32, mlp_intermediate_size=64, num_layers=2, num_heads=2,
                      num_kv_heads=1, head_dim=8, vocab_size=258, max_seq_len=32)
    student = init_model(cfg, seed=1)
    teacher = init_model(cfg, seed=2).astype(np.float64)
    rng = random.Random(3)
    queries = [f"query {rng.randrange(1000)}" for _ in range(4)]
    positives = [f"doc {rng.randrange(1000)}" for _ in range(4)]
    negatives = [f"neg {rng.randrange(1000)}" for _ in range(4)]
    texts = queries + positives + negatives
    token_seqs = [tokenize(t, cfg.max_seq_len) for t in texts]
    teacher_embs = np.stack([embed_text(teacher, t) for t in texts])
    loss_cfg = tt.LossConfig(mrl_dims=(8, 16, 32), temperature=0.05, distill_weight=1.0)

    def total_loss(flat: Tensor) -> Tensor:
        model = model_from_flat(cfg, flat)
        rows = [raw_sequence_embedding(model, toks) for toks in token_seqs]
        emb = concat(rows, axis=0)
        contrastive = tt.matryoshka_info_nce(emb, 4, [1] * 4, loss_cfg, use_in_batch=True)
        distill = tt.distill_loss(ad.l2_normalize_rows(emb), teacher_embs)
        return ad.add(contrastive, ad.scale(distill, loss_cfg.distill_weight))

    point = Tensor(flatten_params(student))
    err = ad.grad_check(total_loss, point, tolerance=1e-3, max_coords=500, seed=0)
    elapsed = time.time() - start
    assert err < 1e-3
    assert elapsed < 30
    report(1, f"max rel err {err:.2e} over primitives + whole-model loss, {elapsed:.1f}s")


# --- criterion 2: loss sanity ----------------------------------------------------


def test_criterion_02_info_nce_uniform_is_ln_c():
    start = time.time()
    for c in (2, 8, 64):
        v = np.zeros((2 * c, 16))  # c queries and their c positives
        v[:, 0] = 1.0
        loss = tt.info_nce(Tensor(v), c, [0] * c, temperature=0.05, use_in_batch=True)
        assert abs(float(loss.values) - math.log(c)) < 1e-5, c
    elapsed = time.time() - start
    assert elapsed < 1
    report(2, f"ln(C) match for C in (2, 8, 64), {elapsed:.2f}s")


# --- criterion 3: Table 1 parameter accounting ------------------------------------

PUBLISHED_TOTALS = {
    "80M": 80e6, "160M": 159e6, "330M": 334e6, "0.6B": 596e6,
    "1.7B": 1721e6, "4B": 4022e6, "8B": 7568e6, "14B": 13990e6,
}


def test_criterion_03_param_count_vs_published():
    start = time.time()
    from tinyembed.cli import _resolve_config_path

    worst = 0.0
    for name, published in PUBLISHED_TOTALS.items():
        config = ModelConfig.from_json(_resolve_config_path(f"table1/{name}.json"))
        assert config.vocab_size == 151936
        total = param_count(config)
        rel = abs(total - published) / published
        worst = max(worst, rel)
        assert rel < 0.02, (name, total)
    elapsed = time.time() - start
    assert elapsed < 1
    report(3, f"8 sizes within 2% (worst {worst:.3%}), {elapsed:.2f}s")


# --- criterion 4: pruning exactness ------------------------------------------------


def test_criterion_04_pruning_exactness():
    start = time.time()
    rng = np.random.default_rng(4)
    for trial in range(50):
        cfg = ModelConfig(
            hidden_size=int(rng.integers(8, 24)),
            mlp_intermediate_size=int(rng.integers(6, 32)),
            num_layers=int(rng.integers(1, 4)),
            num_heads=int(rng.choice([1, 2, 4])),
            num_kv_heads=1,
            head_dim=int(rng.choice([4, 6, 8])),
            vocab_size=258,
            max_seq_len=24,
        )
        model = init_model(cfg, seed=int(rng.integers(0, 10_000)))
        calib = [list(rng.integers(0, 256, size=int(rng.integers(3, 10)))) + [EOS_ID] for _ in range(2)]
        spec = tp.PruneSpec(
            target_hidden=int(rng.integers(1, cfg.hidden_size + 1)),
            target_mlp=int(rng.integers(1, cfg.mlp_intermediate_size + 1)),
            target_layers=int(rng.integers(1, cfg.num_layers + 1)),
            calibration=calib,
        )
        norms = tp.collect_activation_norms(model, calib)
        small, rep = tp.prune_model(model, spec)
        # kept channels == independent top-k sort of the collected norms
        assert rep["kept_hidden"] == sorted(
            sorted(range(cfg.hidden_size), key=lambda i: (-norms.hidden_norms[i], i))[: spec.target_hidden]
        )
        for i, layer in enumerate(rep["kept_layers"]):
            assert rep["kept_mlp_per_layer"][i] == sorted(
                sorted(range(cfg.mlp_intermediate_size), key=lambda j: (-norms.mlp_norms[layer][j], j))[: spec.target_mlp]
            )
        toks = list(rng.integers(0, 256, size=7)) + [EOS_ID]
        with ad.no_grad():
            got = forward_hidden(small, toks).values
        want = tp.sliced_forward_oracle(model, rep["kept_hidden"], rep["kept_mlp_per_layer"], spec.target_layers, toks)
        np.testing.assert_array_equal(got, want)
    elapsed = time.time() - start
    assert elapsed < 120
    report(4, f"50 random (model, spec) pairs bitwise-equal, {elapsed:.1f}s")


# --- criterion 5: Table 4 direction -------------------------------------------------


def test_criterion_05_distillation_direction(toy_pipeline):
    start = time.time()
    corpus = toy_pipeline["corpus"]
    task = toy_pipeline["task"]
    # Arms train on half the clusters; the eval task spans all of them, so the
    # contrastive-only arm cannot learn the unseen clusters' geometry while
    # distillation transfers it from the teacher.
    arm_data = [s for i, s in enumerate(corpus) if i % N_CLUSTERS < N_CLUSTERS // 2]
    student_loss = tt.LossConfig(mrl_dims=(8, 16, 32), temperature=0.05, distill_weight=1.0)
    deltas = []
    first_rerun = None
    for r in range(5):
        batches = td.epoch_batches(arm_data, 16, random.Random(100 + r), epochs=1)
        plan = tt.StagePlan(stage=1, learning_rate=3e-3, epochs=1, batch_size=16,
                            loss=student_loss, seed=r)
        result = ev.ablation_distill(toy_pipeline["pruned"], toy_pipeline["teacher"], batches, plan, [task])
        deltas.append(result["delta"])
        if r == 0:
            first_rerun = ev.ablation_distill(
                toy_pipeline["pruned"], toy_pipeline["teacher"], batches, plan, [task]
            )
            # criterion 9 coverage: identical seeds reproduce both scores exactly
            assert first_rerun == result
    wins = sum(d > 0 for d in deltas)
    elapsed = time.time() - start
    assert wins >= 4, deltas
    assert elapsed < 1200
    report(5, f"distilled > plain in {wins}/5 replicates, deltas {[f'{d:+.4f}' for d in deltas]}, {elapsed:.0f}s")


# --- criterion 6: Figure 6 shape -----------------------------------------------------


def test_criterion_06_mrl_truncation_sweep(toy_pipeline):
    start = time.time()
    rows = ev.mrl_sweep(toy_pipeline["teacher"], [toy_pipeline["task"]], dims=list(MRL_DIMS))
    scores = [s for _, s in rows]
    for a, b in zip(scores, scores[1:]):
        assert b >= a - 0.02, rows
    assert scores[-1] - scores[0] > 0, rows
    elapsed = time.time() - start
    assert elapsed < 300
    report(6, f"sweep {[(d, round(s, 4)) for d, s in rows]}, {elapsed:.0f}s")


# --- criterion 7: overfit smoke --------------------------------------------------------

OVERFIT_CFG = ModelConfig(hidden_size=64, mlp_intermediate_size=256, num_layers=3, num_heads=4,
                          num_kv_heads=2, head_dim=16, vocab_size=258, max_seq_len=48)


def _overfit_run(tmp_path, tag):
    samples, task = syn.overfit_retrieval_set(64, seed=42)
    model = init_model(OVERFIT_CFG, seed=1)
    batches = td.epoch_batches(samples, 16, random.Random(0), epochs=75)  # 300 steps
    plan = tt.StagePlan(stage=1, learning_rate=3e-3, epochs=1, batch_size=16,
                        loss=tt.LossConfig(mrl_dims=MRL_DIMS, temperature=0.05), seed=0)
    _, metrics = tt.train_stage(model, batches, plan, metrics_path=tmp_path / f"{tag}.csv")
    return model, task, metrics


def test_criterion_07_overfit_smoke(tmp_path):
    start = time.time()
    model, task, metrics = _overfit_run(tmp_path, "a")
    assert len(metrics) == 300
    assert metrics[-1].total_loss < 0.10 * metrics[0].total_loss
    score = ev.evaluate(model, [task]).mean
    assert score >= 0.99
    # criterion 9 coverage: the rerun reproduces the metrics log byte-for-byte
    _overfit_run(tmp_path, "b")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    elapsed = time.time() - start
    assert elapsed < 300
    report(7, f"train nDCG@10 {score:.4f}, loss ratio {metrics[-1].total_loss / metrics[0].total_loss:.5f}, {elapsed:.0f}s")


# --- criterion 8: instruction policy -----------------------------------------------------


def test_criterion_08_instruction_policy():
    start = time.time()
    rng = random.Random(8)
    template = "Cluster these sentences"
    symmetric = [
        td.CanonicalSample(format=td.CLUSTERING, query=f"q{i}", positive=f"p{i}", negatives=[f"n{i}"],
                           source="sym", task_type="clustering", symmetric=True, instruction=template)
        for i in range(5000)
    ]
    # stage 1: byte-identical
    for s in symmetric[:200]:
        assert td.apply_instructions(s, stage=1).to_json() == s.to_json()
    # stage 2 symmetric: 10,000 documents (positive + negative each), fraction in [0.28, 0.32]
    prefixed = 0
    for s in symmetric:
        out = td.apply_instructions(s, stage=2, p_doc=0.30, rng=rng)
        assert out.query.startswith(template)
        prefixed += out.positive.startswith(template) + out.negatives[0].startswith(template)
    fraction = prefixed / 10_000
    assert 0.28 <= fraction <= 0.32
    # stage 2 asymmetric: documents never prefixed
    for i in range(500):
        s = td.CanonicalSample(format=td.RETRIEVAL, query=f"q{i}", positive=f"p{i}", negatives=[f"n{i}"],
                               source="asym", task_type="qa", symmetric=False, instruction=template)
        out = td.apply_instructions(s, stage=2, p_doc=0.30, rng=rng)
        assert out.positive == s.positive and out.negatives == s.negatives
        assert out.query.startswith(template)
    elapsed = time.time() - start
    assert elapsed < 10
    report(8, f"prefixed fraction {fraction:.4f}, stage-1 identity, asymmetric docs untouched, {elapsed:.1f}s")


# --- criterion 9: determinism (CLI-level reruns) ------------------------------------------


def test_criterion_09_cli_determinism(tmp_path):
    start = time.time()
    from tinyembed.data import write_samples

    data = tmp_path / "canonical.jsonl"
    write_samples(data, syn.retrieval_training_samples(12, 4, seed=0))
    cfg = {"hidden_size": 16, "mlp_intermediate_size": 24, "num_layers": 1, "num_heads": 2,
           "num_kv_heads": 1, "head_dim": 4, "vocab_size": 258, "max_seq_len": 32, "rope_base": 10000.0}
    (tmp_path / "model.json").write_text(json.dumps(cfg))
    plan = {"stage": 1, "lr": 1e-3, "epochs": 1, "batch_size": 4, "mrl_dims": [8, 16], "seed": 3,
            "data": [str(data)], "model_config": str(tmp_path / "model.json")}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    ev.save_tasks(tmp_path / "tasks.json", [syn.retrieval_eval_task("ret", 4, 4, seed=1)])

    outputs = {}
    for run in ("a", "b"):
        base = tmp_path / run
        assert cli_main(["train", "--plan", str(tmp_path / "plan.json"), "--out", str(base / "train")]) == 0
        assert cli_main([
            "prune", "--checkpoint", str(base / "train" / "checkpoint"), "--calibration", str(data),
            "--calib-size", "8", "--target-hidden", "8", "--target-mlp", "12", "--target-layers", "1",
            "--out", str(base / "pruned"), "--seed", "5",
        ]) == 0
        assert cli_main([
            "eval", "--checkpoint", str(base / "pruned" / "checkpoint"), "--tasks", str(tmp_path / "tasks.json"),
            "--out", str(base / "scores.csv"),
        ]) == 0
        outputs[run] = {
            rel: (base / rel).read_bytes()
            for rel in (
                "train/metrics.csv", "train/checkpoint/weights.bin", "train/checkpoint/manifest.json",
                "pruned/checkpoint/weights.bin", "pruned/prune_report.json", "scores.csv",
            )
        }
    assert outputs["a"] == outputs["b"]
    elapsed = time.time() - start
    assert elapsed < 60
    report(9, f"train/prune/eval reruns byte-identical across {len(outputs['a'])} output files, {elapsed:.1f}s")


# --- criterion 10: metric oracles ------------------------------------------------------------


def test_criterion_10_metric_oracles():
    start = time.time()
    rng = random.Random(10)
    nrng = np.random.default_rng(10)

    for _ in range(1000):
        n = rng.randrange(2, 20)
        ranking = list(range(n))
        rng.shuffle(ranking)
        relevant = {d: float(rng.choice([1, 2, 3])) for d in rng.sample(range(n), rng.randrange(1, n))}
        k = rng.randrange(1, n + 2)
        dcg = 0.0
        for rank, doc in enumerate(ranking[:k], start=1):
            dcg += relevant.get(doc, 0.0) / math.log2(rank + 1)
        ideal = sum(g / math.log2(r + 1) for r, g in enumerate(sorted(relevant.values(), reverse=True)[:k], start=1))
        assert ev.ndcg_at_k(ranking, relevant, k) == dcg / ideal

    checked = 0
    while checked < 1000:
        n = rng.randrange(2, 15)
        sims = [float(s) for s in nrng.choice(np.linspace(-1, 1, 7), size=n)]
        labels = [int(x) for x in nrng.integers(0, 2, size=n)]
        if len(set(labels)) < 2:
            continue
        got, _ = ev.best_threshold_accuracy(sims, labels)
        uniq = sorted(set(sims))
        cands = [uniq[0] - 1, uniq[-1] + 1] + [(a + b) / 2 for a, b in zip(uniq, uniq[1:])]
        want = max(sum((s > t) == bool(l) for s, l in zip(sims, labels)) / n for t in cands)
        assert got == want
        checked += 1

    checked = 0
    while checked < 1000:
        n = rng.randrange(2, 25)
        pred = [float(x) for x in nrng.choice(np.linspace(0, 1, 5), size=n)]
        gold = [float(x) for x in nrng.standard_normal(n)]
        if len(set(pred)) < 2 or len(set(gold)) < 2:
            continue
        want = scipy.stats.spearmanr(pred, gold).statistic
        assert abs(ev.spearman(pred, gold) - want) < 1e-9
        checked += 1

    elapsed = time.time() - start
    assert elapsed < 30
    report(10, f"1000 instances per metric vs oracles, {elapsed:.1f}s")
