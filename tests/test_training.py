"""Loss oracles, AdamW behavior, and stage-loop policy tests."""

import gc
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tinyembed
from tinyembed import autodiff as ad
from tinyembed import model as tm
from tinyembed import training as tt
from tinyembed.autodiff import Tensor
from tinyembed.data import CLUSTERING, RETRIEVAL, Batch, CanonicalSample, epoch_batches
from tinyembed.model import ModelConfig, init_model, raw_embeddings
from tinyembed.pruning import collect_activation_norms
from tinyembed.tokenizer import tokenize
from tinyembed.training import LossConfig, OptimizerState, StagePlan

from reference import concat, cross_entropy, grad_check, raw_sequence_embedding, transpose
from test_autodiff import assert_backward_equals_reference, assert_vjps_repeat


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def rsample(fmt=RETRIEVAL, **kw):
    defaults = dict(query="q", positive="d", negatives=[] if fmt == RETRIEVAL else ["n"],
                    source="s", task_type="t", symmetric=False)
    defaults.update(kw)
    return CanonicalSample(format=fmt, **defaults)


# --- truncate_and_renorm -----------------------------------------------------


def test_truncate_full_dim_is_identity_on_unit_rows():
    rng = np.random.default_rng(0)
    x = unit_rows(rng, 3, 8)
    out = tt.truncate_and_renorm(Tensor(x), 8).values
    np.testing.assert_allclose(out, x, atol=1e-7)


def test_truncate_three_four_five():
    out = tt.truncate_and_renorm(Tensor(np.array([[3.0, 4.0, 0.0, 0.0]])), 2).values
    np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-7)


def test_truncate_norm_and_proportionality():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 16))
    for d in (1, 3, 16):
        out = tt.truncate_and_renorm(Tensor(x), d).values
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), np.ones(5), atol=1e-6)
        prefix = x[:, :d]
        np.testing.assert_allclose(out * np.linalg.norm(prefix, axis=1, keepdims=True), prefix, atol=1e-6)


def test_truncate_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        tt.truncate_and_renorm(Tensor(np.ones((1, 4))), 5)
    with pytest.raises(ValueError, match="out of range"):
        tt.truncate_and_renorm(Tensor(np.ones((1, 4))), 0)


# --- info_nce ----------------------------------------------------------------


def identical_rows(n, d=8):
    v = np.zeros((n, d))
    v[:, 0] = 1.0
    return Tensor(v)


@pytest.mark.parametrize("c", [2, 8, 64])
def test_info_nce_uniform_candidates_is_ln_c(c):
    loss = tt.info_nce(identical_rows(2 * c), c, [0] * c, temperature=0.05, use_in_batch=True)
    assert abs(float(loss.values) - math.log(c)) < 1e-5


def test_info_nce_saturated_pair():
    emb = Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]))  # query, positive, negative
    loss = float(tt.info_nce(emb, 1, [1], temperature=0.05, use_in_batch=False).values)
    assert abs(loss - math.log(1 + math.exp(-40))) < 1e-9


def test_info_nce_in_batch_matches_log_softmax_oracle():
    s = np.array([[0.9, 0.1], [0.2, 0.8]])
    q = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    pvals = np.zeros((2, 4))
    for j in range(2):
        pvals[j, :2] = s[:, j]
        pvals[j, 2 + j] = np.sqrt(1.0 - (s[:, j] ** 2).sum())
    emb = Tensor(np.concatenate([q, pvals]))
    loss = float(tt.info_nce(emb, 2, [0, 0], temperature=1.0, use_in_batch=True).values)
    want = -np.mean([np.log(np.exp(s[i, i]) / np.exp(s[i]).sum()) for i in range(2)])
    assert abs(loss - want) < 1e-9


def test_info_nce_invariant_to_negative_permutation():
    rng = np.random.default_rng(3)
    qp, negs = unit_rows(rng, 4, 8), unit_rows(rng, 5, 8)
    a = tt.info_nce(Tensor(np.concatenate([qp, negs])), 2, [5, 0], 0.1, use_in_batch=True)
    b = tt.info_nce(Tensor(np.concatenate([qp, negs[::-1]])), 2, [5, 0], 0.1, use_in_batch=True)
    assert abs(float(a.values) - float(b.values)) < 1e-12


def test_info_nce_rejects_non_unit_inputs():
    with pytest.raises(ValueError, match="unit-norm"):
        tt.info_nce(Tensor(np.full((4, 4), 0.9)), 2, [0, 0], 0.05, use_in_batch=True)


def test_info_nce_rejects_candidate_free_query():
    with pytest.raises(ValueError, match="candidates"):
        tt.info_nce(identical_rows(2, 2), 1, [0], 0.05, use_in_batch=True)  # B=1, no negatives


def test_info_nce_names_non_finite_inputs():
    # A NaN row's norm deviation is NaN, which no "> tolerance" test catches.
    rng = np.random.default_rng(10)
    emb = unit_rows(rng, 8, 8)  # 3 queries, 3 positives, query 1's two negatives
    emb[7, 3] = np.nan
    with pytest.raises(ad.NonFiniteError, match="negative"):
        tt.info_nce(Tensor(emb), 3, [0, 2, 0], 0.05, use_in_batch=False)
    emb[3, 0] = np.inf
    with pytest.raises(ad.NonFiniteError, match="positive"):
        tt.info_nce(Tensor(emb), 3, [0, 2, 0], 0.05, use_in_batch=True)
    emb[2, 1] = np.nan
    with pytest.raises(ad.NonFiniteError, match="query"):
        tt.info_nce(Tensor(emb), 3, [0, 2, 0], 0.05, use_in_batch=True)


def test_info_nce_gradient_check():
    rng = np.random.default_rng(4)
    b, d, k = 3, 6, 2
    point = np.concatenate([unit_rows(rng, b, d), unit_rows(rng, b, d), unit_rows(rng, b * k, d)])

    def fn(x):
        return tt.info_nce(x, b, [k] * b, temperature=0.1, use_in_batch=True)

    assert grad_check(fn, Tensor(point), tolerance=1e-3) < 1e-3


# --- matryoshka --------------------------------------------------------------


def test_matryoshka_single_dim_equals_info_nce():
    rng = np.random.default_rng(5)
    raw = Tensor(rng.standard_normal((8, 16)))
    cfg = LossConfig(mrl_dims=(16,), temperature=0.07)
    got = tt.matryoshka_info_nce(raw, 4, [0] * 4, cfg, use_in_batch=True)
    want = tt.info_nce(ad.l2_normalize_rows(raw), 4, [0] * 4, 0.07, use_in_batch=True)
    assert float(got.values) == float(want.values)


def test_matryoshka_uniform_at_every_dim_is_ln_c():
    cfg = LossConfig(mrl_dims=(8, 32), temperature=0.05)
    loss = tt.matryoshka_info_nce(identical_rows(8, 32), 4, [0] * 4, cfg, use_in_batch=True)
    assert abs(float(loss.values) - math.log(4)) < 1e-5


def test_matryoshka_is_weighted_mean_of_per_dim_losses():
    rng = np.random.default_rng(6)
    raw = rng.standard_normal((12, 32))  # 3 queries, 3 positives, two negatives each
    cfg = LossConfig(mrl_dims=(8, 16, 32), mrl_weights=(1.0, 2.0, 3.0), temperature=0.1)
    got = float(tt.matryoshka_info_nce(Tensor(raw), 3, [2, 2, 2], cfg, use_in_batch=True).values)
    per_dim = []
    for d in (8, 16, 32):
        unit = tt.truncate_and_renorm(Tensor(raw), d)
        per_dim.append(float(tt.info_nce(unit, 3, [2, 2, 2], 0.1, use_in_batch=True).values))
    want = (1 * per_dim[0] + 2 * per_dim[1] + 3 * per_dim[2]) / 6
    assert abs(got - want) < 1e-12


def test_matryoshka_loss_graph_does_not_grow_with_the_batch():
    cfg = LossConfig(mrl_dims=(8, 16, 32, 64))

    def nodes(b, counts):
        rng = np.random.default_rng(b)
        raw = Tensor(rng.standard_normal((2 * b + sum(counts), 64)), requires_grad=True)
        return len(ad.trace(tt.matryoshka_info_nce(raw, b, counts, cfg, use_in_batch=True)))

    assert nodes(4, [0] * 4) == nodes(16, [0] * 16)
    assert nodes(4, [1, 2, 3, 1]) == nodes(16, [1 + i % 3 for i in range(16)])


# --- the fused InfoNCE against the per-query graph it replaced ----------------
# The reference takes the list form the loss had before it took stacked rows:
# queries, positives, and one negatives tensor per query (None or empty for none).


def _reference_info_nce(query_embs, pos_embs, neg_embs, temperature, use_in_batch):
    """info_nce as one gather_rows/concat/transpose/matmul/scale/cross_entropy
    chain per query, with the checks of tt.info_nce."""
    b = query_embs.shape[0]
    if pos_embs.shape != query_embs.shape:
        raise ad.ShapeError(f"info_nce: queries {query_embs.shape} vs positives {pos_embs.shape}")
    if neg_embs is not None and len(neg_embs) != b:
        raise ValueError("info_nce: need one negative list per query")
    tt._check_unit_rows("query", query_embs.values)
    tt._check_unit_rows("positive", pos_embs.values)
    has_negs = neg_embs is not None and any(n is not None and n.shape[0] > 0 for n in neg_embs)
    if not has_negs and (not use_in_batch or b < 2):
        raise ValueError("info_nce: no candidates beyond each query's own positive")
    inv_t = 1.0 / temperature
    losses = None
    for i in range(b):
        parts = [ad.gather_rows(pos_embs, [i])]
        if neg_embs is not None and neg_embs[i] is not None and neg_embs[i].shape[0] > 0:
            tt._check_unit_rows("negative", neg_embs[i].values)
            parts.append(neg_embs[i])
        if use_in_batch and b > 1:
            parts.append(ad.gather_rows(pos_embs, [j for j in range(b) if j != i]))
        candidates = parts[0] if len(parts) == 1 else concat(parts, axis=0)
        sims = ad.matmul(ad.gather_rows(query_embs, [i]), transpose(candidates))
        loss_i = cross_entropy(ad.scale(sims, inv_t), [0])
        losses = loss_i if losses is None else ad.add(losses, loss_i)
    return ad.scale(losses, 1.0 / b)


def _reference_matryoshka(raw_q, raw_p, raw_n, loss_cfg, use_in_batch):
    """matryoshka_info_nce in the list form: every tensor truncated and renormed
    on its own, each dim's loss the per-query reference."""
    weights = loss_cfg.weights()
    total = None
    for d, w in zip(loss_cfg.mrl_dims, weights):
        q, p = tt.truncate_and_renorm(raw_q, d), tt.truncate_and_renorm(raw_p, d)
        negs = [None if n is None else tt.truncate_and_renorm(n, d) for n in raw_n]
        term = ad.scale(_reference_info_nce(q, p, negs, loss_cfg.temperature, use_in_batch), w)
        total = term if total is None else ad.add(total, term)
    return ad.scale(total, 1.0 / sum(weights))


def _stacked(loss, q, p, negs, *args, **kwargs):
    """loss (tt.info_nce or tt.matryoshka_info_nce) of the list form's tensors:
    their rows stacked, and each query's negative count."""
    emb = concat([q, p] + [n for n in negs if n is not None and n.shape[0] > 0], axis=0)
    counts = [0 if n is None else n.shape[0] for n in negs]
    return loss(emb, q.shape[0], counts, *args, **kwargs)


# (batch size, negatives per query: a count, or None for no tensor, in_batch)
_LOSS_CASES = {
    "in-batch": (16, [None] * 16, True),
    "negatives": (7, [1, 2, 3, None, 0, 3, 1], False),
    "in-batch+negatives": (6, [2, None, 1, 0, 3, 1], True),
    "one-query": (1, [3], True),
}


def _assert_fused_equals_reference(fused_fn, ref_fn, arrays, msg):
    """fn(q, p, negatives) of fresh leaves: loss values and every input's gradient, bitwise."""
    runs = []
    for fn in (fused_fn, ref_fn):
        leaves = [None if a is None else Tensor(a.copy(), requires_grad=True) for a in arrays]
        loss = fn(leaves[0], leaves[1], leaves[2:])
        ad.backward(ad.scale(loss, 0.37))
        runs.append((loss, leaves))
    (fused, got_leaves), (ref, want_leaves) = runs
    assert fused.values.dtype == ref.values.dtype
    np.testing.assert_array_equal(fused.values, ref.values, err_msg=msg)
    for k, (got, want) in enumerate(zip(got_leaves, want_leaves)):
        if want is not None and want.grad is None:
            assert got.grad is None, f"{msg}: input {k}"  # an empty negatives tensor
        elif want is not None:
            assert got.grad.dtype == want.grad.dtype
            np.testing.assert_array_equal(got.grad, want.grad, err_msg=f"{msg}: input {k}")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(_LOSS_CASES))
def test_fused_info_nce_bitwise_equals_per_query_graph(case, dtype):
    b, counts, in_batch = _LOSS_CASES[case]
    rng = np.random.default_rng(len(case))
    for d in (8, 16, 24, 32, 64):
        arrays = [unit_rows(rng, b, d).astype(dtype), unit_rows(rng, b, d).astype(dtype)]
        arrays += [None if n is None else unit_rows(rng, n, d).astype(dtype) for n in counts]
        fused = lambda q, p, n: _stacked(tt.info_nce, q, p, n, 0.05, use_in_batch=in_batch)
        ref = lambda q, p, n: _reference_info_nce(q, p, n, 0.05, use_in_batch=in_batch)
        _assert_fused_equals_reference(fused, ref, arrays, f"{case} {dtype.__name__} d={d}")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_matryoshka_bitwise_equals_per_query_graph(dtype):
    rng = np.random.default_rng(17)
    counts = [2, None, 1, 0, 3, 1, None, 2]
    arrays = [rng.standard_normal((8, 64)).astype(dtype) for _ in range(2)]
    arrays += [None if n is None else rng.standard_normal((n, 64)).astype(dtype) for n in counts]
    cfg = LossConfig(mrl_dims=(8, 16, 32, 64), mrl_weights=(1.0, 0.5, 2.0, 0.25), temperature=0.05)
    fused = lambda q, p, n: _stacked(tt.matryoshka_info_nce, q, p, n, cfg, use_in_batch=True)
    ref = lambda q, p, n: _reference_matryoshka(q, p, n, cfg, use_in_batch=True)
    _assert_fused_equals_reference(fused, ref, arrays, dtype.__name__)


def test_loss_config_validation():
    with pytest.raises(ValueError, match="ascending"):
        LossConfig(mrl_dims=(16, 8))
    with pytest.raises(ValueError, match="minimum matryoshka"):
        LossConfig(mrl_dims=(4, 16))
    with pytest.raises(ValueError, match="positive"):
        LossConfig(mrl_dims=(8, 16), mrl_weights=(1.0, 0.0))


# --- distillation ------------------------------------------------------------


def test_distill_zero_when_student_equals_truncated_teacher():
    rng = np.random.default_rng(7)
    teacher = unit_rows(rng, 4, 16)
    student = tt.truncate_and_renorm(Tensor(teacher), 8)
    assert float(tt.distill_loss(student, teacher).values) < 1e-15


def test_distill_orthogonal_unit_vectors():
    d = 8
    s = np.zeros((1, d))
    t = np.zeros((1, d))
    s[0, 0] = 1.0
    t[0, 1] = 1.0
    assert abs(float(tt.distill_loss(Tensor(s), t).values) - 2.0 / d) < 1e-12


def test_distill_matches_loop_oracle():
    rng = np.random.default_rng(8)
    student = unit_rows(rng, 5, 8)
    teacher = unit_rows(rng, 5, 12)
    got = float(tt.distill_loss(Tensor(student), teacher).values)
    target = teacher[:, :8] / np.linalg.norm(teacher[:, :8], axis=1, keepdims=True)
    acc = 0.0
    for i in range(5):
        for j in range(8):
            acc += (student[i, j] - target[i, j]) ** 2
    assert abs(got - acc / 40) < 1e-6


def test_distill_rejects_small_teacher():
    with pytest.raises(ValueError, match="smaller"):
        tt.distill_loss(Tensor(np.ones((2, 8))), np.ones((2, 4)))


# --- AdamW -------------------------------------------------------------------


def test_adamw_pure_decay():
    p = {"w": Tensor(np.array([[1.0, -2.0]]), requires_grad=True)}
    state = OptimizerState.for_params(p)
    tt.adamw_step(p, {"w": np.zeros((1, 2))}, state, lr=0.1)
    np.testing.assert_allclose(p["w"].values, [[0.999, -1.998]], rtol=1e-12)


def test_adamw_step_one_analytic():
    p = {"w": Tensor(np.zeros((1, 1)), requires_grad=True)}
    state = OptimizerState.for_params(p)  # weight decay adds exactly 0 at a zero weight
    tt.adamw_step(p, {"w": np.ones((1, 1))}, state, lr=1.0)
    assert abs(p["w"].values[0, 0] - (-1.0 / (1.0 + 1e-8))) < 1e-9


def test_adamw_deterministic():
    def run():
        rng = np.random.default_rng(9)
        p = {"w": Tensor(rng.standard_normal((3, 3)), requires_grad=True)}
        state = OptimizerState.for_params(p)
        for i in range(5):
            tt.adamw_step(p, {"w": rng.standard_normal((3, 3))}, state, lr=0.01)
        return p["w"].values, state.m["w"], state.v["w"]

    a, b = run(), run()
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_adamw_shape_mismatch():
    p = {"w": Tensor(np.zeros((2, 2)), requires_grad=True)}
    state = OptimizerState.for_params(p)
    with pytest.raises(ad.ShapeError, match="adamw_step"):
        tt.adamw_step(p, {"w": np.zeros((3, 3))}, state, lr=0.1)


# --- train_stage -------------------------------------------------------------

STUDENT_CFG = ModelConfig(hidden_size=16, mlp_intermediate_size=32, num_layers=1, num_heads=2,
                          num_kv_heads=1, head_dim=4, vocab_size=258, max_seq_len=32)


def make_plan(**kw):
    defaults = dict(stage=1, learning_rate=1e-3, epochs=1, batch_size=4,
                    loss=LossConfig(mrl_dims=(8, 16)), seed=0)
    defaults.update(kw)
    return StagePlan(**defaults)


def test_in_batch_policy_observed_through_loss_values():
    # Same text everywhere makes every similarity 1, so the initial contrastive
    # loss is exactly ln(candidate count): ln(B) for retrieval (pos + B-1
    # in-batch), ln(2) for clustering (pos + 1 hard negative, in-batch off).
    model = init_model(STUDENT_CFG, seed=0)
    retrieval = Batch([rsample(query="x", positive="x") for _ in range(4)])
    _, m = tt.train_stage(model, [retrieval], make_plan(learning_rate=0.0))
    assert abs(m[0].contrastive_loss - math.log(4)) < 1e-4

    model = init_model(STUDENT_CFG, seed=0)
    clustering = Batch(
        [rsample(fmt=CLUSTERING, query="x", positive="x", negatives=["x"], symmetric=True) for _ in range(4)]
    )
    _, m = tt.train_stage(model, [clustering], make_plan(stage=2, learning_rate=0.0))
    assert abs(m[0].contrastive_loss - math.log(2)) < 1e-4


def test_stage1_rejects_non_retrieval_batches():
    model = init_model(STUDENT_CFG, seed=0)
    batch = Batch([rsample(fmt=CLUSTERING, negatives=["n"]) for _ in range(2)])
    with pytest.raises(ValueError, match="stage-1"):
        tt.train_stage(model, [batch], make_plan())


def test_teacher_smaller_than_student_rejected():
    model = init_model(STUDENT_CFG, seed=0)
    small = ModelConfig(hidden_size=8, mlp_intermediate_size=8, num_layers=1, num_heads=1,
                        num_kv_heads=1, head_dim=4, vocab_size=258, max_seq_len=32)
    teacher = init_model(small, seed=1)
    batch = Batch([rsample(query=f"q{i}") for i in range(2)])
    with pytest.raises(ValueError, match="teacher hidden"):
        tt.train_stage(model, [batch], make_plan(), teacher=teacher)


def test_no_teacher_equals_lambda_zero_with_teacher():
    data = [Batch([rsample(query=f"q{i}", positive=f"d{i}") for i in range(4)])]
    base = tt.train_stage(init_model(STUDENT_CFG, seed=3), data, make_plan())[1]
    teacher = init_model(STUDENT_CFG, seed=9)
    plan = make_plan(loss=LossConfig(mrl_dims=(8, 16), distill_weight=0.0))
    with_t = tt.train_stage(init_model(STUDENT_CFG, seed=3), data, plan, teacher=teacher)[1]
    assert base == with_t


def test_distillation_component_logged_and_positive():
    data = [Batch([rsample(query=f"q{i}", positive=f"d{i}") for i in range(3)])]
    teacher = init_model(STUDENT_CFG, seed=11)
    plan = make_plan()
    _, metrics = tt.train_stage(init_model(STUDENT_CFG, seed=3), data, plan, teacher=teacher)
    assert metrics[0].distill_loss > 0
    assert abs(metrics[0].total_loss - (metrics[0].contrastive_loss + metrics[0].distill_loss)) < 1e-6


def test_training_is_deterministic():
    data = [Batch([rsample(query=f"q{i}", positive=f"d{i}") for i in range(4)])]

    def run():
        model = init_model(STUDENT_CFG, seed=5)
        return tt.train_stage(model, data, make_plan(epochs=3))[1]

    assert run() == run()


def test_loss_decreases_when_overfitting():
    data = [Batch([rsample(query=f"query {i}", positive=f"doc {i}") for i in range(4)])]
    model = init_model(STUDENT_CFG, seed=7)
    _, metrics = tt.train_stage(model, data, make_plan(epochs=40, learning_rate=3e-3))
    assert metrics[-1].total_loss < 0.5 * metrics[0].total_loss


def test_non_finite_loss_aborts_with_step_index():
    model = init_model(STUDENT_CFG, seed=0)
    model.params["layers.0.o_proj"].values[:, 0] = np.nan
    batch = Batch([rsample(query=f"q{i}") for i in range(2)])
    with np.errstate(all="ignore"), pytest.raises(ad.NonFiniteError, match="step 1"):
        tt.train_stage(model, [batch], make_plan())


def test_teacher_non_finite_names_the_step_and_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(tm, "_cpu_count", lambda: 2)
    teacher = init_model(STUDENT_CFG, seed=9)
    # Only the second batch brings a text holding "~".
    teacher.params["token_embedding"].values[tokenize("~")[0]] = np.nan
    data = [Batch([rsample(query=f"q{i}") for i in range(2)]), Batch([rsample(query="q~"), rsample(query="q0")])]
    start = threading.active_count()
    with pytest.raises(ad.NonFiniteError, match="step 2"):
        tt.train_stage(init_model(STUDENT_CFG, seed=3), data, make_plan(), teacher=teacher)
    assert threading.active_count() == start


def test_the_teacher_embeds_each_text_once_before_the_first_student_forward(monkeypatch):
    calls = []

    def spy(name):
        fn = getattr(tt, name)

        def embed(model, seqs):
            calls.append((name, [tuple(s) for s in seqs]))
            return fn(model, seqs)

        monkeypatch.setattr(tt, name, embed)

    spy("raw_embeddings")
    spy("raw_sequence_embeddings")
    # Texts repeat within a batch, across batches and across the two epochs.
    data = [Batch([rsample(query="q0", positive="d"), rsample(query="q1", positive="d")]),
            Batch([rsample(query="q1", positive="d1"), rsample(query="q2", positive="d")])]
    teacher = init_model(STUDENT_CFG, seed=9)
    tt.train_stage(init_model(STUDENT_CFG, seed=3), data, make_plan(epochs=2), teacher=teacher)
    names = [name for name, _ in calls]
    assert names == ["raw_embeddings"] * 2 + ["raw_sequence_embeddings"] * 4
    embedded = [seq for _, seqs in calls[:2] for seq in seqs]
    texts = ["q0", "q1", "d", "q2", "d1"]
    assert embedded == [tuple(tokenize(t, teacher.config.max_seq_len)) for t in texts]


def test_the_student_tokenizes_each_text_once_before_the_first_student_forward(monkeypatch):
    events = []
    tokenize_fn, forward_fn = tt.tokenize, tt.raw_sequence_embeddings

    def spy_tokenize(text, max_len):
        events.append(("tokenize", text))
        return tokenize_fn(text, max_len)

    def spy_forward(model, seqs):
        events.append(("forward", len(seqs)))
        return forward_fn(model, seqs)

    monkeypatch.setattr(tt, "tokenize", spy_tokenize)
    monkeypatch.setattr(tt, "raw_sequence_embeddings", spy_forward)
    # Batch 2 brings new texts beside repeated ones; the texts repeat across epochs.
    data = [Batch([rsample(query="q0", positive="d"), rsample(query="q1", positive="d")]),
            Batch([rsample(query="q1", positive="d1"), rsample(query="q2", positive="d")])]
    tt.train_stage(init_model(STUDENT_CFG, seed=3), data, make_plan(epochs=2))
    first_forward = events.index(("forward", 4))
    assert sorted(text for kind, text in events if kind == "tokenize") == ["d", "d1", "q0", "q1", "q2"]
    assert all(kind == "tokenize" for kind, _ in events[:first_forward])
    assert [kind for kind, _ in events[first_forward:]] == ["forward"] * 4


def test_every_registered_primitive_is_recorded_by_the_pipeline(monkeypatch):
    # A stage-2 step with a teacher and a matryoshka dim below full, no-grad
    # embedding and pruning calibration record every primitive src/ registers:
    # ops only the tests use live beside them (tests/reference.py).
    recorded, make = set(), ad._make

    def spy(op, values, parents, vjp):
        recorded.add(op)
        return make(op, values, parents, vjp)

    monkeypatch.setattr(ad, "_make", spy)
    data = [Batch([rsample(query=f"q{i}", positive=f"d{i}") for i in range(4)])]
    student, teacher = init_model(STUDENT_CFG, seed=3), init_model(STUDENT_CFG, seed=9)
    tt.train_stage(student, data, make_plan(stage=2), teacher=teacher)
    seqs = [tokenize(t) for t in ("a", "bc", "def", "ghi")]
    raw_embeddings(student, seqs)
    collect_activation_norms(student, seqs)
    assert recorded == set(ad.primitive_set())


def test_metrics_csv_format(tmp_path):
    data = [Batch([rsample(query=f"q{i}") for i in range(2)])]
    model = init_model(STUDENT_CFG, seed=0)
    _, metrics = tt.train_stage(model, data, make_plan())
    tt.write_metrics_csv(tmp_path / "m.csv", metrics)
    lines = (tmp_path / "m.csv").read_text().splitlines()
    assert lines[0] == "step,total_loss,contrastive_loss,distill_loss"
    assert lines[1].startswith("1,")


# --- the packed training forward against the per-text path it replaced --------

PACKED_CFG = ModelConfig(hidden_size=32, mlp_intermediate_size=64, num_layers=2, num_heads=4,
                         num_kv_heads=2, head_dim=8, vocab_size=258, max_seq_len=48)
PACKED_TEACHER_CFG = ModelConfig(hidden_size=64, mlp_intermediate_size=64, num_layers=1, num_heads=2,
                                 num_kv_heads=1, head_dim=16, vocab_size=258, max_seq_len=48)


def _embed_rows(model, texts, cache):
    """The per-text student forward: one graph per text, EOS rows concatenated."""
    rows = []
    for text in texts:
        toks = cache.setdefault(text, tokenize(text, model.config.max_seq_len))
        rows.append(raw_sequence_embedding(model, toks))
    return rows[0] if len(rows) == 1 else concat(rows, axis=0)


def _per_text_step(model, batch, plan, opt, teacher, token_cache, teacher_cache):
    """_train_step as it was before the packed forward and the fused loss."""
    queries = [s.query for s in batch.samples]
    positives = [s.positive for s in batch.samples]
    negatives = [list(s.negatives) for s in batch.samples]
    raw_q = _embed_rows(model, queries, token_cache)
    raw_p = _embed_rows(model, positives, token_cache)
    raw_n = [_embed_rows(model, negs, token_cache) if negs else None for negs in negatives]
    contrastive = _reference_matryoshka(raw_q, raw_p, raw_n, plan.loss, use_in_batch=batch.uses_in_batch_negatives)
    total = contrastive
    if teacher is not None:
        all_texts = queries + positives + [n for negs in negatives for n in negs]
        student_rows = [raw_q, raw_p] + [t for t in raw_n if t is not None]
        student_unit = ad.l2_normalize_rows(concat(student_rows, axis=0))
        missing = [t for t in dict.fromkeys(all_texts) if t not in teacher_cache]
        max_len = teacher.config.max_seq_len
        for text, raw in zip(missing, raw_embeddings(teacher, [tokenize(t, max_len) for t in missing])):
            teacher_cache[text] = raw / np.linalg.norm(raw)
        dloss = tt.distill_loss(student_unit, np.stack([teacher_cache[t] for t in all_texts]))
        total = ad.add(contrastive, ad.scale(dloss, plan.loss.distill_weight))
    ad.backward(total)
    params = model.params
    tt.adamw_step(params, {k: p.grad for k, p in params.items()}, opt, plan.learning_rate)


def _mixed_batch(fmt, seed):
    """Texts of 0-40 characters: an empty text (EOS only), one-character texts,
    and equal lengths that are not adjacent in the packed order."""
    rng = random.Random(seed)
    word = lambda n: "".join(rng.choice("abcdefgh ") for _ in range(n))
    lengths = [0, 1, 1, 7, 7, 12, 18, 25, 33, 40, 3, 12]
    rng.shuffle(lengths)
    texts = iter([word(n) for n in lengths] + [word(rng.randrange(41)) for _ in range(12)])
    samples = []
    for i in range(4):
        negs = [] if fmt == RETRIEVAL and i % 2 else [next(texts) for _ in range(1 + i % 3)]
        samples.append(rsample(fmt=fmt, query=next(texts), positive=next(texts), negatives=negs))
    return Batch(samples)


def _tokens(model, batch):
    """model's token list of each of one batch's texts, as train_stage makes them."""
    return {text: tokenize(text, model.config.max_seq_len) for text in tt._packed_texts(batch)}


def _run_both(batch, dtype, with_teacher, steps=3):
    """Yield (step, packed model, per-text model) after each of `steps` steps."""
    plan = make_plan(stage=2, learning_rate=3e-3, loss=LossConfig(mrl_dims=(8, 16, 32)))
    teacher = init_model(PACKED_TEACHER_CFG, seed=4).astype(dtype) if with_teacher else None
    packed, ref = (init_model(PACKED_CFG, seed=2).astype(dtype) for _ in range(2))
    packed_opt, ref_opt = (OptimizerState.for_params(m.params) for m in (packed, ref))
    targets = tt._teacher_targets(teacher, [batch], _tokens(teacher, batch)) if with_teacher else None
    tokens, ref_caches = _tokens(packed, batch), ({}, {})
    for step in range(1, steps + 1):
        tt._train_step(packed, batch, plan, packed_opt, step, tokens, targets)
        _per_text_step(ref, batch, plan, ref_opt, teacher, *ref_caches)
        yield step, packed, ref


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["retrieval+teacher", "clustering+teacher", "retrieval-in-batch-only"])
def test_packed_step_bitwise_equals_per_text_step(case, dtype):
    """Every parameter gradient and every post-AdamW weight, after each of three
    steps, equals the per-text path bit for bit wherever that path added the
    texts' contributions in input order: with a teacher, or with in-batch
    negatives only (the stage-1 setting)."""
    fmt = CLUSTERING if case.startswith("clustering") else RETRIEVAL
    batch = _mixed_batch(fmt, seed=len(fmt))
    if case == "retrieval-in-batch-only":
        batch = Batch([rsample(query=s.query, positive=s.positive) for s in batch.samples])
    for step, packed, ref in _run_both(batch, dtype, with_teacher=case.endswith("teacher")):
        for name, p in packed.params.items():
            want = ref.params[name]
            assert p.grad.dtype == want.grad.dtype == dtype
            np.testing.assert_array_equal(p.grad, want.grad, err_msg=f"step {step} grad {name}")
            np.testing.assert_array_equal(p.values, want.values, err_msg=f"step {step} weight {name}")


def test_packed_step_matches_per_text_step_with_explicit_negatives_and_no_teacher():
    # Without a teacher, the per-text backward reached the negatives' graphs in
    # the loss graph's depth-first order rather than input order, so the packed
    # path, which adds in input order, agrees up to summation order only.
    batch = _mixed_batch(CLUSTERING, seed=1)
    for step, packed, ref in _run_both(batch, np.float64, with_teacher=False):
        for name, p in packed.params.items():
            want = ref.params[name]
            scale = np.abs(want.grad).max()
            np.testing.assert_allclose(p.grad, want.grad, rtol=0, atol=1e-12 * scale, err_msg=f"step {step} {name}")
            np.testing.assert_allclose(p.values, want.values, rtol=0, atol=1e-12, err_msg=f"step {step} {name}")


# --- what a training step's backward keeps ------------------------------------


def _step_graph(dtype, with_teacher):
    """The loss of one packed _train_step, before backward, and the student's
    parameters (no AdamW update, so the graph's weights stay as recorded)."""
    plan = make_plan(stage=2, loss=LossConfig(mrl_dims=(8, 16, 32)))
    teacher = init_model(PACKED_TEACHER_CFG, seed=4).astype(dtype) if with_teacher else None
    model = init_model(PACKED_CFG, seed=2).astype(dtype)
    losses = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "backward", losses.append)
        mp.setattr(tt, "adamw_step", lambda *args: None)
        batch = _mixed_batch(CLUSTERING, seed=3)
        targets = tt._teacher_targets(teacher, [batch], _tokens(teacher, batch)) if with_teacher else None
        tt._train_step(model, batch, plan, None, 1, _tokens(model, batch), targets)
    return losses[0], list(model.params.values())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("with_teacher", [True, False], ids=["teacher", "no-teacher"])
def test_packed_step_backward_keeps_leaf_gradients_only_and_bitwise_as_before(with_teacher, dtype):
    assert_backward_equals_reference(lambda: _step_graph(dtype, with_teacher))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_packed_step_vjps_called_twice_in_either_order_give_the_same_arrays(dtype):
    loss, _ = _step_graph(dtype, with_teacher=True)
    assert_vjps_repeat(ad.trace(loss).nodes, seed=5)


def test_a_trained_model_is_freed_without_the_cyclic_collector():
    # A graph node reaches its leaf tensor through a weak reference: a strong one
    # would make a tensor-node cycle that keeps each run's model and last graph
    # alive until a full collection.
    plan = make_plan(stage=2, loss=LossConfig(mrl_dims=(8, 16, 32)), epochs=2)
    teacher = init_model(PACKED_TEACHER_CFG, seed=4)
    gc.collect()
    gc.disable()
    try:
        model = init_model(PACKED_CFG, seed=2)
        tt.train_stage(model, [_mixed_batch(CLUSTERING, seed=3)], plan, teacher=teacher)
        weights = weakref.ref(model.params["layers.0.q_proj"].values)
        del model
        assert weights() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("teacher_len", [PACKED_CFG.max_seq_len, 16], ids=["shared-length", "teacher-shorter"])
def test_a_distilling_stage_tokenizes_each_text_once_per_length(monkeypatch, teacher_len):
    calls = Counter()
    tokenize_ = tt.tokenize

    def counting(text, max_seq_len):
        calls[text, max_seq_len] += 1
        return tokenize_(text, max_seq_len)

    monkeypatch.setattr(tt, "tokenize", counting)
    samples = _mixed_batch(CLUSTERING, seed=3).samples + _mixed_batch(CLUSTERING, seed=4).samples
    batches = epoch_batches(samples, 4, random.Random(0), 2)
    teacher = init_model(replace(PACKED_TEACHER_CFG, max_seq_len=teacher_len), seed=4)
    plan = make_plan(stage=2, loss=LossConfig(mrl_dims=(8, 16, 32)))
    tt.train_stage(init_model(PACKED_CFG, seed=2), batches, plan, teacher=teacher)
    texts = {text for batch in batches for text in tt._packed_texts(batch)}
    assert dict(calls) == {(text, n): 1 for text in texts for n in {PACKED_CFG.max_seq_len, teacher_len}}


def test_packed_step_memory_stays_near_its_node_values():
    # Traced bytes over the bytes of the node values the graph records with its
    # MLPs as matmul/silu/mul/matmul chains: shape x itemsize of every recorded
    # node, plus the gate, up, silu and mul outputs (four rows x width arrays)
    # that each gated_mlp node stands for. Backward frees each non-leaf gradient,
    # and each vjp with what it captured, once consumed: it peaks 0.15 above what
    # was live when it started, 0.28 with the vjps kept and 1.13 with every
    # gradient kept too (these with the chains). The vjps keep no copy they can
    # rebuild, and the graph no value that no vjp reads: the step peaks at 1.07,
    # and at 1.26 with the chains, 1.39 with the vjps kept as well, 1.59 when the
    # graph also linked tensors, 1.68-1.73 with any one of attention's operands,
    # rope's table rows or silu's sigmoid kept as well, 1.88 with all three and
    # 2.77 with every gradient kept.
    ad.backward(_step_graph(np.float32, with_teacher=False)[0])  # fill first-call caches untraced
    tracemalloc.start()
    try:
        loss, _ = _step_graph(np.float32, with_teacher=False)
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nodes = [n for n in ad.trace(loss).nodes if n.parents]
    values = sum(math.prod(n.shape) * n.dtype.itemsize for n in nodes)
    values += sum(4 * n.shape[0] * n.parents[1].shape[1] * n.dtype.itemsize for n in nodes if n.op == "gated_mlp")
    assert (peak - live) / values < 0.5
    assert peak / values < 1.26  # the peak with the chains


_NUMPY_MA_SCRIPT = """
import sys
from tinyembed import evaluation as ev, model as tm, synthetic as syn, training as tt
from tinyembed.data import CLUSTERING, RETRIEVAL, Batch, CanonicalSample

cfg = tm.ModelConfig(hidden_size=16, mlp_intermediate_size=32, num_layers=1, num_heads=2, num_kv_heads=1,
                     head_dim=4, vocab_size=258, max_seq_len=32)


def batch(fmt, negatives):
    return Batch([CanonicalSample(format=fmt, query=f"q{i}", positive=f"d{i}", negatives=negatives(i), source="s",
                                  task_type="t", symmetric=False) for i in range(4)])


def plan(stage):
    return tt.StagePlan(stage=stage, learning_rate=1e-3, epochs=1, batch_size=4,
                        loss=tt.LossConfig(mrl_dims=(8, 16)), seed=0)


tt.train_stage(tm.init_model(cfg, 1), [batch(RETRIEVAL, lambda i: [])], plan(1))
teacher = tm.init_model(cfg, 2)
tt.train_stage(tm.init_model(cfg, 1), [batch(CLUSTERING, lambda i: ["n"] * (1 + i % 2))], plan(2), teacher=teacher)
tasks = [syn.retrieval_eval_task("retrieval", 8, 4, 3), syn.sts_eval_task("sts", 8, 4),
         syn.pair_classification_eval_task("pairs", 8, 4, 5)]
report = ev.evaluate(teacher, tasks)
assert sorted(s.kind for s in report.scores) == ["PairClassification", "Retrieval", "STS"]
print("numpy.ma" in sys.modules)
"""


def test_the_pipeline_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, about 1.7 MB of resident
    # memory on numpy 2.4. A process of its own, as scipy.stats imports it here.
    src = str(Path(tinyembed.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _NUMPY_MA_SCRIPT], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert run.stdout.split() == ["False"], run.stdout
