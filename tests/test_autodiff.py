"""Forward/backward unit tests and finite-difference checks for every primitive."""

import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

from tinyembed import autodiff as ad
from tinyembed.autodiff import Tensor

from reference import (
    GradientCheckError, _nll_grad, concat, cross_entropy, grad_check, mul, reshape, silu, sum_all, transpose,
)


def leaf(values, requires_grad=True):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=requires_grad)


# --- forward oracles -------------------------------------------------------


def test_softmax_uniform_on_zeros():
    # Zero scores: position t averages the values at positions 0..t.
    v = np.arange(6.0).reshape(3, 2)
    out = ad.causal_attention(leaf(np.zeros((3, 2))), leaf(np.zeros((3, 2))), leaf(v), head_dim=2)
    np.testing.assert_allclose(out.values, np.cumsum(v, axis=0) / np.arange(1, 4)[:, None], atol=1e-12)


def test_rms_norm_constant_vector():
    out = ad.rms_norm(leaf([[2.0, 2.0, 2.0, 2.0]]), leaf(np.ones(4)))
    np.testing.assert_allclose(out.values, np.ones((1, 4)), atol=1e-6)


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 3)), rng.standard_normal((3, 2))
    got = ad.matmul(leaf(a), leaf(b)).values
    want = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(3):
                want[i, j] += a[i, k] * b[k, j]
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_softmax_rows_sum_to_one():
    # Constant values come back unchanged only if each row's weights sum to one;
    # later positions (masked out) must not reach earlier rows at all.
    rng = np.random.default_rng(1)
    q, k = leaf(rng.standard_normal((2 * 7, 4)) * 3), leaf(rng.standard_normal((2 * 7, 2)) * 3)
    ones = ad.causal_attention(q, k, leaf(np.ones((14, 2))), head_dim=2, lengths=(7, 7)).values
    np.testing.assert_allclose(ones, np.ones((14, 4)), atol=1e-6)
    v = rng.standard_normal((14, 2))
    base = ad.causal_attention(q, k, leaf(v), head_dim=2, lengths=(7, 7)).values
    v[5:7] += 100.0  # the last two positions of sequence 0
    moved = ad.causal_attention(q, k, leaf(v), head_dim=2, lengths=(7, 7)).values
    np.testing.assert_array_equal(base[:5], moved[:5])
    np.testing.assert_array_equal(base[7:], moved[7:])


def test_l2_normalize_rows_unit_norm():
    rng = np.random.default_rng(2)
    y = ad.l2_normalize_rows(leaf(rng.standard_normal((6, 9)))).values
    np.testing.assert_allclose(np.linalg.norm(y, axis=1), np.ones(6), atol=1e-6)


def test_rope_preserves_norm_and_position_zero():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 8))
    y = ad.rope(leaf(x), head_dim=8).values
    # rotations are orthogonal per position
    np.testing.assert_allclose(np.linalg.norm(y, axis=1), np.linalg.norm(x, axis=1), atol=1e-9)
    # position 0 rotates by angle 0
    np.testing.assert_allclose(y[0], x[0], atol=1e-12)


# --- error handling --------------------------------------------------------


def test_shape_error_names_primitive_and_shapes():
    with pytest.raises(ad.ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        ad.matmul(leaf(np.zeros((2, 3))), leaf(np.zeros((2, 3))))


def test_non_finite_is_hard_error():
    big = leaf(np.full((1, 2), 1e300))
    with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError, match="mul"):
        mul(big, big)


def test_backward_requires_scalar_loss():
    x = leaf(np.ones((2, 2)))
    y = ad.add(x, x)
    with pytest.raises(ad.ShapeError, match="scalar"):
        ad.backward(y)


def test_zero_norm_row_rejected():
    with pytest.raises(ValueError, match="zero norm"):
        ad.l2_normalize_rows(leaf(np.zeros((1, 4))))


# --- backward oracles ------------------------------------------------------


def test_backward_sum_gives_ones():
    x = leaf(np.arange(6.0).reshape(2, 3))
    ad.backward(sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_half_squared_norm_gives_x():
    rng = np.random.default_rng(4)
    v = rng.standard_normal((3, 4))
    x = leaf(v)
    ad.backward(ad.scale(sum_all(mul(x, x)), 0.5))
    np.testing.assert_allclose(x.grad, v, atol=1e-12)


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    logits = np.array([[0.2, -1.0, 0.7]])
    x = leaf(logits)
    ad.backward(cross_entropy(x, [1]))
    e = np.exp(logits - logits.max())
    p = e / e.sum()
    want = p.copy()
    want[0, 1] -= 1.0
    np.testing.assert_allclose(x.grad, want, atol=1e-12)


def test_shared_subexpression_accumulates_like_duplicate_graph():
    rng = np.random.default_rng(5)
    v = rng.standard_normal((3, 3))
    x = leaf(v)
    y = silu(x)
    ad.backward(sum_all(ad.add(y, y)))
    shared_grad = x.grad.copy()

    x1, x2 = leaf(v), leaf(v)
    ad.backward(sum_all(ad.add(silu(x1), silu(x2))))
    np.testing.assert_allclose(shared_grad, x1.grad + x2.grad, atol=1e-12)


def test_non_trainable_leaves_untouched():
    x = leaf(np.ones((2, 2)))
    c = leaf(np.ones((2, 2)), requires_grad=False)
    ad.backward(sum_all(mul(x, c)))
    assert c.grad is None
    assert x.grad is not None


def test_no_grad_builds_no_graph():
    x = leaf(np.ones((2, 2)))
    with ad.no_grad():
        y = ad.add(x, x)
    assert not y.requires_grad and y._node is None


# --- what the graph keeps --------------------------------------------------------


def test_a_value_no_vjp_captured_dies_with_its_tensor_before_backward():
    # scale's vjp keeps only its factor, so nothing but the rope tensor holds the
    # rope output; the graph links scale to rope's node, not to the tensor.
    x = leaf(np.random.default_rng(41).standard_normal((6, 8)))
    r = ad.rope(x, head_dim=4)
    rope_out = weakref.ref(r.values)
    y = ad.scale(r, 0.5)
    del r
    assert rope_out() is None
    ad.backward(sum_all(mul(y, y)))
    assert x.grad is not None and x.grad.shape == (6, 8)


def test_a_second_backward_over_a_consumed_graph_raises():
    x = leaf(np.random.default_rng(42).standard_normal((3, 4)))
    loss = sum_all(silu(x))
    ad.backward(loss)
    first = x.grad.copy()
    with pytest.raises(ad.ShapeError, match="consumed by an earlier backward"):
        ad.backward(loss)
    # A fresh forward records a fresh graph.
    ad.backward(sum_all(silu(x)))
    np.testing.assert_array_equal(x.grad, first)


def test_graph_node_visited_once():
    x = leaf(np.ones((2, 2)))
    y = ad.add(x, x)
    z = sum_all(ad.add(y, y))
    graph = ad.trace(z)
    assert len({id(n) for n in graph.nodes}) == len(graph.nodes)


# --- backward keeps only the leaves' gradients --------------------------------


def reference_backward(loss):
    """backward as it was before it freed gradients: every gradient is copied
    and kept, on leaves and non-leaves alike."""
    graph = ad.trace(loss)
    for node in graph.nodes:
        node.grad = None
    graph.nodes[-1].grad = np.ones((), dtype=loss.values.dtype)
    for node in reversed(graph.nodes):
        if node.vjp is None or node.grad is None:
            continue
        for parent, g in zip(node.parents, node.vjp(node.grad)):
            if parent.wants_grad() and g is not None:
                if parent.grad is None:
                    parent.grad = np.array(g, dtype=parent.dtype)
                else:
                    parent.grad += g
    for node in graph.nodes:
        if not node.parents and node.wants_grad():
            node.tensor().grad = node.grad
    return graph


def assert_backward_equals_reference(build):
    """build() makes a fresh (loss, leaves). ad.backward gives every leaf the
    reference's gradient bit for bit and leaves no non-leaf with a gradient."""
    loss, leaves = build()
    graph = ad.backward(loss)
    assert [n.op for n in graph.nodes if n.parents and n.grad is not None] == []
    ref_loss, ref_leaves = build()
    reference_backward(ref_loss)
    for got, want in zip(leaves, ref_leaves):
        assert got.grad.dtype == want.grad.dtype == got.dtype
        np.testing.assert_array_equal(got.grad, want.grad)


def _shared_graph(v):
    x = Tensor(v.copy(), requires_grad=True)
    y = silu(x)
    return sum_all(ad.add(y, y)), [x]


def _reshape_slice_graph(v):
    # Overlapping column slices of one flat row, as model_from_flat makes them.
    x = Tensor(v.copy(), requires_grad=True)
    row = reshape(x, (1, v.size))
    a = reshape(ad.slice_cols(row, 0, 8), (2, 4))
    b = reshape(ad.slice_cols(row, 4, 12), (4, 2))
    return ad.add(sum_all(silu(a)), sum_all(mul(b, b))), [x]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("graph", [_shared_graph, _reshape_slice_graph])
def test_backward_keeps_leaf_gradients_only_and_bitwise_as_before(graph, dtype):
    v = np.random.default_rng(11).standard_normal((3, 4)).astype(dtype)
    assert_backward_equals_reference(lambda: graph(v))


def assert_vjps_repeat(nodes, seed):
    """Each node's vjp gives the same arrays bit for bit when called again, the
    second pass in the opposite order: what a vjp rebuilds does not depend on
    which vjps ran before it."""
    rng = np.random.default_rng(seed)
    nodes = [n for n in nodes if n.vjp is not None]
    grads = [np.asarray(rng.standard_normal(n.shape), dtype=n.dtype) for n in nodes]
    first = [n.vjp(g) for n, g in zip(reversed(nodes), reversed(grads))][::-1]
    for node, g, want in zip(nodes, grads, first):
        for got, w in zip(node.vjp(g), want):
            assert (got is None) == (w is None), node.op
            if w is not None:
                np.testing.assert_array_equal(got, w, err_msg=node.op)


# --- finite-difference checks for every primitive --------------------------

RNG = np.random.default_rng(7)
_B = Tensor(RNG.standard_normal((4, 3)), requires_grad=False)
_C = Tensor(RNG.standard_normal((3, 5)), requires_grad=False)
_W = Tensor(RNG.standard_normal((3, 4)), requires_grad=False)
# Two stacked sequences of 3 tokens, 6 query heads sharing 2 KV heads, head_dim 2.
_AQ = Tensor(RNG.standard_normal((6, 12)), requires_grad=False)
_AK = Tensor(RNG.standard_normal((6, 4)), requires_grad=False)
_AV = Tensor(RNG.standard_normal((6, 4)), requires_grad=False)
_AO = Tensor(RNG.standard_normal((6, 12)), requires_grad=False)


def _attention_case(q, k, v):
    return sum_all(mul(ad.causal_attention(q, k, v, head_dim=2, lengths=(3, 3)), _AO))


# Ragged: a length-1 sequence between two of length 2, then one of length 3.
_RAGGED = (2, 1, 2, 3)
_RQ = Tensor(RNG.standard_normal((8, 12)), requires_grad=False)
_RK = Tensor(RNG.standard_normal((8, 4)), requires_grad=False)
_RV = Tensor(RNG.standard_normal((8, 4)), requires_grad=False)
_RO = Tensor(RNG.standard_normal((8, 12)), requires_grad=False)
_SW = Tensor(RNG.standard_normal((8, 4)), requires_grad=False)  # weights of segmented outputs


def _ragged_attention_case(q, k, v):
    return sum_all(mul(ad.causal_attention(q, k, v, head_dim=2, lengths=_RAGGED), _RO))


# Each sequence's last query alone: one row per sequence of _RAGGED.
_LQ = Tensor(RNG.standard_normal((4, 12)), requires_grad=False)
_LO = Tensor(RNG.standard_normal((4, 12)), requires_grad=False)


def _last_query_attention_case(q, k, v):
    return sum_all(mul(ad.causal_attention(q, k, v, head_dim=2, lengths=_RAGGED, last_query=True), _LO))


# Three queries and in-batch positives; query 0 has two negatives, query 1 none, query 2 one.
_NQ = Tensor(RNG.standard_normal((3, 4)), requires_grad=False)
_NP = Tensor(RNG.standard_normal((3, 4)), requires_grad=False)
_NN0 = Tensor(RNG.standard_normal((2, 4)), requires_grad=False)
_NN2 = Tensor(RNG.standard_normal((1, 4)), requires_grad=False)


def _info_nce_case(q, p, n0):
    return ad.info_nce(concat([q, p, n0, _NN2], axis=0), 3, [2, 0, 1], inv_t=1.5, in_batch=True)


# A gated MLP of hidden 3 and width 5 over the 8 rows of _RAGGED.
_MX = Tensor(RNG.standard_normal((8, 3)), requires_grad=False)
_MG = Tensor(RNG.standard_normal((3, 5)), requires_grad=False)
_MU = Tensor(RNG.standard_normal((3, 5)), requires_grad=False)
_MD = Tensor(RNG.standard_normal((5, 3)), requires_grad=False)
_MO = Tensor(RNG.standard_normal((8, 3)), requires_grad=False)


def _gated_mlp_case(x, w_gate, w_up, w_down, segments=_RAGGED):
    return sum_all(mul(ad.gated_mlp(x, w_gate, w_up, w_down, segments=segments), _MO))


SMOOTH = 1e-5
DEFAULT = 1e-3

GRAD_CASES = {
    "matmul": (lambda x: sum_all(mul(ad.matmul(x, _C), ad.matmul(x, _C))), (4, 3), SMOOTH),
    "matmul_rhs": (lambda x: sum_all(mul(ad.matmul(_B, x), ad.matmul(_B, x))), (3, 5), SMOOTH),
    "transpose": (lambda x: sum_all(mul(transpose(x), _C)), (5, 3), SMOOTH),
    "add": (lambda x: sum_all(mul(ad.add(x, _W), ad.add(x, _W))), (3, 4), SMOOTH),
    "mul": (lambda x: sum_all(silu(mul(x, _W))), (3, 4), SMOOTH),
    "scale": (lambda x: sum_all(silu(ad.scale(x, 1.7))), (3, 4), SMOOTH),
    "causal_attention_q": (lambda x: _attention_case(x, _AK, _AV), (6, 12), SMOOTH),
    "causal_attention_k": (lambda x: _attention_case(_AQ, x, _AV), (6, 4), SMOOTH),
    "causal_attention_v": (lambda x: _attention_case(_AQ, _AK, x), (6, 4), SMOOTH),
    "rms_norm": (lambda x: sum_all(mul(ad.rms_norm(x, Tensor(np.full(4, 1.3))), _W)), (3, 4), SMOOTH),
    "rms_norm_gain": (lambda x: sum_all(mul(ad.rms_norm(_W, reshape(x, (4,))), _W)), (4, 1), SMOOTH),
    "rms_norm_grouped": (
        lambda x: sum_all(mul(ad.rms_norm(x, Tensor(np.full(2, 0.8)), group_size=2), _W)),
        (3, 4),
        SMOOTH,
    ),
    "silu": (lambda x: sum_all(silu(x)), (3, 4), SMOOTH),
    "gather_rows": (lambda x: sum_all(silu(ad.gather_rows(x, [0, 2, 2]))), (4, 3), SMOOTH),
    "slice_cols": (lambda x: sum_all(silu(ad.slice_cols(x, 1, 3))), (3, 4), SMOOTH),
    "reshape": (lambda x: sum_all(silu(reshape(x, (2, 6)))), (3, 4), SMOOTH),
    "concat": (lambda x: sum_all(silu(concat([x, x], axis=1))), (3, 4), SMOOTH),
    "concat_rows": (lambda x: sum_all(silu(concat([x, ad.scale(x, 2.0)], axis=0))), (3, 4), SMOOTH),
    "sum_all": (lambda x: sum_all(silu(x)), (3, 4), SMOOTH),
    "l2_normalize_rows": (lambda x: sum_all(mul(ad.l2_normalize_rows(x), _W)), (3, 4), SMOOTH),
    "mse": (lambda x: ad.mse(x, _W), (3, 4), SMOOTH),
    "mse_rhs": (lambda x: ad.mse(_W, x), (3, 4), SMOOTH),
    "cross_entropy": (lambda x: cross_entropy(x, [2, 0, 1]), (3, 4), SMOOTH),
    "rope": (lambda x: sum_all(silu(ad.rope(x, head_dim=4))), (5, 8), SMOOTH),
    "matmul_segments": (
        lambda x: sum_all(mul(ad.matmul(x, _C, segments=_RAGGED), ad.matmul(x, _C, segments=_RAGGED))),
        (8, 3),
        SMOOTH,
    ),
    "matmul_segments_rhs": (
        lambda x: sum_all(mul(ad.matmul(_RK, x, segments=_RAGGED), ad.matmul(_RK, x, segments=_RAGGED))),
        (4, 3),
        SMOOTH,
    ),
    "rms_norm_segments": (
        lambda x: sum_all(mul(ad.rms_norm(x, Tensor(np.full(4, 1.3)), segments=_RAGGED), _SW)),
        (8, 4),
        SMOOTH,
    ),
    "rms_norm_segments_gain": (
        lambda x: sum_all(mul(ad.rms_norm(_RK, reshape(x, (4,)), segments=_RAGGED), _SW)),
        (4, 1),
        SMOOTH,
    ),
    "gather_rows_segments": (
        lambda x: sum_all(silu(ad.gather_rows(x, [0, 2, 2, 1, 0, 2, 3, 3], segments=_RAGGED))),
        (4, 3),
        SMOOTH,
    ),
    "causal_attention_ragged_q": (lambda x: _ragged_attention_case(x, _RK, _RV), (8, 12), SMOOTH),
    "causal_attention_ragged_k": (lambda x: _ragged_attention_case(_RQ, x, _RV), (8, 4), SMOOTH),
    "causal_attention_ragged_v": (lambda x: _ragged_attention_case(_RQ, _RK, x), (8, 4), SMOOTH),
    "causal_attention_last_q": (lambda x: _last_query_attention_case(x, _RK, _RV), (4, 12), SMOOTH),
    "causal_attention_last_k": (lambda x: _last_query_attention_case(_LQ, x, _RV), (8, 4), SMOOTH),
    "causal_attention_last_v": (lambda x: _last_query_attention_case(_LQ, _RK, x), (8, 4), SMOOTH),
    "info_nce_q": (lambda x: _info_nce_case(x, _NP, _NN0), (3, 4), SMOOTH),
    "info_nce_p": (lambda x: _info_nce_case(_NQ, x, _NN0), (3, 4), SMOOTH),
    "info_nce_n": (lambda x: _info_nce_case(_NQ, _NP, x), (2, 4), SMOOTH),
    "gated_mlp": (lambda x: _gated_mlp_case(x, _MG, _MU, _MD, segments=None), (8, 3), SMOOTH),
    "gated_mlp_segments": (lambda x: _gated_mlp_case(x, _MG, _MU, _MD), (8, 3), SMOOTH),
    "gated_mlp_segments_w_gate": (lambda x: _gated_mlp_case(_MX, x, _MU, _MD), (3, 5), SMOOTH),
    "gated_mlp_segments_w_up": (lambda x: _gated_mlp_case(_MX, _MG, x, _MD), (3, 5), SMOOTH),
    "gated_mlp_segments_w_down": (lambda x: _gated_mlp_case(_MX, _MG, _MU, x), (5, 3), SMOOTH),
}


def test_every_registered_primitive_has_a_grad_case():
    checked = {name.split("_rhs")[0] for name in GRAD_CASES}
    checked = {n[:-len("_masked")] if n.endswith("_masked") else n for n in checked}
    checked = {n[:-len("_gain")] if n.endswith("_gain") else n for n in checked}
    checked = {n[:-len("_grouped")] if n.endswith("_grouped") else n for n in checked}
    checked = {n[:-len("_rows")] if n == "concat_rows" else n for n in checked}
    checked = {n[:-len("_q")] if n.startswith(("causal_attention_", "info_nce_")) else n for n in checked}
    checked = {n.split("_segments")[0] for n in checked}
    assert set(ad.primitive_set()) <= checked


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_primitive_gradient(name):
    fn, shape, tol = GRAD_CASES[name]
    point = Tensor(np.random.default_rng(zlib.crc32(name.encode())).standard_normal(shape))
    err = grad_check(fn, point, tolerance=tol)
    assert err < tol


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_vjp_called_twice_in_either_order_gives_the_same_arrays(name):
    fn, shape, _ = GRAD_CASES[name]
    x = Tensor(np.random.default_rng(zlib.crc32(name.encode())).standard_normal(shape), requires_grad=True)
    assert_vjps_repeat(ad.trace(fn(x)).nodes, seed=len(name))


# --- causal_attention against the per-head loop it replaced ------------------


def _row_softmax(a, mask):
    """The masked row softmax primitive the per-head loop was built from."""
    av = a.values
    m = np.where(mask, av, -np.inf).max(axis=1, keepdims=True)
    e = np.where(mask, np.exp(av - m), 0.0)
    p = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return (p * (g - (g * p).sum(axis=1, keepdims=True)),)

    return ad._make("row_softmax", p, (a,), vjp)


def _per_head_attention(q, k, v, head_dim, num_kv_heads):
    """One sequence, one slice/transpose/matmul/softmax/matmul chain per query head."""
    hd = head_dim
    heads = q.shape[1] // hd
    group = heads // num_kv_heads
    mask = np.tril(np.ones((q.shape[0], q.shape[0]), dtype=bool))
    k_heads = [ad.slice_cols(k, g * hd, (g + 1) * hd) for g in range(num_kv_heads)]
    v_heads = [ad.slice_cols(v, g * hd, (g + 1) * hd) for g in range(num_kv_heads)]
    outs = []
    for head in range(heads):
        g = head // group
        qh = ad.slice_cols(q, head * hd, (head + 1) * hd)
        probs = _row_softmax(ad.matmul(qh, transpose(k_heads[g])), mask)
        outs.append(ad.matmul(probs, v_heads[g]))
    return concat(outs, axis=1)


def _attention_configs(count=48, max_seq_len=96):
    """(dtype, sequences, T, kv_heads, group, head_dim): KV heads from 1 up to all
    heads, groups of up to 5 query heads, T from 1 to max_seq_len."""
    rng = np.random.default_rng(12)
    fixed = [(1, 1, 1), (max_seq_len, 4, 1), (33, 1, 3), (48, 2, 3), (75, 1, 4), (2, 3, 5)]
    configs = []
    for i in range(count):
        if i < len(fixed):
            t, kv, group = fixed[i]
        else:
            t, kv, group = int(rng.integers(1, max_seq_len + 1)), int(rng.integers(1, 5)), int(rng.integers(1, 6))
        dtype = (np.float32, np.float64)[i % 2]
        configs.append((dtype, int(rng.integers(1, 4)), t, kv, group, int(rng.choice([2, 4, 8, 16]))))
    return configs


def test_causal_attention_bitwise_equals_per_head_loop():
    rng = np.random.default_rng(13)
    for dtype, n, t, kv, group, hd in _attention_configs():
        q0, k0, v0, w0 = (
            rng.standard_normal((n * t, cols)).astype(dtype)
            for cols in (kv * group * hd, kv * hd, kv * hd, kv * group * hd)
        )
        q, k, v = (Tensor(x.copy(), requires_grad=True) for x in (q0, k0, v0))
        fused = ad.causal_attention(q, k, v, head_dim=hd, lengths=(t,) * n)
        ad.backward(sum_all(mul(fused, Tensor(w0))))
        for s in range(n):
            rows = slice(s * t, (s + 1) * t)
            qs, ks, vs = (Tensor(x[rows].copy(), requires_grad=True) for x in (q0, k0, v0))
            ref = _per_head_attention(qs, ks, vs, hd, kv)
            ad.backward(sum_all(mul(ref, Tensor(w0[rows].copy()))))
            for got, want in ((fused.values, ref.values), (q.grad, qs.grad), (k.grad, ks.grad), (v.grad, vs.grad)):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got[rows], want, err_msg=f"{dtype.__name__} n={n} T={t} kv={kv} group={group} hd={hd}")


def test_ragged_causal_attention_bitwise_equals_one_sequence_at_a_time():
    rng = np.random.default_rng(15)
    for dtype in (np.float32, np.float64):
        for kv, group, hd in ((1, 1, 2), (2, 2, 8), (2, 3, 4)):
            lengths = [3, 1, 5, 3, 1, 8, 5, 2, 3]
            rows = sum(lengths)
            q0, k0, v0, w0 = (
                rng.standard_normal((rows, cols)).astype(dtype)
                for cols in (kv * group * hd, kv * hd, kv * hd, kv * group * hd)
            )
            q, k, v = (Tensor(x.copy(), requires_grad=True) for x in (q0, k0, v0))
            ragged = ad.causal_attention(q, k, v, head_dim=hd, lengths=lengths)
            ad.backward(sum_all(mul(ragged, Tensor(w0))))
            ends = np.cumsum(lengths)
            for r0, r1 in zip(ends - lengths, ends):
                qs, ks, vs = (Tensor(x[r0:r1].copy(), requires_grad=True) for x in (q0, k0, v0))
                alone = ad.causal_attention(qs, ks, vs, head_dim=hd)
                ad.backward(sum_all(mul(alone, Tensor(w0[r0:r1].copy()))))
                pairs = ((ragged.values, alone.values), (q.grad, qs.grad), (k.grad, ks.grad), (v.grad, vs.grad))
                for got, want in pairs:
                    np.testing.assert_array_equal(got[r0:r1], want, err_msg=f"{dtype.__name__} rows {r0}:{r1}")


def test_last_query_attention_equals_the_last_rows_of_full_attention():
    # Last queries go two to a product (a one-row product would be gemv), which
    # rounds as the full attention's last rows. Gradients are checked against the
    # full attention's with the output gradient on the last rows only.
    rng = np.random.default_rng(17)
    lengths = [3, 1, 5, 3, 1, 8, 5, 2, 3]
    ends = np.cumsum(lengths) - 1
    for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-12)):
        for kv, group, hd in ((1, 1, 2), (2, 2, 8), (2, 3, 4), (1, 4, 16), (1, 5, 32)):
            q0, k0, v0 = (rng.standard_normal((ends[-1] + 1, c)).astype(dtype) for c in (kv * group * hd, kv * hd, kv * hd))
            w0 = np.zeros_like(q0)
            w0[ends] = rng.standard_normal((len(lengths), q0.shape[1]))
            q, k, v = (Tensor(x.copy(), requires_grad=True) for x in (q0, k0, v0))
            full = ad.causal_attention(q, k, v, head_dim=hd, lengths=lengths)
            ad.backward(sum_all(mul(full, Tensor(w0))))
            ql, kl, vl = (Tensor(x.copy(), requires_grad=True) for x in (q0[ends], k0, v0))
            last = ad.causal_attention(ql, kl, vl, head_dim=hd, lengths=lengths, last_query=True)
            ad.backward(sum_all(mul(last, Tensor(w0[ends]))))
            msg = f"{dtype.__name__} kv={kv} group={group} hd={hd}"
            np.testing.assert_array_equal(last.values, full.values[ends], err_msg=msg)
            for got, want in ((ql.grad, q.grad[ends]), (kl.grad, k.grad), (vl.grad, v.grad)):
                np.testing.assert_allclose(got, want, rtol=tol, atol=tol, err_msg=msg)
    with pytest.raises(ad.ShapeError, match="causal_attention"):
        ad.causal_attention(leaf(q0), leaf(k0), leaf(v0), head_dim=16, lengths=lengths, last_query=True)


def test_segmented_matmul_equals_per_segment_products_bitwise():
    """Output rows, input gradient rows and the weight gradient (per-segment
    products added in order) equal each segment's own products. A stacked
    g @ W.T (W transposed) rounds differently, and so does a one-row product
    taken inside a stacked gemm."""
    rng = np.random.default_rng(16)
    for dtype in (np.float32, np.float64):
        for k in (32, 64, 128, 256):
            for c in (32, 64, 128, 256):
                lengths = rng.permutation(np.arange(1, 41)).tolist()
                rows = sum(lengths)
                a0, w0, g0 = (rng.standard_normal(shape).astype(dtype) for shape in ((rows, k), (k, c), (rows, c)))
                a, w = Tensor(a0.copy(), requires_grad=True), Tensor(w0.copy(), requires_grad=True)
                out = ad.matmul(a, w, segments=lengths)
                ad.backward(sum_all(mul(out, Tensor(g0))))
                gw = np.zeros_like(w0)
                ends = np.cumsum(lengths)
                for r0, r1 in zip(ends - lengths, ends):
                    a_s, g_s = a0[r0:r1].copy(), g0[r0:r1].copy()
                    msg = f"{dtype.__name__} K={k} C={c} rows {r0}:{r1}"
                    np.testing.assert_array_equal(out.values[r0:r1], a_s @ w0, err_msg=msg)
                    np.testing.assert_array_equal(a.grad[r0:r1], g_s @ w0.T, err_msg=msg)
                    gw += a_s.T @ g_s
                np.testing.assert_array_equal(w.grad, gw, err_msg=f"{dtype.__name__} K={k} C={c}")


@pytest.mark.parametrize("shape", [(41, 3), (16, 2), (7, 1), (40,), (0, 5)])
def test_sum_slices_adds_slice_after_slice_from_zero(shape):
    # The one in-order sum: gradients, calibration totals and the InfoNCE total.
    parts = np.random.default_rng(sum(shape)).random(shape) * 10
    want = np.zeros(shape[1:])
    for part in parts:
        want = want + part
    np.testing.assert_array_equal(ad.sum_slices(parts), want)


def test_segments_must_cover_the_rows():
    x, w = leaf(np.zeros((5, 2))), leaf(np.zeros((2, 2)))
    for bad in ((2, 2), (3, 3), (5, 0), ()):
        with pytest.raises(ad.ShapeError, match="matmul"):
            ad.matmul(x, w, segments=bad)
    with pytest.raises(ad.ShapeError, match="rms_norm"):
        ad.rms_norm(x, leaf(np.ones(2)), segments=(4,))
    with pytest.raises(ad.ShapeError, match="gather_rows"):
        ad.gather_rows(w, [0, 1, 1], segments=(1, 1))


def test_causal_attention_rejects_bad_shapes():
    with pytest.raises(ad.ShapeError, match="causal_attention"):
        ad.causal_attention(leaf(np.zeros((6, 8))), leaf(np.zeros((6, 6))), leaf(np.zeros((6, 6))), head_dim=2)
    with pytest.raises(ad.ShapeError, match="causal_attention"):
        ad.causal_attention(leaf(np.zeros((5, 4))), leaf(np.zeros((5, 2))), leaf(np.zeros((5, 2))), head_dim=2, lengths=(2, 2))


def test_info_nce_rejects_bad_shapes():
    for rows, b, counts in [
        ((5, 4), 2, [0, 0]),  # a row beyond the queries, positives and negatives
        ((4, 4), 2, [1, 0]),  # a negative count with no row
        ((4, 4), 2, [0]),  # one count for two queries
        ((4, 4), 2, [1, -1]),
        ((0, 4), 0, []),
        ((4,), 2, [0, 0]),
    ]:
        with pytest.raises(ad.ShapeError, match="info_nce"):
            ad.info_nce(leaf(np.zeros(rows)), b, counts, inv_t=1.0, in_batch=True)


# --- forward kernels against the expressions they replaced ------------------


def _silu_reference(a):
    av = a.values
    sig = 1.0 / (1.0 + np.exp(-av))

    def vjp(g):
        return (g * sig * (1.0 + av * (1.0 - sig)),)

    return ad._make("silu", av * sig, (a,), vjp)


def _bounds(segments, rows):
    """(start, stop) rows of consecutive segments; no segments is one segment of every row."""
    if segments is None:
        return [(0, rows)]
    ends = np.cumsum(segments).tolist()
    return list(zip([0] + ends[:-1], ends))


def _sum_in_order(like, parts):
    """Per-segment parts added from zero in segment order."""
    acc = np.zeros_like(like)
    for part in parts:
        acc += part
    return acc


def _rms_norm_reference(a, gain, group_size=None, segments=None):
    av = a.values
    rows, cols = av.shape
    size = cols if group_size is None else group_size
    groups = cols // size
    x = av.reshape(rows, groups, size)
    inv = 1.0 / np.sqrt((x * x).mean(axis=2, keepdims=True) + ad.RMS_EPS)
    gv = gain.values
    y = x * inv * gv

    def vjp(g):
        gg = g.reshape(rows, groups, size)
        g_xhat = gg * x * inv
        ggain = _sum_in_order(gv, (g_xhat[r0:r1].sum(axis=(0, 1)) for r0, r1 in _bounds(segments, rows)))
        gw = gg * gv
        gx = inv * gw - (inv**3 / size) * x * (gw * x).sum(axis=2, keepdims=True)
        return gx.reshape(rows, cols), ggain

    return ad._make("rms_norm", y.reshape(rows, cols), (a, gain), vjp)


def _rope_reference(a, head_dim, base=10000.0, positions=None):
    av = a.values
    T, cols = av.shape
    heads, half = cols // head_dim, head_dim // 2
    pos = np.arange(T) if positions is None else np.asarray(positions, dtype=np.intp)
    freqs = base ** (-np.arange(half, dtype=np.float64) * 2.0 / head_dim)
    angles = np.arange(int(pos.max()) + 1, dtype=np.float64)[:, None] * freqs[None, :]
    cos, sin = np.cos(angles).astype(av.dtype)[pos][:, None, :], np.sin(angles).astype(av.dtype)[pos][:, None, :]
    x = av.reshape(T, heads, head_dim)
    x1, x2 = x[..., :half], x[..., half:]
    out = np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=2).reshape(T, cols)

    def vjp(g):
        gr = g.reshape(T, heads, head_dim)
        g1, g2 = gr[..., :half], gr[..., half:]
        return (np.concatenate([g1 * cos + g2 * sin, -g1 * sin + g2 * cos], axis=2).reshape(T, cols),)

    return ad._make("rope", out, (a,), vjp)


def _assert_bitwise_like_reference(new, reference, inputs, rng, msg):
    """Output and every input gradient equal the reference's bit for bit, and no
    input array is written to."""
    copies = [x.copy() for x in inputs]
    w, results = None, []
    for fn in (new, reference):
        leaves = [Tensor(x, requires_grad=True) for x in inputs]
        out = fn(*leaves)
        if w is None:
            w = Tensor(np.asarray(rng.standard_normal(out.shape)).astype(out.dtype))
        ad.backward(sum_all(mul(out, w)))
        results.append([out.values] + [t.grad for t in leaves])
    for got, want in zip(*results):
        assert got.dtype == want.dtype, msg
        np.testing.assert_array_equal(got, want, err_msg=msg)
    for x, c in zip(inputs, copies):
        np.testing.assert_array_equal(x, c, err_msg=f"{msg}: input written")


def test_silu_bitwise_equals_previous_expression():
    rng = np.random.default_rng(21)
    for dtype in (np.float32, np.float64):
        for shape in ((1, 1), (1, 24), (7, 24), (512, 256)):
            x = (rng.standard_normal(shape) * 4).astype(dtype)
            extremes = (-100.0, 100.0, -30.0, 30.0, 0.0, 1e-30)[: x.size]
            x.flat[: len(extremes)] = extremes  # exp overflows to inf at -100 in float32
            with np.errstate(over="ignore"):
                _assert_bitwise_like_reference(silu, _silu_reference, [x], rng, f"{dtype.__name__} {shape}")


def test_rms_norm_bitwise_equals_previous_expression():
    rng = np.random.default_rng(22)
    for dtype in (np.float32, np.float64):
        for rows, cols, group, segments in (
            (1, 16, None, None), (1, 16, 4, None), (9, 64, None, None), (9, 64, 16, None),
            (9, 64, None, (3, 1, 5)), (9, 64, 16, (1, 8)), (512, 64, None, (128,) * 4), (512, 64, 16, None),
            (9, 48, 24, (4, 5)), (7, 24, None, None), (9, 24, 3, None), (5, 21, 7, (2, 3)), (3, 7, None, None),
        ):
            x = (rng.standard_normal((rows, cols)) * 3).astype(dtype)
            gain = rng.standard_normal(cols if group is None else group).astype(dtype)
            kw = dict(group_size=group, segments=segments)
            _assert_bitwise_like_reference(
                lambda a, g: ad.rms_norm(a, g, **kw), lambda a, g: _rms_norm_reference(a, g, **kw),
                [x, gain], rng, f"{dtype.__name__} rows={rows} cols={cols} group={group} segments={segments}",
            )


def test_rope_bitwise_equals_previous_expression():
    rng = np.random.default_rng(23)
    for dtype in (np.float32, np.float64):
        for positions, heads, hd in (
            ([0], 1, 2), ([5], 4, 16), (list(range(12)), 2, 8), ([0, 1, 2, 0, 1, 0], 4, 16),
            (list(range(64)) * 8, 4, 16), ([3, 0, 7, 7, 1], 3, 4),
        ):
            x = rng.standard_normal((len(positions), heads * hd)).astype(dtype)
            _assert_bitwise_like_reference(
                lambda a: ad.rope(a, hd, positions=positions), lambda a: _rope_reference(a, hd, positions=positions),
                [x], rng, f"{dtype.__name__} T={len(positions)} heads={heads} hd={hd}",
            )


# --- run-batched vjps against the per-segment and per-query loops they replaced


def _matmul_reference(a, b, segments=None):
    av, bv = a.values, b.values
    bounds = _bounds(segments, av.shape[0])
    out = av @ bv
    for r0, r1 in bounds:
        if segments is not None and len(segments) > 1 and r1 - r0 == 1:
            out[r0:r1] = av[r0:r1] @ bv

    def vjp(g):
        ga = np.concatenate([g[r0:r1] @ bv.T for r0, r1 in bounds])
        return ga, _sum_in_order(bv, (av[r0:r1].T @ g[r0:r1] for r0, r1 in bounds))

    return ad._make("matmul", out, (a, b), vjp)


def _gather_rows_reference(a, indices, segments=None):
    av, idx = a.values, np.asarray(indices, dtype=np.intp)

    def scatter(r0, r1, g):
        ga = np.zeros_like(av)
        np.add.at(ga, idx[r0:r1], g[r0:r1])
        return ga

    def vjp(g):
        return (_sum_in_order(av, (scatter(r0, r1, g) for r0, r1 in _bounds(segments, idx.size))),)

    return ad._make("gather_rows", av[idx], (a,), vjp)


def _info_nce_reference(emb, b, neg_counts, inv_t, in_batch):
    """One one-row gemv, softmax and loss per query, summed in query order."""
    ev = emb.values
    qv, rows = ev[:b], ev[b:]
    target, queries, total, start = np.zeros(1, dtype=np.intp), [], None, b
    for i, n in enumerate(neg_counts):
        others = [j for j in range(b) if j != i] if in_batch else []
        idx = np.array([i, *range(start, start + n), *others])
        start += n
        qi, cand_t = qv[i : i + 1].copy(), rows[idx].T.copy()
        nll, soft = ad._nll_softmax((qi @ cand_t) * inv_t, target)
        total = nll[0] if total is None else total + nll[0]
        queries.append((idx, qi, cand_t, soft))

    def vjp(g):
        g_loss = g * (1.0 / b)
        g_emb = np.zeros_like(ev)
        gq, g_rows = g_emb[:b], g_emb[b:]
        for i, (idx, qi, cand_t, soft) in enumerate(queries):
            gs = _nll_grad(soft, target, g_loss) * inv_t
            gq[i] += (gs @ cand_t.T)[0]
            g_rows[idx] += (qi.T @ gs).T
        return (g_emb,)

    return ad._make("info_nce", total * (1.0 / b), (emb,), vjp)


# Interleaved runs of equal lengths (a long train_distill batch has dozens), one-token
# segments alone and between others, one segment, and no segments.
_SEGMENT_CASES = ([32, 78, 32, 32, 78, 1, 1, 5], [1] * 7, [1, 3, 3, 1, 1, 2, 2, 2, 1], [12] * 4 + [16] * 4, [9], None)


def test_run_batched_matmul_bitwise_equals_per_segment_reference():
    rng = np.random.default_rng(31)
    for dtype in (np.float32, np.float64):
        for segments in _SEGMENT_CASES:
            rows = 9 if segments is None else sum(segments)
            for k, c in ((64, 64), (64, 32), (64, 256), (256, 64), (3, 5), (1, 1)):
                a, w = (rng.standard_normal(shape).astype(dtype) for shape in ((rows, k), (k, c)))
                _assert_bitwise_like_reference(
                    lambda x, y: ad.matmul(x, y, segments=segments),
                    lambda x, y: _matmul_reference(x, y, segments=segments),
                    [a, w], rng, f"{dtype.__name__} K={k} C={c} segments={segments}",
                )


def test_run_batched_rms_norm_bitwise_equals_per_segment_reference():
    rng = np.random.default_rng(32)
    for dtype in (np.float32, np.float64):
        for segments in _SEGMENT_CASES:
            rows = 9 if segments is None else sum(segments)
            for cols, group in ((64, None), (64, 16), (32, 16), (256, None), (1, None)):
                x = (rng.standard_normal((rows, cols)) * 3).astype(dtype)
                gain = rng.standard_normal(cols if group is None else group).astype(dtype)
                kw = dict(group_size=group, segments=segments)
                _assert_bitwise_like_reference(
                    lambda a, g: ad.rms_norm(a, g, **kw), lambda a, g: _rms_norm_reference(a, g, **kw),
                    [x, gain], rng, f"{dtype.__name__} cols={cols} group={group} segments={segments}",
                )


def test_run_batched_gather_rows_bitwise_equals_per_segment_reference():
    rng = np.random.default_rng(33)
    for dtype in (np.float32, np.float64):
        for segments in _SEGMENT_CASES:
            rows = 9 if segments is None else sum(segments)
            for vocab, width in ((5, 64), (258, 64), (1, 1)):
                table = rng.standard_normal((vocab, width)).astype(dtype)
                idx = rng.integers(0, vocab, rows).tolist()
                _assert_bitwise_like_reference(
                    lambda a: ad.gather_rows(a, idx, segments=segments),
                    lambda a: _gather_rows_reference(a, idx, segments=segments),
                    [table], rng, f"{dtype.__name__} vocab={vocab} segments={segments}",
                )


def test_grouped_info_nce_bitwise_equals_per_query_reference():
    rng = np.random.default_rng(34)
    for dtype in (np.float32, np.float64):
        for b, counts in ((1, [0]), (1, [3]), (5, [2, 0, 3, 2, 0]), (16, [0] * 16), (8, [3, 3, 1, 3, 0, 1, 3, 3])):
            for in_batch in (True, False):
                for d in (1, 8, 64):
                    emb = rng.standard_normal((2 * b + sum(counts), d)).astype(dtype)
                    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
                    _assert_bitwise_like_reference(
                        lambda e: ad.info_nce(e, b, counts, inv_t=20.0, in_batch=in_batch),
                        lambda e: _info_nce_reference(e, b, counts, inv_t=20.0, in_batch=in_batch),
                        [emb], rng, f"{dtype.__name__} b={b} counts={counts} in_batch={in_batch} d={d}",
                    )


# --- gated_mlp against the matmul/silu/mul/matmul chain it replaced -----------


def unfused_gated_mlp(x, w_gate, w_up, w_down, segments=None, acts=None):
    """The MLP as the matmul/silu/mul/matmul chain; its activation is appended to acts."""
    act = mul(silu(ad.matmul(x, w_gate, segments)), ad.matmul(x, w_up, segments))
    if acts is not None:
        acts.append(act.values)
    return ad.matmul(act, w_down, segments)


def test_gated_mlp_bitwise_equals_the_unfused_chain():
    # Forward, the activation it appends and every gradient, x's the sum of the
    # gate and up parts as backward adds them.
    rng = np.random.default_rng(35)
    for dtype in (np.float32, np.float64):
        for segments in _SEGMENT_CASES:
            rows = 9 if segments is None else sum(segments)
            for hidden, width in ((64, 256), (32, 128), (3, 5)):
                shapes = ((rows, hidden), (hidden, width), (hidden, width), (width, hidden))
                inputs = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
                msg = f"{dtype.__name__} hidden={hidden} width={width} segments={segments}"
                _assert_bitwise_like_reference(
                    lambda *a: ad.gated_mlp(*a, segments=segments), lambda *a: unfused_gated_mlp(*a, segments=segments),
                    inputs, rng, msg,
                )
                acts, want = [], []
                ad.gated_mlp(*map(Tensor, inputs), segments=segments, acts=acts)
                unfused_gated_mlp(*map(Tensor, inputs), segments=segments, acts=want)
                assert len(acts) == 1 and acts[0].dtype == dtype
                np.testing.assert_array_equal(acts[0], want[0], err_msg=msg)


def test_gated_mlp_names_itself_when_a_value_the_chain_checked_overflows():
    # float32 overflows above 3.4e38: in the gate, in the up product, in the
    # activation silu(gate) * up, and only in the output.
    one = np.ones((1, 1), dtype=np.float32)
    for x, wg, wu, wd in ((2.0, 3e38, 1.0, 1.0), (2.0, 1.0, 3e38, 1.0), (2e20, 1.0, 1.0, 1.0), (2e18, 1.0, 1.0, 1e4)):
        for fn, name in ((ad.gated_mlp, "gated_mlp"), (unfused_gated_mlp, "matmul|mul")):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ad.NonFiniteError, match=name):
                fn(*(Tensor(one * v, requires_grad=True) for v in (x, wg, wu, wd)))


# --- the gated_mlp and attention vjps in blocks of whole sequences -------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_vjps_in_blocks_bitwise_equal_one_block(dtype, monkeypatch):
    # A 7-row budget splits the run of four 3-row segments, and the 3-row
    # segment after them, across blocks; the one-token segment shares a block;
    # the 9-row segment is a block of its own; the two 2-row sequences, not
    # adjacent, attend in one block.
    seg = [3, 3, 3, 3, 1, 5, 2, 5, 3, 9, 2]
    rows, rng = sum(seg), np.random.default_rng(41)
    mlp = [rng.standard_normal(s).astype(dtype) for s in ((rows, 8), (8, 12), (8, 12), (12, 8), (rows, 8))]
    every = [rng.standard_normal(s).astype(dtype) for s in ((rows, 16), (rows, 8), (rows, 8), (rows, 16))]
    last = [rng.standard_normal((len(seg), 16)).astype(dtype) for _ in range(2)]  # last queries, their gradient
    results = []
    for budget in (10**9, 7):
        monkeypatch.setattr(ad, "MAX_FORWARD_TOKENS", budget)
        out = ad.gated_mlp(*(Tensor(a, requires_grad=True) for a in mlp[:4]), segments=seg)
        got = [out.values, *out._node.vjp(mlp[4])]
        for q, g, last_query in ((every[0], every[3], False), (last[0], last[1], True)):
            kv = (Tensor(a, requires_grad=True) for a in every[1:3])
            att = ad.causal_attention(Tensor(q, requires_grad=True), *kv, 4, lengths=seg, last_query=last_query)
            got += [att.values, *att._node.vjp(g)]
        results.append(got)
    assert [b[:2] for b in ad._blocks(seg, rows)] == [[0, 6], [6, 13], [13, 20], [20, 25], [25, 28], [28, 37], [37, 39]]
    assert [n for n, _, _ in ad._length_blocks(seg)] == [1, 2, 2, 2, 1, 1, 1, 1]
    for i, (one, blocked) in enumerate(zip(*results)):
        assert blocked.dtype == dtype
        np.testing.assert_array_equal(blocked, one, err_msg=f"result {i}")


def test_gated_mlp_vjp_transient_stays_within_a_block():
    # 2,048 rows of 32-row segments are four 512-row blocks. Beside the
    # gradients it returns, the vjp holds at most three block rows x MLP arrays
    # and a weight gradient's stack at once; over the whole input it held three
    # rows x MLP arrays, 3.1 MB here.
    rows, hidden, width = 2048, 16, 64
    rng = np.random.default_rng(42)
    shapes = ((rows, hidden), (hidden, width), (hidden, width), (width, hidden), (rows, hidden))
    x, wg, wu, wd, g = (rng.standard_normal(s) for s in shapes)
    out = ad.gated_mlp(*(Tensor(a, requires_grad=True) for a in (x, wg, wu, wd)), segments=[32] * (rows // 32))
    tracemalloc.start()
    try:
        grads = out._node.vjp(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in grads)
    assert peak - returned < 4 * ad.MAX_FORWARD_TOKENS * width * x.itemsize


def test_backward_rejects_a_gradient_shaped_unlike_its_input():
    x = leaf(np.ones((4, 3)))
    y = ad._make("first_row_only", x.values * 2.0, (x,), lambda g: (g[:1],))
    with pytest.raises(ad.ShapeError, match="first_row_only"):
        ad.backward(sum_all(y))


def test_causal_attention_leaves_the_shared_mask_alone():
    q = leaf(np.random.default_rng(24).standard_normal((5, 4)))
    ad.causal_attention(q, q, q, head_dim=2)
    np.testing.assert_array_equal(ad._future_mask(5), np.triu(np.ones((5, 5), dtype=bool), 1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_scores_that_overflow_raise_naming_causal_attention(dtype):
    # Finite queries whose scores overflow to +inf or -inf: the max subtraction
    # gives NaN either way, and the output's finite check names the primitive.
    huge = np.finfo(dtype).max / 2
    lengths = [3, 4]
    for sign in (1.0, -1.0):
        q0 = np.ones((7, 4), dtype=dtype)
        q0[5] = sign * huge
        k0, v0 = np.full((7, 4), 4.0, dtype=dtype), np.ones((7, 4), dtype=dtype)
        for last_query in (False, True):
            q, k, v = (Tensor(x.copy(), requires_grad=True) for x in (q0[[2, 5]] if last_query else q0, k0, v0))
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ad.NonFiniteError, match="causal_attention"):
                ad.causal_attention(q, k, v, head_dim=2, lengths=lengths, last_query=last_query)


# --- the softmax row max: halving np.maximum against ndarray.max -------------


def _bits(x):
    return x.view(np.uint32 if x.dtype == np.float32 else np.uint64)


def _score_rows(rng, width, dtype):
    """(2, 5, width) score rows: plain, causally masked, one NaN, +inf and -inf
    entries, all -inf, the max in the last column, the max in column 0, and
    +inf beside -inf."""
    rows = rng.standard_normal((10, width)) * 4
    rows[1, rng.integers(1, width + 1) :] = -np.inf
    rows[2, rng.integers(width)] = np.nan
    rows[3, rng.integers(width)] = np.inf
    rows[4, rng.integers(width)] = -np.inf
    rows[5] = -np.inf
    rows[6, -1] = 100.0
    rows[7, 0] = 100.0
    rows[8, :: 2] = np.inf
    rows[8, 1 :: 2] = -np.inf
    rows[9, rng.integers(width)] = -np.inf
    rows[9, rng.integers(width)] = np.inf
    return rows.astype(dtype).reshape(2, 5, width)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_max_bitwise_equals_max_at_every_width(dtype):
    rng = np.random.default_rng(25)
    for width in range(1, 98):
        p = _score_rows(rng, width, dtype)
        before = p.copy()
        got, want = ad._row_max(p), p.max(axis=-1, keepdims=True)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=f"width {width}")
        assert np.isnan(got[0, 2, 0]) and got[1, 0, 0] == -np.inf  # NaN stays NaN, all -inf stays -inf
        np.testing.assert_array_equal(_bits(p), _bits(before), err_msg=f"width {width}: input written")
        assert not np.shares_memory(got, p)


def _softmax_in_place(p, row_max):
    """The attention softmax's steps, with the given row max."""
    p = p.copy()
    p -= row_max(p)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_on_the_halving_row_max_bitwise_equals_max(dtype):
    # Rows whose max is +0 or -0, reached by either sign first, next to masked
    # entries: the subtraction may flip the sign of a zero, and exp maps both to 1.
    rng = np.random.default_rng(26)
    for width in range(1, 98):
        rows = -np.abs(rng.standard_normal((8, width))) - 0.5
        signed = np.where(rng.random((8, width)) < 0.5, 0.0, -0.0)
        zero_cols = rng.random((8, width)) < 0.3
        zero_cols[:, rng.integers(width)] = True
        rows[:6] = np.where(zero_cols[:6], signed[:6], rows[:6])
        rows[2:4, rng.integers(1, width + 1) :] = -np.inf
        rows[2:4, 0] = signed[2:4, 0]
        rows[6:] = rng.standard_normal((2, width))  # plain rows beside them
        p = rows.astype(dtype).reshape(2, 4, width)
        assert (ad._row_max(p)[:, :, 0] == p.max(axis=-1)).all()
        got = _softmax_in_place(p, ad._row_max)
        want = _softmax_in_place(p, lambda x: x.max(axis=-1, keepdims=True))
        np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=f"width {width}")


# --- grad_check behavior ----------------------------------------------------


def test_grad_check_affine_is_exact():
    fn = lambda x: ad.add(ad.scale(sum_all(x), 3.0), Tensor(np.asarray(1.5)))
    err = grad_check(fn, Tensor(np.random.default_rng(8).standard_normal((3, 3))), tolerance=1e-10)
    assert err < 1e-10


def test_grad_check_softmax_cross_entropy():
    fn = lambda x: cross_entropy(x, [3])
    err = grad_check(fn, Tensor(np.random.default_rng(9).standard_normal((1, 8))), tolerance=1e-5)
    assert err < 1e-5


def test_grad_check_raises_on_wrong_gradient():
    def fn(x):
        out = sum_all(x)
        wrong = ad.scale(out, 1.0)
        if wrong._node is not None:  # no graph in grad_check's no-grad evaluations
            wrong._node.vjp = lambda g: (np.full_like(x.values, 5.0),)
            wrong._node.parents = (x._node,)
        return wrong

    with pytest.raises(GradientCheckError):
        grad_check(fn, Tensor(np.ones((2, 2))), tolerance=1e-3)


def test_grad_check_subsampling_is_deterministic():
    fn = lambda x: sum_all(silu(x))
    pt = Tensor(np.random.default_rng(10).standard_normal((6, 6)))
    e1 = grad_check(fn, pt, tolerance=1e-4, max_coords=10, seed=3)
    e2 = grad_check(fn, pt, tolerance=1e-4, max_coords=10, seed=3)
    assert e1 == e2
