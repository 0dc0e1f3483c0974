"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap row-major numpy arrays (float32 for training, float64 for
gradient checking). With gradients on, every primitive records a graph `Node`
for its output, apart from the output tensor: the op, its inputs' nodes and a
backward rule (the vjp). `backward` walks the graph in reverse topological
order exactly once, accumulating gradients into the leaves.

Forward kernels work in place on arrays the primitive allocated itself, never
on an input, with the ops of the plain expression in the same order, so they
round exactly as that expression would.

A training step holds only what backward will still read. The graph links
nodes, not tensors, so a value that no vjp captured dies with its tensor during
the forward. `backward` consumes the graph: it frees each non-leaf gradient,
and each vjp with the arrays it captured, once the vjp has run. A vjp keeps only
what it cannot cheaply rebuild: attention's head-layout operands, rope's table
rows and silu's sigmoid are made again when it runs, with the forward's ops.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    """Raised when a primitive receives incompatibly shaped inputs."""


class NonFiniteError(FloatingPointError):
    """Raised when a primitive produces NaN or Inf."""


class GradientCheckError(AssertionError):
    """Raised when analytic and finite-difference gradients disagree."""


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Disable graph recording in the current thread (e.g. teacher forward)."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def grad_enabled() -> bool:
    return _grad_mode.enabled


class Tensor:
    """A dense array plus optional gradient and a link into the compute graph.

    A tensor a primitive recorded with gradients holds its graph node (`_node`);
    other tensors hold None until a recorded primitive takes them as an input.
    `requires_grad` marks trainable leaves and propagates through primitives.
    """

    __slots__ = ("values", "grad", "requires_grad", "op", "_node", "__weakref__")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.values = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = "leaf"
        self._node: Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape}, requires_grad={self.requires_grad})"


class Node:
    """One output in the graph: its op, its inputs' nodes (`parents`), the vjp,
    a gradient slot that backward fills and empties, and the output's shape and
    dtype. A node with no parents is a leaf: it reaches its tensor through a weak
    reference (`tensor`) to publish `.grad`, as a strong one would make a
    tensor-node cycle that only a full garbage collection frees."""

    __slots__ = ("op", "parents", "vjp", "grad", "shape", "dtype", "tensor")

    def __init__(self, op: str, parents: tuple[Node, ...], vjp, shape: tuple[int, ...], dtype, tensor=None):
        self.op, self.parents, self.vjp, self.grad = op, parents, vjp, None
        self.shape, self.dtype, self.tensor = shape, dtype, tensor

    def wants_grad(self) -> bool:
        """Recorded outputs do; a leaf does while its tensor lives and requires grad."""
        t = self.tensor() if self.tensor is not None else None
        return bool(self.parents) or (t is not None and t.requires_grad)


def _node_of(t: Tensor) -> Node:
    """t's node; a tensor no primitive recorded gets a leaf node on first use."""
    if t._node is None:
        t._node = Node(t.op, (), None, t.values.shape, t.values.dtype, weakref.ref(t))
    return t._node


_PRIMITIVES: dict[str, str] = {}


def _primitive(name: str, doc: str):
    def wrap(fn):
        _PRIMITIVES[name] = doc
        return fn

    return wrap


def primitive_set() -> dict[str, str]:
    """Names and one-line descriptions of all supported primitives."""
    return dict(sorted(_PRIMITIVES.items()))


def _make(op: str, values: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    if not np.all(np.isfinite(values)):
        raise NonFiniteError(f"primitive {op!r} produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.values = values
    out.grad = None
    out.op = op
    out.requires_grad = _grad_mode.enabled and any(p.requires_grad for p in parents)
    out._node = Node(op, tuple(map(_node_of, parents)), vjp, values.shape, values.dtype) if out.requires_grad else None
    return out


def _shape_check(op: str, cond: bool, *shapes):
    if not cond:
        raise ShapeError(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def _check_segments(op: str, segments: Sequence[int] | None, rows: int) -> None:
    """Per-sequence row counts must be positive and cover every row."""
    if segments is not None:
        _shape_check(op, len(segments) > 0 and min(segments) >= 1 and sum(segments) == rows, (rows,), tuple(segments))


def _runs(segments: Sequence[int] | None, rows: int) -> list[tuple[int, int, int]]:
    """(first row, count, length) of each run of consecutive equal-length
    segments; no segments is one segment of every row."""
    runs, r0 = [], 0
    for t, run in itertools.groupby([rows] if segments is None else segments):
        n = len(list(run))
        runs.append((r0, n, t))
        r0 += n * t
    return runs


def _sum_slices(parts: np.ndarray) -> np.ndarray:
    """parts[0] + parts[1] + ... added slice by slice from zero, as backward adds
    the gradients of separate per-sequence graphs. np.add.reduce does that, but
    sums one-element slices pairwise, so those take a cumulative sum (+ 0.0
    gives a -0.0 total the sign a sum from zero would)."""
    if parts[0].size == 1:
        return np.cumsum(parts, axis=0)[-1] + 0.0
    return np.add.reduce(parts, axis=0, initial=0.0)


@_primitive("matmul", "matrix product of a (R,K) by b (K,C), optionally over row segments")
def matmul(a: Tensor, b: Tensor, segments: Sequence[int] | None = None) -> Tensor:
    """With segments (row counts of stacked sequences), every product rounds as
    the same matmul of each sequence alone would: a one-row segment keeps its own
    one-row product (numpy sends it to BLAS gemv, which rounds unlike gemm), and
    the vjp takes g @ b.T per segment, because a transposed b rounds differently
    in one stacked product. b's gradient is the sum of per-segment products.

    Each run of equal-length segments is one batched np.matmul over the run
    viewed as (segments, length, .): numpy makes the same BLAS call per segment
    as a loop of 2-D products would. b's per-segment parts of a run fill a
    stack after the earlier runs' sum, which _sum_slices adds in order."""
    av, bv = a.values, b.values
    _shape_check("matmul", av.ndim == 2 and bv.ndim == 2 and av.shape[1] == bv.shape[0], av.shape, bv.shape)
    _check_segments("matmul", segments, av.shape[0])
    out = av @ bv
    if segments is not None and len(segments) > 1 and 1 in segments:
        for r0, n, t in _runs(segments, av.shape[0]):
            if t == 1:
                np.matmul(av[r0 : r0 + n, None], bv, out=out[r0 : r0 + n, None])

    def vjp(g):
        runs = _runs(segments, av.shape[0])
        ga, gb = np.empty(av.shape, dtype=np.result_type(g, bv)), 0.0
        parts = np.empty((1 + max(n for _, n, _ in runs), *bv.shape), dtype=np.result_type(av, g))
        for r0, n, t in runs:
            r1 = r0 + n * t
            g_run = g[r0:r1].reshape(n, t, -1)
            np.matmul(g_run, bv.T, out=ga[r0:r1].reshape(n, t, -1))
            parts[0] = gb  # the earlier runs' sum
            np.matmul(av[r0:r1].reshape(n, t, -1).swapaxes(1, 2), g_run, out=parts[1 : 1 + n])
            gb = _sum_slices(parts[: 1 + n])
        return ga, gb

    return _make("matmul", out, (a, b), vjp)


@_primitive("transpose", "2-D transpose")
def transpose(a: Tensor) -> Tensor:
    _shape_check("transpose", a.values.ndim == 2, a.shape)

    def vjp(g):
        return (g.T.copy(),)

    return _make("transpose", a.values.T.copy(), (a,), vjp)


@_primitive("add", "elementwise sum of same-shaped tensors")
def add(a: Tensor, b: Tensor) -> Tensor:
    _shape_check("add", a.shape == b.shape, a.shape, b.shape)

    def vjp(g):
        return g, g

    return _make("add", a.values + b.values, (a, b), vjp)


@_primitive("mul", "elementwise product of same-shaped tensors")
def mul(a: Tensor, b: Tensor) -> Tensor:
    _shape_check("mul", a.shape == b.shape, a.shape, b.shape)
    av, bv = a.values, b.values

    def vjp(g):
        return g * bv, g * av

    return _make("mul", av * bv, (a, b), vjp)


@_primitive("scale", "multiply by a python scalar")
def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def vjp(g):
        return (g * s,)

    return _make("scale", a.values * s, (a,), vjp)


@lru_cache(maxsize=64)
def _future_mask(n: int) -> np.ndarray:
    """Score positions after the query's own, which the causal softmax hides (shared: read only)."""
    return np.triu(np.ones((n, n), dtype=bool), 1)


def _heads(x: np.ndarray, n: int, heads: int, hd: int) -> np.ndarray:
    """(n*T, heads*hd) rows -> contiguous (n, heads, T, hd) per-head blocks."""
    return np.ascontiguousarray(x.reshape(n, -1, heads, hd).transpose(0, 2, 1, 3))


def _rows(x: np.ndarray) -> np.ndarray:
    """Inverse of _heads: (n, heads, T, hd) -> (n*T, heads*hd)."""
    n, heads, t, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(n * t, heads * hd)


def _length_groups(lengths: Sequence[int] | None) -> list[tuple[int, slice | np.ndarray, slice | np.ndarray]]:
    """(number of sequences, their rows, their indices) per distinct length, in order."""
    if lengths is None or len(set(lengths)) == 1:
        return [(1 if lengths is None else len(lengths), slice(None), slice(None))]
    by_len: dict[int, list[int]] = {}
    for s, t in enumerate(lengths):
        by_len.setdefault(t, []).append(s)
    starts = np.cumsum([0, *lengths])
    return [
        (len(seqs), np.concatenate([np.arange(starts[s], starts[s + 1]) for s in seqs]), np.array(seqs))
        for seqs in by_len.values()
    ]


def _attend(qa: np.ndarray, ka: np.ndarray, va: np.ndarray, n: int, hd: int, n_kv: int, group: int):
    """Attention over n equal-length sequences stacked as rows: output rows and vjp.
    qa holds every query row, or only each sequence's last (one row per sequence).
    The vjp keeps the softmax but takes qa, ka and va again with the gradient and
    rebuilds the head-layout operands from them, exact copies not worth holding."""
    t, heads = ka.shape[0] // n, n_kv * group
    every_query = qa.shape[0] == n * t
    if every_query:
        # (n, kv, group, T, hd) queries against (n, kv, 1, ., .) keys and values
        def to5(x):
            return _heads(x, n, heads, hd).reshape(n, n_kv, group, t, hd)

        def rows(x):
            return _rows(x.reshape(n, heads, t, hd))
    else:
        # Last queries, two per product: each KV head's query heads, padded with
        # a zero row to an even count, as the rows of (2, hd) @ (hd, T) products.
        # A one-row product would go to gemv, and under OpenBLAS 0.3.31 a stack
        # of four rounded unlike the full product's last row for some head_dim
        # and T (float64 with head_dim 16, float32 with head_dim 32).
        pairs = (group + 1) // 2

        def to5(x):
            x4 = np.zeros((n, n_kv, 2 * pairs, hd), dtype=x.dtype)
            x4[:, :, :group] = x.reshape(n, n_kv, group, hd)
            return x4.reshape(n, n_kv, pairs, 2, hd)

        def rows(x):
            return x.reshape(n, n_kv, 2 * pairs, hd)[:, :, :group].reshape(n, heads * hd)

    def operands(qa, ka, va):
        q5 = to5(qa)
        kt5 = np.ascontiguousarray(ka.reshape(n, t, n_kv, hd).transpose(0, 2, 3, 1))[:, :, None]
        return q5, kt5, _heads(va, n, n_kv, hd)[:, :, None]

    q5, kt5, v5 = operands(qa, ka, va)
    # Masked softmax in place on the scores: hidden positions are -inf before the
    # max, so exp gives them exactly the 0 a masked select would, and every other
    # entry goes through the same ops in the same order. A last query hides nothing.
    p = q5 @ kt5
    if every_query:
        np.copyto(p, -np.inf, where=_future_mask(t))
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = p @ v5

    def group_sum(x):
        # Query heads (or pairs of them) add into their shared KV head in head order, from zero.
        acc = np.zeros_like(x[:, :, 0])
        for j in range(x.shape[2]):
            acc += x[:, :, j]
        return acc

    def vjp(gout, qa, ka, va):
        q5, kt5, v5 = operands(qa, ka, va)
        g5 = to5(gout)
        gv = group_sum(p.swapaxes(-1, -2) @ g5)
        # The softmax's vjp p * (gp - (gp * p).sum(-1)), in place on gp = g5 @ v5^T.
        gs = g5 @ v5.swapaxes(-1, -2)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gq = gs @ kt5.swapaxes(-1, -2)
        gkt = group_sum(q5.swapaxes(-1, -2) @ gs)
        return rows(gq), _rows(gkt.swapaxes(-1, -2)), _rows(gv)

    return rows(out), vjp


@_primitive("causal_attention", "causal softmax attention over stacked sequences, grouped KV heads")
def causal_attention(
    q: Tensor, k: Tensor, v: Tensor, head_dim: int, lengths: Sequence[int] | None = None, last_query: bool = False
) -> Tensor:
    """Rows of k and v are sequences of the given lengths stacked in order
    (default: one sequence), and so are the rows of q, or with last_query only
    each sequence's last query, one row per sequence. Columns are heads of
    head_dim. Query head h reads KV head h // (q_heads // kv_heads). Scores are
    q @ k^T as given (scale q beforehand), softmax over positions <= t within the
    sequence.

    Sequences of equal length are attended together. Every matmul takes
    contiguous (T, head_dim) and (head_dim, T) operands, or their transposed views
    in the vjp, exactly as a per-head loop of 2-D matmuls over each sequence
    alone would, so the result rounds the same as that loop. Last queries of the
    heads sharing a KV head go two at a time as the rows of (2, head_dim) @
    (head_dim, T) products, which round as the full products' last rows."""
    qa, ka, va = q.values, k.values, v.values
    shapes = (qa.shape, ka.shape, va.shape)
    _shape_check("causal_attention", qa.ndim == ka.ndim == 2 and ka.shape == va.shape, *shapes)
    rows, hd = ka.shape[0], head_dim
    n_kv = ka.shape[1] // hd
    seqs = 1 if lengths is None else len(lengths)
    _shape_check(
        "causal_attention",
        qa.shape[0] == (seqs if last_query else rows) and rows > 0 and n_kv > 0
        and qa.shape[1] % (n_kv * hd) == 0 and ka.shape[1] == n_kv * hd,
        *shapes,
    )
    _check_segments("causal_attention", lengths, rows)
    group = qa.shape[1] // (n_kv * hd)
    out = np.empty_like(qa)
    parts = []
    for n, kv_sel, seq_sel in _length_groups(lengths):
        q_sel = seq_sel if last_query else kv_sel
        out[q_sel], part_vjp = _attend(qa[q_sel], ka[kv_sel], va[kv_sel], n, hd, n_kv, group)
        parts.append((q_sel, kv_sel, part_vjp))

    def vjp(gout):
        gq, gk, gv = np.empty_like(qa), np.empty_like(ka), np.empty_like(va)
        for q_sel, kv_sel, part_vjp in parts:
            gq[q_sel], gk[kv_sel], gv[kv_sel] = part_vjp(gout[q_sel], qa[q_sel], ka[kv_sel], va[kv_sel])
        return gq, gk, gv

    return _make("causal_attention", out, (q, k, v), vjp)


@_primitive("rms_norm", "RMS normalization over each row (or row group) with a learned gain")
def rms_norm(
    a: Tensor, gain: Tensor, eps: float = 1e-6, group_size: int | None = None, segments: Sequence[int] | None = None
) -> Tensor:
    """With segments (row counts of stacked sequences), the gain gradient is the
    sum of per-segment sums, as separate per-sequence graphs would add it: one
    sum per run of equal-length segments, added in order as in matmul. The vjp
    works in place with the ops of the plain expression in the same order."""
    av = a.values
    _shape_check("rms_norm", av.ndim == 2, av.shape)
    rows, cols = av.shape
    _check_segments("rms_norm", segments, rows)
    size = cols if group_size is None else group_size
    _shape_check("rms_norm", cols % size == 0 and gain.shape == (size,), av.shape, gain.shape)
    groups = cols // size
    x = av.reshape(rows, groups, size)
    y = x * x
    inv = y.mean(axis=2, keepdims=True)
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    gv = gain.values
    np.multiply(x, inv, out=y)
    y *= gv
    out = y.reshape(rows, cols)

    def vjp(g):
        gg = g.reshape(rows, groups, size)
        g_xhat = gg * x
        g_xhat *= inv
        parts = np.empty((len(segments or [rows]), size), dtype=g_xhat.dtype)
        s = 0
        for r0, n, t in _runs(segments, rows):
            g_xhat[r0 : r0 + n * t].reshape(n, t * groups, size).sum(axis=1, out=parts[s : s + n])
            s += n
        # gx = inv * gw - (inv**3 / size) * x * (gw * x).sum(axis=2), gw = gg * gain
        gx = gg * gv
        np.multiply(gx, x, out=g_xhat)
        dot = g_xhat.sum(axis=2, keepdims=True)
        np.multiply(inv**3 / size, x, out=g_xhat)
        g_xhat *= dot
        gx *= inv
        gx -= g_xhat
        return gx.reshape(rows, cols), _sum_slices(parts)

    return _make("rms_norm", out, (a, gain), vjp)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), in place on one new array."""
    sig = np.negative(x)
    np.exp(sig, out=sig)
    sig += 1.0
    return np.divide(1.0, sig, out=sig)


@_primitive("silu", "x * sigmoid(x)")
def silu(a: Tensor) -> Tensor:
    """The vjp recomputes the sigmoid rather than keep it (its own `sig`)."""
    av = a.values
    sig = _sigmoid(av)

    def vjp(g):
        sig = _sigmoid(av)
        gx = np.subtract(1.0, sig)  # g * sig * (1.0 + av * (1.0 - sig)), in place
        gx *= av
        gx += 1.0
        gx *= g * sig
        return (gx,)

    return _make("silu", av * sig, (a,), vjp)


@_primitive("gather_rows", "select rows by integer index (embedding lookup / element select)")
def gather_rows(a: Tensor, indices: Sequence[int], segments: Sequence[int] | None = None) -> Tensor:
    """With segments (counts of consecutive indices, one per sequence), a's
    gradient is built per segment and the parts added in order from zero, as
    separate per-sequence lookups would add them (see matmul)."""
    av = a.values
    _shape_check("gather_rows", av.ndim == 2, av.shape)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= av.shape[0]):
        raise IndexError(f"gather_rows: index out of range for {av.shape[0]} rows")
    _check_segments("gather_rows", segments, idx.size)

    def vjp(g):
        # A part per segment holds only the distinct indices' rows. Each
        # (segment, id) slot adds its rows in row order from zero: a row's rank
        # is its occurrence count within its slot, and the rows of each rank
        # (at most one per slot) go in with one fancy-index += after the rank
        # before, as np.add.at would add them, at a fraction of its cost.
        lengths = [idx.size] if segments is None else segments
        ids, slot = np.unique(idx, return_inverse=True)
        key = np.repeat(np.arange(len(lengths)) * ids.size, lengths) + slot
        order = np.argsort(key, kind="stable")  # by slot, rows in row order
        pos = np.arange(idx.size)
        slot_start = np.maximum.accumulate(np.where(np.diff(key[order], prepend=-1) != 0, pos, 0))
        rank = np.empty_like(order)
        rank[order] = pos - slot_start
        parts = np.zeros((len(lengths) * ids.size, av.shape[1]), dtype=av.dtype)
        by_rank = np.argsort(rank, kind="stable")
        for rows in np.split(by_rank, np.cumsum(np.bincount(rank))[:-1]):
            parts[key[rows]] += g[rows]
        ga = np.zeros_like(av)
        ga[ids] = _sum_slices(parts.reshape(len(lengths), ids.size, av.shape[1]))
        return (ga,)

    return _make("gather_rows", av[idx], (a,), vjp)


@_primitive("slice_cols", "contiguous column slice")
def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    av = a.values
    _shape_check("slice_cols", av.ndim == 2, av.shape)
    if not (0 <= start < stop <= av.shape[1]):
        raise IndexError(f"slice_cols: [{start}:{stop}] out of range for {av.shape[1]} columns")

    def vjp(g):
        ga = np.zeros_like(av)
        ga[:, start:stop] = g
        return (ga,)

    return _make("slice_cols", av[:, start:stop].copy(), (a,), vjp)


@_primitive("concat", "concatenate along rows (axis 0) or columns (axis 1)")
def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ValueError("concat: empty input list")
    if axis not in (0, 1):
        raise ValueError(f"concat: axis must be 0 or 1, got {axis}")
    vals = [p.values for p in parts]
    other = 1 - axis
    _shape_check(
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

    return _make("concat", out, tuple(parts), vjp)


@_primitive("reshape", "view the same values under a new shape")
def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    av = a.values
    if int(np.prod(shape)) != av.size:
        raise ShapeError(f"reshape: cannot view {av.shape} as {tuple(shape)}")
    old = av.shape

    def vjp(g):
        return (g.reshape(old),)

    return _make("reshape", av.reshape(shape), (a,), vjp)


@_primitive("mean_all", "mean over all elements (scalar output)")
def mean_all(a: Tensor) -> Tensor:
    av = a.values
    n = av.size

    def vjp(g):
        return (np.full_like(av, g / n),)

    return _make("mean_all", np.asarray(av.mean(), dtype=av.dtype), (a,), vjp)


@_primitive("sum_all", "sum over all elements (scalar output)")
def sum_all(a: Tensor) -> Tensor:
    av = a.values

    def vjp(g):
        return (np.full_like(av, g),)

    return _make("sum_all", np.asarray(av.sum(), dtype=av.dtype), (a,), vjp)


@_primitive("l2_normalize_rows", "scale each row to unit Euclidean norm")
def l2_normalize_rows(a: Tensor) -> Tensor:
    av = a.values
    _shape_check("l2_normalize_rows", av.ndim == 2, av.shape)
    norms = np.sqrt((av * av).sum(axis=1, keepdims=True))
    if (norms < 1e-12).any():
        raise ValueError("l2_normalize_rows: a row has (near-)zero norm")
    y = av / norms

    def vjp(g):
        return ((g - y * (g * y).sum(axis=1, keepdims=True)) / norms,)

    return _make("l2_normalize_rows", y, (a,), vjp)


@_primitive("mse", "mean squared error between same-shaped tensors (scalar output)")
def mse(a: Tensor, b: Tensor) -> Tensor:
    _shape_check("mse", a.shape == b.shape, a.shape, b.shape)
    diff = a.values - b.values
    n = diff.size

    def vjp(g):
        d = (2.0 * g / n) * diff
        return d, -d

    return _make("mse", np.asarray((diff * diff).mean(), dtype=diff.dtype), (a, b), vjp)


@_primitive("cross_entropy", "mean of -log softmax(logits)[target] over rows (scalar output)")
def cross_entropy(logits: Tensor, targets: Sequence[int]) -> Tensor:
    lv = logits.values
    _shape_check("cross_entropy", lv.ndim == 2, lv.shape)
    t = np.asarray(targets, dtype=np.intp)
    _shape_check("cross_entropy", t.shape == (lv.shape[0],), lv.shape, t.shape)
    if t.size and (t.min() < 0 or t.max() >= lv.shape[1]):
        raise IndexError(f"cross_entropy: target out of range for {lv.shape[1]} classes")
    nll, p = _nll_softmax(lv, t)
    return _make("cross_entropy", np.asarray(nll.mean(), dtype=lv.dtype), (logits,), lambda g: (_nll_grad(p, t, g),))


def _nll_softmax(lv: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row -log softmax(lv)[t], and the softmax."""
    m = lv.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(lv - m).sum(axis=1, keepdims=True))
    return lse[:, 0] - lv[np.arange(lv.shape[0]), t], np.exp(lv - lse)


def _nll_grad(p: np.ndarray, t: np.ndarray, g) -> np.ndarray:
    """Logit gradient of g times the mean over rows of the -log softmax."""
    gl = p.copy()
    gl[np.arange(p.shape[0]), t] -= 1.0
    return gl * (g / p.shape[0])


@_primitive("info_nce", "mean over queries of cross_entropy(inv_t * q_i @ candidates_i^T) (scalar output)")
def info_nce(emb: Tensor, b: int, neg_counts: Sequence[int], inv_t: float, in_batch: bool) -> Tensor:
    """emb's rows are b queries, then their b positives, then each query's
    neg_counts[i] negatives in query order. Query i's candidates are p_i (the
    target), then its negatives, then with in_batch every other p_j in row order.

    Rounds exactly like one gather_rows/concat/transpose/matmul/scale/
    cross_entropy chain per query: each query's scores are a one-row product
    (gemv) with its contiguous transposed candidates, the per-query losses are
    summed in query order from the first, and the candidate rows' gradients add
    each query's part in query order.

    Queries with the same candidate count go together: one batched np.matmul
    makes the same gemv call per query, np.cumsum adds the losses strictly in
    query order, and the candidate rows' parts (exact outer products; zero for
    a row that is not the query's candidate) are added in query order."""
    ev = emb.values
    _shape_check(
        "info_nce",
        ev.ndim == 2 and len(neg_counts) == b >= 1 and min(neg_counts) >= 0 and ev.shape[0] == 2 * b + sum(neg_counts),
        ev.shape,
        (b, tuple(neg_counts)),
    )
    qv, rows = ev[:b], ev[b:]  # candidate rows: the positives, then the negatives
    inv_t, counts = float(inv_t), np.asarray(neg_counts, dtype=np.intp)
    first_neg = b + np.cumsum(counts) - counts
    others = np.arange(b - 1 if in_batch else 0)
    nll, groups = np.empty(b, dtype=ev.dtype), []
    for n in np.unique(counts):
        qs = np.flatnonzero(counts == n)
        # Row indices of each query's candidates: p_i, its negatives, the other p_j.
        idx = np.concatenate([qs[:, None], first_neg[qs, None] + np.arange(n), others + (others >= qs[:, None])], axis=1)
        qi, cand_t = qv[qs, None], np.ascontiguousarray(rows[idx].swapaxes(1, 2))
        nll[qs], soft = _nll_softmax((qi @ cand_t)[:, 0] * inv_t, np.zeros(qs.size, dtype=np.intp))
        groups.append((qs, idx, qi, cand_t, soft))

    def vjp(g):
        g_loss = g * (1.0 / b)
        g_emb = np.zeros_like(ev)
        parts = np.zeros((b, *rows.shape), dtype=ev.dtype)  # query i's part of every candidate row
        for qs, idx, qi, cand_t, soft in groups:
            gs = soft.copy()  # _nll_grad of each one-row loss, times inv_t
            gs[:, 0] -= 1.0
            gs *= g_loss
            gs *= inv_t
            g_emb[qs] += (gs[:, None] @ cand_t.swapaxes(1, 2))[:, 0]
            parts[qs[:, None], idx] = gs[:, :, None] * qi
        g_emb[b:] = _sum_slices(parts)
        return (g_emb,)

    return _make("info_nce", np.cumsum(nll)[-1] * (1.0 / b), (emb,), vjp)


_rope_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _rope_tables(n_pos: int, head_dim: int, heads: int, base: float, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(n_pos, heads * head_dim) tables for positions 0..n_pos-1: cos of each
    pair's angle in both halves of every head, and -sin in the first half, sin
    in the second."""
    key = (n_pos, head_dim, heads, base, np.dtype(dtype).str)
    hit = _rope_cache.get(key)
    if hit is None:
        half = head_dim // 2
        freqs = base ** (-np.arange(half, dtype=np.float64) * 2.0 / head_dim)
        angles = np.arange(n_pos, dtype=np.float64)[:, None] * freqs[None, :]
        cos, sin = np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)
        hit = (np.tile(np.hstack([cos, cos]), heads), np.tile(np.hstack([-sin, sin]), heads))
        if len(_rope_cache) < 256:
            _rope_cache[key] = hit
    return hit


def _swap_halves(x: np.ndarray, head_dim: int) -> np.ndarray:
    """A new array with the two halves of every head's columns swapped."""
    rows, cols = x.shape
    return x.reshape(rows, cols // head_dim, 2, head_dim // 2)[:, :, ::-1].copy().reshape(rows, cols)


@_primitive("rope", "rotary position embedding applied per head (rotate-half pairing)")
def rope(a: Tensor, head_dim: int, base: float = 10000.0, positions: Sequence[int] | None = None) -> Tensor:
    """Each head's halves (x1, x2) become (x1*cos - x2*sin, x2*cos + x1*sin),
    computed over whole rows as x*C + swap(x)*S with the _rope_tables rows of
    the positions. Negating a product and swapping two addends are exact, so
    this rounds like the rotate-half expression. The vjp gathers the table rows
    again rather than keep them."""
    av = a.values
    _shape_check("rope", av.ndim == 2 and av.shape[1] % head_dim == 0 and head_dim % 2 == 0, av.shape)
    T, cols = av.shape
    if positions is None:
        pos = np.arange(T)
    else:
        pos = np.asarray(positions, dtype=np.intp)
        _shape_check("rope", pos.shape == (T,), av.shape, pos.shape)
    cos, sin = _rope_tables(int(pos.max()) + 1 if T else 1, head_dim, cols // head_dim, base, av.dtype)
    c, s = cos[pos], sin[pos]
    out = av * c
    rot = _swap_halves(av, head_dim)
    rot *= s
    out += rot

    def vjp(g):
        # The inverse rotation: (g1*cos + g2*sin, g2*cos - g1*sin).
        c, s = cos[pos], sin[pos]
        gx = g * c
        rot = _swap_halves(g, head_dim)
        rot *= s
        gx -= rot
        return (gx,)

    return _make("rope", out, (a,), vjp)


# ---------------------------------------------------------------------------
# Backward pass and gradient checking
# ---------------------------------------------------------------------------


class ComputeGraph:
    """Topologically ordered view of the nodes that produced a tensor."""

    def __init__(self, nodes: list[Node]):
        self.nodes = nodes  # parents always precede children

    def __len__(self) -> int:
        return len(self.nodes)


def trace(output: Tensor) -> ComputeGraph:
    """Collect the graph below `output` in topological order (iterative DFS)."""
    nodes: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(_node_of(output), False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            nodes.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return ComputeGraph(nodes)


def backward(loss: Tensor) -> ComputeGraph:
    """Populate `.grad` on every leaf reachable from a scalar loss.

    Gradients are freshly computed per call (not accumulated across calls);
    within one call, tensors used in several places accumulate the sum of
    their downstream contributions. Only leaves keep `.grad`. The call consumes
    the graph: each node releases its vjp, with the arrays the vjp captured, and
    its gradient once the vjp has run, so a second backward over the same graph
    raises ShapeError; record the forward again instead. Returns the traversed
    graph.
    """
    if loss.values.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.values.shape}")
    graph = trace(loss)
    for node in graph.nodes:
        node.grad = None
        if not node.parents and node.wants_grad():
            node.tensor().grad = None
    graph.nodes[-1].grad = np.ones((), dtype=loss.values.dtype)
    for node in reversed(graph.nodes):
        if node.grad is None:
            continue
        if node.parents:
            _propagate(node)
        else:  # every gradient a leaf gets has been added: publish it
            t = node.tensor()
            if t is not None:
                t.grad = node.grad
            node.grad = None
    return graph


def _propagate(node: Node) -> None:
    """Add a recorded node's vjp of its gradient into its parents' gradients, and
    release the vjp and the gradient. Every array the call made or the vjp held
    is freed on return, before the next vjp runs."""
    g_out, vjp = node.grad, node.vjp
    node.grad = node.vjp = None
    if vjp is None:
        raise ShapeError(f"backward: the graph was consumed by an earlier backward ({node.op}'s vjp already ran)")
    for parent, g in zip(node.parents, vjp(g_out)):
        if g is None or not parent.wants_grad():
            continue
        if np.shape(g) != parent.shape:
            raise ShapeError(f"backward: {node.op} gave a {np.shape(g)} gradient for a {parent.shape} input")
        if parent.grad is None:
            parent.grad = np.array(g, dtype=parent.dtype)
        else:
            parent.grad += g


def grad_check(
    fn: Callable[[Tensor], Tensor],
    point: Tensor,
    tolerance: float,
    step: float = 1e-4,
    max_coords: int | None = None,
    seed: int = 0,
) -> float:
    """Compare analytic gradients of `fn` against central finite differences.

    Runs in float64 regardless of the point's dtype. Checks every coordinate
    unless `max_coords` caps it, in which case a seeded uniform sample of
    coordinates is checked (needed to keep whole-model checks affordable).
    Returns the max of |analytic - numeric| / max(1, |numeric|) over checked
    coordinates; raises GradientCheckError if it exceeds `tolerance`.
    """
    x64 = np.asarray(point.values, dtype=np.float64)
    leaf = Tensor(x64.copy(), requires_grad=True)
    loss = fn(leaf)
    if loss.values.shape != ():
        raise ShapeError(f"grad_check: fn must return a scalar, got shape {loss.values.shape}")
    backward(loss)
    analytic = np.zeros_like(x64) if leaf.grad is None else leaf.grad
    flat = x64.reshape(-1)
    n = flat.size
    if max_coords is not None and max_coords < n:
        coords = np.random.default_rng(seed).choice(n, size=max_coords, replace=False)
    else:
        coords = np.arange(n)
    a_flat = analytic.reshape(-1)
    worst = 0.0
    with no_grad():
        for i in coords:
            orig = flat[i]
            flat[i] = orig + step
            f_plus = float(fn(Tensor(x64)).values)
            flat[i] = orig - step
            f_minus = float(fn(Tensor(x64)).values)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            rel = abs(a_flat[i] - numeric) / max(1.0, abs(numeric))
            if rel > worst:
                worst = rel
    if worst > tolerance:
        raise GradientCheckError(f"gradient check failed: max relative error {worst:.3e} > {tolerance:.3e}")
    return worst
