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
rows, and gated_mlp's sigmoid, silu output and activation are made again when
it runs, with the forward's ops. The gated_mlp and attention vjps run in
blocks of whole sequences, so their transients are a block's.
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

# Most rows one block of whole sequences holds: a no-grad forward chunk
# (length_chunks), an attention block, a block of gated_mlp's vjp. It
# bounds the scores, taps and vjp transients held at once. Fuller blocks pay the
# per-primitive overhead less often: in a timing of 128, 512, 1024 and 2048-token
# no-grad chunks on the benchmark's eval and teacher texts, 512 was fastest.
MAX_FORWARD_TOKENS = 512


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


def _check_finite(op: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise NonFiniteError(f"primitive {op!r} produced non-finite values")


def _make(op: str, values: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    _check_finite(op, values)
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


def _blocks(segments: Sequence[int] | None, rows: int) -> list[list]:
    """[first row, end row, runs from the first row] of consecutive blocks of
    whole segments, at most MAX_FORWARD_TOKENS rows or one segment each: runs
    split into sub-runs within the budget, which a block takes while they fit."""
    blocks: list[list] = []
    for r0, n, t in _runs(segments, rows):
        per = max(1, MAX_FORWARD_TOKENS // t)
        for s in range(0, n, per):
            m = min(per, n - s)
            if not blocks or blocks[-1][1] - blocks[-1][0] + m * t > MAX_FORWARD_TOKENS:
                blocks.append([r0 + s * t, r0 + s * t, []])
            blocks[-1][2].append((blocks[-1][1] - blocks[-1][0], m, t))
            blocks[-1][1] += m * t
    return blocks


def _sum_slices(parts: np.ndarray) -> np.ndarray:
    """parts[0] + parts[1] + ... added slice by slice from zero, as backward adds
    the gradients of separate per-sequence graphs. np.add.reduce does that, but
    sums one-element slices pairwise, so those take a cumulative sum (+ 0.0
    gives a -0.0 total the sign a sum from zero would)."""
    if parts[0].size == 1:
        return np.cumsum(parts, axis=0)[-1] + 0.0
    return np.add.reduce(parts, axis=0, initial=0.0)


def _matmul_rows(av: np.ndarray, bv: np.ndarray, segments: Sequence[int] | None) -> np.ndarray:
    """av @ bv, each one-row segment taking its own one-row product (see matmul)."""
    out = av @ bv
    if segments is not None and len(segments) > 1 and 1 in segments:
        for r0, n, t in _runs(segments, av.shape[0]):
            if t == 1:
                np.matmul(av[r0 : r0 + n, None], bv, out=out[r0 : r0 + n, None])
    return out


def _matmul_grad_a(g: np.ndarray, bv: np.ndarray, runs, out: np.ndarray | None = None) -> np.ndarray:
    """a's gradient of av @ bv: g @ bv.T per run of equal-length segments, into out if given."""
    ga = np.empty((g.shape[0], bv.shape[0]), dtype=np.result_type(g, bv)) if out is None else out
    for r0, n, t in runs:
        r1 = r0 + n * t
        np.matmul(g[r0:r1].reshape(n, t, -1), bv.T, out=ga[r0:r1].reshape(n, t, -1))
    return ga


def _matmul_grad_b(av: np.ndarray, g: np.ndarray, runs, gb=0.0) -> np.ndarray:
    """b's gradient of av @ bv: per-segment av.T @ g, added in segment order
    after gb, the sum of the segments before them."""
    parts = np.empty((1 + max(n for _, n, _ in runs), av.shape[1], g.shape[1]), dtype=np.result_type(av, g))
    for r0, n, t in runs:
        r1 = r0 + n * t
        parts[0] = gb  # the earlier runs' sum
        np.matmul(av[r0:r1].reshape(n, t, -1).swapaxes(1, 2), g[r0:r1].reshape(n, t, -1), out=parts[1 : 1 + n])
        gb = _sum_slices(parts[: 1 + n])
    return gb


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

    def vjp(g):
        runs = _runs(segments, av.shape[0])
        return _matmul_grad_a(g, bv, runs), _matmul_grad_b(av, g, runs)

    return _make("matmul", _matmul_rows(av, bv, segments), (a, b), vjp)


@_primitive("add", "elementwise sum of same-shaped tensors")
def add(a: Tensor, b: Tensor) -> Tensor:
    _shape_check("add", a.shape == b.shape, a.shape, b.shape)

    def vjp(g):
        return g, g

    return _make("add", a.values + b.values, (a, b), vjp)


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


def length_chunks(lengths: Sequence[int]) -> list[list[int]]:
    """Indices of sequences of the given lengths in chunks of one length (shortest
    first, input order within), each at most MAX_FORWARD_TOKENS tokens or one
    sequence. Equal lengths need no padding. Rows round as each sequence alone
    would, for the configs the tests pin and the benchmark teacher, not for every
    shape (README, "Shape caveat"); one-token chunks too, as matmul gives each
    one-row segment its own product and a one-position softmax is exactly 1."""
    by_len: dict[int, list[int]] = {}
    for i, t in enumerate(lengths):
        by_len.setdefault(t, []).append(i)
    chunks = []
    for t, idx in sorted(by_len.items()):
        per = max(1, MAX_FORWARD_TOKENS // t)
        chunks += [idx[s : s + per] for s in range(0, len(idx), per)]
    return chunks


def _length_blocks(lengths: Sequence[int]) -> list[tuple[int, slice | np.ndarray, slice | np.ndarray]]:
    """(number of sequences, their rows, their indices) per length_chunks chunk.
    Consecutive sequences are selected by slices, others by index arrays."""
    if len(set(lengths)) == 1 and sum(lengths) <= MAX_FORWARD_TOKENS:  # one block, as every no-grad chunk
        return [(len(lengths), slice(None), slice(None))]
    starts = np.cumsum([0, *lengths])
    blocks = []
    for b in length_chunks(lengths):
        if b[-1] - b[0] == len(b) - 1:
            blocks.append((len(b), slice(starts[b[0]], starts[b[-1] + 1]), slice(b[0], b[-1] + 1)))
        else:
            blocks.append((len(b), np.concatenate([np.arange(starts[s], starts[s + 1]) for s in b]), np.array(b)))
    return blocks


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

    Sequences of equal length are attended together, in blocks of at most
    MAX_FORWARD_TOKENS rows, so the vjp's scores-sized transients stay within
    one block's. Every matmul takes
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
    for n, kv_sel, seq_sel in _length_blocks([rows] if lengths is None else lengths):
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


@_primitive("gated_mlp", "silu(x @ w_gate) * (x @ w_up) @ w_down, optionally over row segments")
def gated_mlp(
    x: Tensor, w_gate: Tensor, w_up: Tensor, w_down: Tensor, segments: Sequence[int] | None = None,
    acts: list[np.ndarray] | None = None,
) -> Tensor:
    """One node for the matmul/silu/mul/matmul chain, rounding exactly as it
    would, segments as in matmul. With acts, the activation silu(gate) * up is
    appended to it. NonFiniteError names gated_mlp when the activation or the
    output is not finite: a non-finite gate or up makes the activation so (inf
    times 0 is NaN), so this covers every value the chain checked.

    The vjp keeps x, gate and up, and rebuilds silu's sigmoid and output and the
    activation with the forward's ops. It runs in _blocks of whole segments and
    holds at most three block rows x MLP arrays of its own at once. Each weight's
    gradient adds its per-segment parts in segment order across the blocks, and
    x's gradient rows are the gate part plus the up part, the sum backward would
    form from the two matmuls' parts."""
    xv, wg, wu, wd = x.values, w_gate.values, w_up.values, w_down.values
    _shape_check(
        "gated_mlp",
        xv.ndim == wg.ndim == wd.ndim == 2 and wg.shape == wu.shape and xv.shape[1] == wg.shape[0]
        and wd.shape[0] == wg.shape[1],
        xv.shape, wg.shape, wu.shape, wd.shape,
    )
    _check_segments("gated_mlp", segments, xv.shape[0])
    gate, up = _matmul_rows(xv, wg, segments), _matmul_rows(xv, wu, segments)
    act = _sigmoid(gate)
    act *= gate  # silu(gate): gate * sig, as silu's av * sig
    act *= up
    _check_finite("gated_mlp", act)
    if acts is not None:
        acts.append(act)

    def vjp(g):
        gx, g_wg, g_wu, g_wd = None, 0.0, 0.0, 0.0
        for b0, b1, runs in _blocks(segments, xv.shape[0]):
            x_b, gate_b, up_b, g_b = xv[b0:b1], gate[b0:b1], up[b0:b1], g[b0:b1]
            sig = _sigmoid(gate_b)
            s = gate_b * sig
            act = s * up_b
            g_wd = _matmul_grad_b(act, g_b, runs, g_wd)
            del act
            g_act = _matmul_grad_a(g_b, wd, runs)
            g_up = np.multiply(g_act, s, out=s)  # mul's vjp: g * s for up, g * up for s
            g_act *= up_b
            g_act *= sig  # silu's vjp, in place as silu's: ((1 - sig) * gate + 1) * (g * sig)
            g_gate = np.subtract(1.0, sig, out=sig)
            g_gate *= gate_b
            g_gate += 1.0
            g_gate *= g_act
            del g_act, s, sig  # g_up and g_gate hold their buffers
            if gx is None:
                gx = np.empty((xv.shape[0], wg.shape[0]), dtype=np.result_type(g_gate, wg))
            _matmul_grad_a(g_gate, wg, runs, out=gx[b0:b1])
            g_wg = _matmul_grad_b(x_b, g_gate, runs, g_wg)
            del g_gate
            gx[b0:b1] += _matmul_grad_a(g_up, wu, runs)
            g_wu = _matmul_grad_b(x_b, g_up, runs, g_wu)
            del g_up
        return gx, g_wg, g_wu, g_wd

    return _make("gated_mlp", _matmul_rows(act, wd, segments), (x, w_gate, w_up, w_down), vjp)


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


def _nll_softmax(lv: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row -log softmax(lv)[t], and the softmax."""
    m = lv.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(lv - m).sum(axis=1, keepdims=True))
    return lse[:, 0] - lv[np.arange(lv.shape[0]), t], np.exp(lv - lse)


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
    for n in sorted(set(neg_counts)):  # np.unique would import numpy.ma: +1.7 MB RSS on numpy 2.4
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
