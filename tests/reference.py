"""Test-side autodiff ops and single-text helpers: the references the tests
compare the pipeline against. The ops are built on `ad._make` like any
primitive, but the pipeline records none of them, so they are not in
`ad.primitive_set()`."""

from typing import Sequence

import numpy as np

from tinyembed import autodiff as ad
from tinyembed import model as tm
from tinyembed.autodiff import Tensor
from tinyembed.tokenizer import EOS_ID, tokenize

# --- ops -----------------------------------------------------------------------


def transpose(a: Tensor) -> Tensor:
    """2-D transpose."""
    ad._shape_check("transpose", a.values.ndim == 2, a.shape)

    def vjp(g):
        return (g.T.copy(),)

    return ad._make("transpose", a.values.T.copy(), (a,), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shaped tensors."""
    ad._shape_check("mul", a.shape == b.shape, a.shape, b.shape)
    av, bv = a.values, b.values

    def vjp(g):
        return g * bv, g * av

    return ad._make("mul", av * bv, (a, b), vjp)


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x). The vjp recomputes the sigmoid rather than keep it."""
    av = a.values
    sig = ad._sigmoid(av)

    def vjp(g):
        sig = ad._sigmoid(av)
        gx = np.subtract(1.0, sig)  # g * sig * (1.0 + av * (1.0 - sig)), in place
        gx *= av
        gx += 1.0
        gx *= g * sig
        return (gx,)

    return ad._make("silu", av * sig, (a,), vjp)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along rows (axis 0) or columns (axis 1)."""
    if not parts:
        raise ValueError("concat: empty input list")
    if axis not in (0, 1):
        raise ValueError(f"concat: axis must be 0 or 1, got {axis}")
    vals = [p.values for p in parts]
    other = 1 - axis
    ad._shape_check(
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

    return ad._make("concat", out, tuple(parts), vjp)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """View the same values under a new shape."""
    av = a.values
    if int(np.prod(shape)) != av.size:
        raise ad.ShapeError(f"reshape: cannot view {av.shape} as {tuple(shape)}")
    old = av.shape

    def vjp(g):
        return (g.reshape(old),)

    return ad._make("reshape", av.reshape(shape), (a,), vjp)


def sum_all(a: Tensor) -> Tensor:
    """Sum over all elements (scalar output)."""
    av = a.values

    def vjp(g):
        return (np.full_like(av, g),)

    return ad._make("sum_all", np.asarray(av.sum(), dtype=av.dtype), (a,), vjp)


def cross_entropy(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Mean of -log softmax(logits)[target] over rows (scalar output)."""
    lv = logits.values
    ad._shape_check("cross_entropy", lv.ndim == 2, lv.shape)
    t = np.asarray(targets, dtype=np.intp)
    ad._shape_check("cross_entropy", t.shape == (lv.shape[0],), lv.shape, t.shape)
    if t.size and (t.min() < 0 or t.max() >= lv.shape[1]):
        raise IndexError(f"cross_entropy: target out of range for {lv.shape[1]} classes")
    nll, p = ad._nll_softmax(lv, t)
    return ad._make("cross_entropy", np.asarray(nll.mean(), dtype=lv.dtype), (logits,), lambda g: (_nll_grad(p, t, g),))


def _nll_grad(p: np.ndarray, t: np.ndarray, g) -> np.ndarray:
    """Logit gradient of g times the mean over rows of the -log softmax."""
    gl = p.copy()
    gl[np.arange(p.shape[0]), t] -= 1.0
    return gl * (g / p.shape[0])


# --- one text at a time ----------------------------------------------------------


def raw_sequence_embedding(model: tm.EmbeddingModel, tokens: list[int]) -> Tensor:
    """Final hidden state at the EOS position, shape (1, hidden), not normalized."""
    return tm.raw_sequence_embeddings(model, [tokens])


def embed_sequence(model: tm.EmbeddingModel, tokens: list[int]) -> Tensor:
    """L2-normalized EOS hidden state, shape (1, hidden)."""
    return ad.l2_normalize_rows(raw_sequence_embedding(model, tokens))


def embed_text(model: tm.EmbeddingModel, text: str) -> np.ndarray:
    """Inference-mode unit embedding of a text string, shape (hidden,)."""
    with ad.no_grad():
        return embed_sequence(model, tokenize(text, model.config.max_seq_len)).values[0].copy()


def detokenize(tokens: list[int]) -> str:
    """Inverse of tokenize for untruncated input; ignores EOS/PAD tail."""
    body = []
    for t in tokens:
        if t >= EOS_ID:
            break
        body.append(t)
    return bytes(body).decode("utf-8")


# --- flat-vector views (whole-model gradient checks) --------------------------------


def flatten_params(model: tm.EmbeddingModel) -> np.ndarray:
    return np.concatenate([model.params[name].values.reshape(-1) for name, _, _, _ in tm.param_specs(model.config)])


def model_from_flat(config: tm.ModelConfig, flat: Tensor) -> tm.EmbeddingModel:
    """Build a model whose parameters are graph views into one flat leaf tensor."""
    row = reshape(flat, (1, flat.values.size))
    params: dict[str, Tensor] = {}
    offset = 0
    for name, shape, _, _ in tm.param_specs(config):
        size = int(np.prod(shape))
        params[name] = reshape(ad.slice_cols(row, offset, offset + size), shape)
        offset += size
    if offset != flat.values.size:
        raise ad.ShapeError(f"model_from_flat: flat vector has {flat.values.size} values, config needs {offset}")
    return tm.EmbeddingModel(config, params)
