"""Decoder-only transformer producing one embedding per sequence via EOS pooling.

Qwen3-flavored block: pre-RMSNorm, grouped-KV attention with per-head QK norm
and rotary positions, gated SiLU MLP. Weights use the x @ W convention, so a
projection's input dimension is its row count.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .tokenizer import EOS_ID

RMS_EPS = 1e-6
INIT_STD = 0.02


@dataclass(frozen=True)
class ModelConfig:
    hidden_size: int
    mlp_intermediate_size: int
    num_layers: int
    num_heads: int
    num_kv_heads: int
    head_dim: int
    vocab_size: int
    max_seq_len: int = 512
    rope_base: float = 10000.0

    def __post_init__(self):
        for name in ("hidden_size", "mlp_intermediate_size", "num_heads", "num_kv_heads", "head_dim", "vocab_size", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"ModelConfig.{name} must be >= 1")
        if self.num_layers < 0:
            raise ValueError("ModelConfig.num_layers must be >= 0")
        if self.num_heads % self.num_kv_heads != 0:
            raise ValueError(f"num_heads ({self.num_heads}) must be divisible by num_kv_heads ({self.num_kv_heads})")
        if self.head_dim % 2 != 0:
            raise ValueError("head_dim must be even (rotary pairs)")

    @classmethod
    def from_json(cls, path: str | Path) -> "ModelConfig":
        with open(path) as f:
            return cls(**json.load(f))


def param_specs(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str, tuple[str, ...]]]:
    """Ordered (name, shape, kind, axes) for every parameter. axes labels each
    dimension (vocab / hidden / q / kv / head / mlp) and fixes its size; kind is
    'gain' for the one-axis norm gains and 'weight' otherwise.

    This list is the single source of truth for init order, checkpoint
    manifest order, parameter accounting, and which axes pruning slices.
    """
    size = {
        "vocab": config.vocab_size,
        "hidden": config.hidden_size,
        "q": config.num_heads * config.head_dim,
        "kv": config.num_kv_heads * config.head_dim,
        "head": config.head_dim,
        "mlp": config.mlp_intermediate_size,
    }
    layout = [("token_embedding", ("vocab", "hidden"))]
    for i in range(config.num_layers):
        p = f"layers.{i}."
        layout += [
            (p + "attn_norm", ("hidden",)),
            (p + "q_proj", ("hidden", "q")),
            (p + "k_proj", ("hidden", "kv")),
            (p + "v_proj", ("hidden", "kv")),
            (p + "q_norm", ("head",)),
            (p + "k_norm", ("head",)),
            (p + "o_proj", ("q", "hidden")),
            (p + "mlp_norm", ("hidden",)),
            (p + "gate_proj", ("hidden", "mlp")),
            (p + "up_proj", ("hidden", "mlp")),
            (p + "down_proj", ("mlp", "hidden")),
        ]
    layout.append(("final_norm", ("hidden",)))
    return [
        (name, tuple(size[a] for a in axes), "gain" if len(axes) == 1 else "weight", axes)
        for name, axes in layout
    ]


def param_count(config: ModelConfig) -> int:
    """Exact parameter count from the config alone, no allocation."""
    h, m = config.hidden_size, config.mlp_intermediate_size
    q_dim = config.num_heads * config.head_dim
    kv_dim = config.num_kv_heads * config.head_dim
    embedding = config.vocab_size * h
    per_layer = h * q_dim + 2 * h * kv_dim + q_dim * h + 3 * h * m + 2 * h + 2 * config.head_dim
    return embedding + config.num_layers * per_layer + h


def embedding_param_count(config: ModelConfig) -> int:
    return config.vocab_size * config.hidden_size


class EmbeddingModel:
    """Parameter store plus forward graph. Immutable during inference."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def set_trainable(self, flag: bool) -> None:
        for p in self.params.values():
            p.requires_grad = flag

    def astype(self, dtype) -> "EmbeddingModel":
        params = {
            name: Tensor(t.values.astype(dtype), requires_grad=t.requires_grad)
            for name, t in self.params.items()
        }
        return EmbeddingModel(self.config, params)


def init_model(config: ModelConfig, seed: int) -> EmbeddingModel:
    """Weights ~ N(0, 0.02^2), norm gains 1; deterministic given seed."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape, kind, _ in param_specs(config):
        if kind == "gain":
            values = np.ones(shape, dtype=np.float32)
        else:
            values = rng.normal(0.0, INIT_STD, size=shape).astype(np.float32)
        params[name] = Tensor(values, requires_grad=True)
    return EmbeddingModel(config, params)


@lru_cache(maxsize=64)
def _causal_mask(n: int) -> np.ndarray:
    return np.tril(np.ones((n, n), dtype=bool))


class TapRecorder:
    """Collects intermediate activations (as plain arrays) during a forward pass.

    embedding is the residual stream before block 0; residual[i] is the stream
    after block i's output; mlp_act[i] is block i's post-activation MLP state
    (silu(gate) * up).
    """

    def __init__(self):
        self.embedding: np.ndarray | None = None
        self.residual: list[np.ndarray] = []
        self.mlp_act: list[np.ndarray] = []


def forward_hidden(model: EmbeddingModel, tokens: list[int], taps: TapRecorder | None = None) -> Tensor:
    """Hidden-state matrix (seq_len x hidden) with causal attention and final norm."""
    cfg = model.config
    for pos, t in enumerate(tokens):
        if not 0 <= t < cfg.vocab_size:
            raise ValueError(f"token id {t} at position {pos} out of range for vocab {cfg.vocab_size}")
    if len(tokens) > cfg.max_seq_len:
        raise ValueError(f"sequence length {len(tokens)} exceeds max_seq_len {cfg.max_seq_len}")
    if not tokens:
        raise ValueError("empty token sequence")
    p = model.params
    hd = cfg.head_dim
    group = cfg.num_heads // cfg.num_kv_heads
    mask = _causal_mask(len(tokens))

    h = ad.gather_rows(p["token_embedding"], tokens)
    if taps is not None:
        taps.embedding = h.values.copy()
    for i in range(cfg.num_layers):
        lp = f"layers.{i}."
        x = ad.rms_norm(h, p[lp + "attn_norm"], eps=RMS_EPS)
        q = ad.matmul(x, p[lp + "q_proj"])
        k = ad.matmul(x, p[lp + "k_proj"])
        v = ad.matmul(x, p[lp + "v_proj"])
        q = ad.rms_norm(q, p[lp + "q_norm"], eps=RMS_EPS, group_size=hd)
        k = ad.rms_norm(k, p[lp + "k_norm"], eps=RMS_EPS, group_size=hd)
        q = ad.rope(q, hd, base=cfg.rope_base)
        k = ad.rope(k, hd, base=cfg.rope_base)
        q = ad.scale(q, hd**-0.5)
        k_heads = [ad.slice_cols(k, g * hd, (g + 1) * hd) for g in range(cfg.num_kv_heads)]
        v_heads = [ad.slice_cols(v, g * hd, (g + 1) * hd) for g in range(cfg.num_kv_heads)]
        outs = []
        for head in range(cfg.num_heads):
            g = head // group
            qh = ad.slice_cols(q, head * hd, (head + 1) * hd)
            scores = ad.matmul(qh, ad.transpose(k_heads[g]))
            probs = ad.row_softmax(scores, mask=mask)
            outs.append(ad.matmul(probs, v_heads[g]))
        h = ad.add(h, ad.matmul(ad.concat(outs, axis=1), p[lp + "o_proj"]))
        x = ad.rms_norm(h, p[lp + "mlp_norm"], eps=RMS_EPS)
        act = ad.mul(ad.silu(ad.matmul(x, p[lp + "gate_proj"])), ad.matmul(x, p[lp + "up_proj"]))
        h = ad.add(h, ad.matmul(act, p[lp + "down_proj"]))
        if taps is not None:
            taps.residual.append(h.values.copy())
            taps.mlp_act.append(act.values.copy())
    return ad.rms_norm(h, p["final_norm"], eps=RMS_EPS)


def _check_terminal_eos(tokens: list[int]) -> None:
    if not tokens or tokens[-1] != EOS_ID:
        raise ValueError("sequence must end with EOS")
    if tokens.count(EOS_ID) != 1:
        raise ValueError("sequence must contain exactly one EOS")


def raw_sequence_embedding(model: EmbeddingModel, tokens: list[int]) -> Tensor:
    """Final hidden state at the EOS position, shape (1, hidden), not normalized."""
    _check_terminal_eos(tokens)
    h = forward_hidden(model, tokens)
    return ad.gather_rows(h, [len(tokens) - 1])


def embed_sequence(model: EmbeddingModel, tokens: list[int]) -> Tensor:
    """L2-normalized EOS hidden state, shape (1, hidden)."""
    return ad.l2_normalize_rows(raw_sequence_embedding(model, tokens))


def embed_text(model: EmbeddingModel, text: str) -> np.ndarray:
    """Inference-mode unit embedding of a text string, shape (hidden,)."""
    from .tokenizer import tokenize

    with ad.no_grad():
        return embed_sequence(model, tokenize(text, model.config.max_seq_len)).values[0].copy()


# ---------------------------------------------------------------------------
# Flat-vector views (used by whole-model gradient checks)
# ---------------------------------------------------------------------------


def flatten_params(model: EmbeddingModel) -> np.ndarray:
    return np.concatenate([model.params[name].values.reshape(-1) for name, _, _, _ in param_specs(model.config)])


def model_from_flat(config: ModelConfig, flat: Tensor) -> EmbeddingModel:
    """Build a model whose parameters are graph views into one flat leaf tensor."""
    row = ad.reshape(flat, (1, flat.values.size))
    params: dict[str, Tensor] = {}
    offset = 0
    for name, shape, _, _ in param_specs(config):
        size = int(np.prod(shape))
        params[name] = ad.reshape(ad.slice_cols(row, offset, offset + size), shape)
        offset += size
    if offset != flat.values.size:
        raise ad.ShapeError(f"model_from_flat: flat vector has {flat.values.size} values, config needs {offset}")
    return EmbeddingModel(config, params)


# ---------------------------------------------------------------------------
# Checkpoint format: config.json + manifest.json + weights.bin (LE float32)
# ---------------------------------------------------------------------------


def save_checkpoint(model: EmbeddingModel, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.json", "w") as f:
        json.dump(asdict(model.config), f, indent=2, sort_keys=True)
    manifest = []
    offset = 0
    blobs = []
    for name, shape, _, _ in param_specs(model.config):
        values = model.params[name].values
        if tuple(values.shape) != shape:
            raise ad.ShapeError(f"checkpoint: parameter {name} has shape {values.shape}, expected {shape}")
        blob = values.astype("<f4").tobytes(order="C")
        manifest.append({"name": name, "shape": list(shape), "offset": offset})
        offset += len(blob)
        blobs.append(blob)
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2)
    with open(out / "weights.bin", "wb") as f:
        f.write(b"".join(blobs))


def load_checkpoint(ckpt_dir: str | Path, trainable: bool = True) -> EmbeddingModel:
    ckpt = Path(ckpt_dir)
    config = ModelConfig.from_json(ckpt / "config.json")
    with open(ckpt / "manifest.json") as f:
        manifest = json.load(f)
    raw = (ckpt / "weights.bin").read_bytes()
    expected = {name: shape for name, shape, _, _ in param_specs(config)}
    if [e["name"] for e in manifest] != list(expected):
        raise ValueError("checkpoint manifest does not match config parameter list")
    params: dict[str, Tensor] = {}
    total = 0
    for entry in manifest:
        shape = tuple(entry["shape"])
        if shape != expected[entry["name"]]:
            raise ad.ShapeError(f"checkpoint: {entry['name']} has shape {shape}, config implies {expected[entry['name']]}")
        size = int(np.prod(shape))
        start = entry["offset"]
        total = max(total, start + 4 * size)
        values = np.frombuffer(raw, dtype="<f4", count=size, offset=start).reshape(shape).copy()
        params[entry["name"]] = Tensor(values, requires_grad=trainable)
    if len(raw) != total:
        raise ValueError(f"weights.bin has {len(raw)} bytes, manifest implies {total}")
    return EmbeddingModel(config, params)
