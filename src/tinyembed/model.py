"""Decoder-only transformer producing one embedding per sequence via EOS pooling.

Qwen3-flavored block: pre-RMSNorm, grouped-KV attention with per-head QK norm
and rotary positions, gated SiLU MLP. Weights use the x @ W convention, so a
projection's input dimension is its row count.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import check_fields
from .tokenizer import EOS_ID, tokenize

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
            raw = json.load(f)
        kinds = {f.name: "a number" if f.type == "float" else "an integer" for f in fields(cls)}
        check_fields(str(path), raw, kinds, [f.name for f in fields(cls) if f.default is MISSING])
        try:
            return cls(**raw)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from e


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


class TapRecorder:
    """Collects intermediate activations (as plain arrays) during a forward pass.

    embedding is the residual stream before block 0; residual[i] is the stream
    after block i's output; mlp_act[i] is block i's post-activation MLP state
    (silu(gate) * up). Each holds one row per token of the forward, sequences
    stacked in order.
    """

    def __init__(self):
        self.embedding: np.ndarray | None = None
        self.residual: list[np.ndarray] = []
        self.mlp_act: list[np.ndarray] = []


def _check_tokens(cfg: ModelConfig, tokens: list[int]) -> None:
    for pos, t in enumerate(tokens):
        if not 0 <= t < cfg.vocab_size:
            raise ValueError(f"token id {t} at position {pos} out of range for vocab {cfg.vocab_size}")
    if len(tokens) > cfg.max_seq_len:
        raise ValueError(f"sequence length {len(tokens)} exceeds max_seq_len {cfg.max_seq_len}")
    if not tokens:
        raise ValueError("empty token sequence")


def _forward(model: EmbeddingModel, seqs: list[list[int]], taps: TapRecorder | None, eos_only: bool = False) -> Tensor:
    """Final hidden states of sequences stacked in order, (total tokens, hidden),
    or with eos_only each sequence's last row, (len(seqs), hidden).

    No padding: the sequences may differ in length. Each one's rows, and each
    parameter's gradient (per-sequence parts added in sequence order), round as in
    a forward of every sequence alone for the configs the tests pin and the
    benchmark teacher, not for every shape (README, "Shape caveat").

    With eos_only, the last layer computes keys and values on every row and the
    rest only on each sequence's last row, which is all EOS pooling reads. Its
    products then round as the full layer's last rows as long as none has one
    row (numpy sends those to BLAS gemv, which rounds unlike gemm), so this needs
    more than one sequence and none of one token; otherwise the last layer keeps
    every row and the last rows are taken after it."""
    cfg = model.config
    p = model.params
    hd = cfg.head_dim
    seg = [len(seq) for seq in seqs]
    positions = np.concatenate([np.arange(t) for t in seg])
    ends = np.cumsum(seg) - 1
    narrow_at = cfg.num_layers - 1 if eos_only and len(seqs) > 1 and min(seg) > 1 else cfg.num_layers
    # Segments and positions of the rows from the queries on: every row, until
    # layer narrow_at takes one row per sequence.
    q_seg, q_pos = seg, positions

    h = ad.gather_rows(p["token_embedding"], [t for seq in seqs for t in seq], segments=seg)
    if taps is not None:
        taps.embedding = h.values.copy()
    for i in range(cfg.num_layers):
        lp = f"layers.{i}."
        x = ad.rms_norm(h, p[lp + "attn_norm"], eps=RMS_EPS, segments=seg)
        k = ad.matmul(x, p[lp + "k_proj"], segments=seg)
        v = ad.matmul(x, p[lp + "v_proj"], segments=seg)
        k = ad.rms_norm(k, p[lp + "k_norm"], eps=RMS_EPS, group_size=hd, segments=seg)
        k = ad.rope(k, hd, base=cfg.rope_base, positions=positions)
        if i == narrow_at:
            # One row per sequence: no segments, so its products stay one gemm.
            h, x = ad.gather_rows(h, ends), ad.gather_rows(x, ends)
            q_seg, q_pos = None, positions[ends]
        q = ad.matmul(x, p[lp + "q_proj"], segments=q_seg)
        q = ad.rms_norm(q, p[lp + "q_norm"], eps=RMS_EPS, group_size=hd, segments=q_seg)
        q = ad.rope(q, hd, base=cfg.rope_base, positions=q_pos)
        q = ad.scale(q, hd**-0.5)
        attn = ad.causal_attention(q, k, v, hd, lengths=seg, last_query=q_seg is None)
        h = ad.add(h, ad.matmul(attn, p[lp + "o_proj"], segments=q_seg))
        x = ad.rms_norm(h, p[lp + "mlp_norm"], eps=RMS_EPS, segments=q_seg)
        act = ad.mul(
            ad.silu(ad.matmul(x, p[lp + "gate_proj"], segments=q_seg)), ad.matmul(x, p[lp + "up_proj"], segments=q_seg)
        )
        h = ad.add(h, ad.matmul(act, p[lp + "down_proj"], segments=q_seg))
        if taps is not None:
            taps.residual.append(h.values.copy())
            taps.mlp_act.append(act.values.copy())
    if eos_only and q_seg is not None:
        h, q_seg = ad.gather_rows(h, ends), None
    return ad.rms_norm(h, p["final_norm"], eps=RMS_EPS, segments=q_seg)


def forward_hidden(model: EmbeddingModel, tokens: list[int], taps: TapRecorder | None = None) -> Tensor:
    """Hidden-state matrix (seq_len x hidden) with causal attention and final norm."""
    _check_tokens(model.config, tokens)
    return _forward(model, [tokens], taps)


# Most tokens one no-grad forward stacks; it bounds the scores and taps held at
# once. Fuller forwards pay the per-primitive overhead less often: in a timing of
# 128, 512, 1024 and 2048 tokens on the benchmark's eval and teacher texts, 512
# was fastest.
MAX_FORWARD_TOKENS = 512


def length_chunks(token_seqs: list[list[int]]) -> list[list[int]]:
    """Indices of token_seqs split into forward chunks of equal token length (input
    order within a length), each at most MAX_FORWARD_TOKENS tokens or one sequence.

    Equal lengths need no padding, so no pad position can reach a result. Every
    row rounds as in a forward of its sequence alone for the configs the tests
    pin and the benchmark teacher, not for every shape (README, "Shape caveat").
    """
    by_len: dict[int, list[int]] = {}
    for i, seq in enumerate(token_seqs):
        by_len.setdefault(len(seq), []).append(i)
    chunks = []
    for t, idx in sorted(by_len.items()):
        # numpy sends a one-row matmul to BLAS gemv, which rounds unlike gemm,
        # so one-token sequences go one at a time.
        per = 1 if t == 1 else max(1, MAX_FORWARD_TOKENS // t)
        chunks += [idx[s : s + per] for s in range(0, len(idx), per)]
    return chunks


def forward_chunks(model: EmbeddingModel, token_seqs: list[list[int]]):
    """Yield (indices, TapRecorder) per length chunk, without gradients. Rows of
    the taps are the chunk's sequences in index order, len(token_seqs[i]) rows each."""
    for seq in token_seqs:
        _check_tokens(model.config, seq)
    for idx in length_chunks(token_seqs):
        recorder = TapRecorder()
        with ad.no_grad():
            _forward(model, [token_seqs[i] for i in idx], recorder)
        yield idx, recorder


def raw_embeddings(model: EmbeddingModel, token_seqs: list[list[int]]) -> np.ndarray:
    """Unnormalized EOS hidden states of many sequences, (len(token_seqs), hidden),
    without gradients. Row i equals raw_sequence_embedding(model, token_seqs[i])
    for the configs the tests pin and the benchmark teacher, not for every shape
    (README, "Shape caveat")."""
    for seq in token_seqs:
        _check_terminal_eos(seq)
        _check_tokens(model.config, seq)
    out = np.empty((len(token_seqs), model.config.hidden_size), dtype=model.params["final_norm"].values.dtype)
    with ad.no_grad():
        for idx in length_chunks(token_seqs):
            out[idx] = _forward(model, [token_seqs[i] for i in idx], None, eos_only=True).values
    return out


def _check_terminal_eos(tokens: list[int]) -> None:
    if not tokens or tokens[-1] != EOS_ID:
        raise ValueError("sequence must end with EOS")
    if tokens.count(EOS_ID) != 1:
        raise ValueError("sequence must contain exactly one EOS")


def raw_sequence_embeddings(model: EmbeddingModel, token_seqs: list[list[int]]) -> Tensor:
    """Unnormalized EOS hidden states of many sequences, (len(token_seqs), hidden),
    from one packed forward that records gradients when enabled. Row i, and every
    parameter gradient, equals that of a forward of each sequence alone, the
    sequences' contributions added in input order, with _forward's shape caveat."""
    for seq in token_seqs:
        _check_terminal_eos(seq)
        _check_tokens(model.config, seq)
    h = _forward(model, token_seqs, None)
    return ad.gather_rows(h, np.cumsum([len(seq) for seq in token_seqs]) - 1)


def raw_sequence_embedding(model: EmbeddingModel, tokens: list[int]) -> Tensor:
    """Final hidden state at the EOS position, shape (1, hidden), not normalized."""
    return raw_sequence_embeddings(model, [tokens])


def embed_sequence(model: EmbeddingModel, tokens: list[int]) -> Tensor:
    """L2-normalized EOS hidden state, shape (1, hidden)."""
    return ad.l2_normalize_rows(raw_sequence_embedding(model, tokens))


def embed_text(model: EmbeddingModel, text: str) -> np.ndarray:
    """Inference-mode unit embedding of a text string, shape (hidden,)."""
    with ad.no_grad():
        return embed_sequence(model, tokenize(text, model.config.max_seq_len)).values[0].copy()


def embed_texts(model: EmbeddingModel, texts: list[str]) -> np.ndarray:
    """embed_text of many texts at once, shape (len(texts), hidden)."""
    raw = raw_embeddings(model, [tokenize(t, model.config.max_seq_len) for t in texts])
    with ad.no_grad():
        return ad.l2_normalize_rows(Tensor(raw)).values


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
