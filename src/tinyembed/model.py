"""Decoder-only transformer producing one embedding per sequence via EOS pooling.

Qwen3-flavored block: pre-RMSNorm, grouped-KV attention with per-head QK norm
and rotary positions, gated SiLU MLP. Weights use the x @ W convention, so a
projection's input dimension is its row count.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import SchemaError, check_fields, read_json
from .tokenizer import EOS_ID

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
        if not 0 < self.rope_base < float("inf"):  # also false for NaN
            raise ValueError(f"ModelConfig.rope_base must be finite and > 0, got {self.rope_base!r}")

    @classmethod
    def from_json(cls, path: str | Path) -> "ModelConfig":
        raw = read_json(path)
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
    return sum(math.prod(shape) for _, shape, _, _ in param_specs(config))


def embedding_param_count(config: ModelConfig) -> int:
    return config.vocab_size * config.hidden_size


class EmbeddingModel:
    """Parameter store plus forward graph. Immutable during inference."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

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
    # The range test runs at C speed; the loop only names the first bad position.
    if tokens and not (min(tokens) >= 0 and max(tokens) < cfg.vocab_size):
        pos, t = next((pos, t) for pos, t in enumerate(tokens) if not 0 <= t < cfg.vocab_size)
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
        x = ad.rms_norm(h, p[lp + "attn_norm"], segments=seg)
        k = ad.matmul(x, p[lp + "k_proj"], segments=seg)
        v = ad.matmul(x, p[lp + "v_proj"], segments=seg)
        k = ad.rms_norm(k, p[lp + "k_norm"], group_size=hd, segments=seg)
        k = ad.rope(k, hd, base=cfg.rope_base, positions=positions)
        if i == narrow_at:
            # One row per sequence: no segments, so its products stay one gemm.
            h, x = ad.gather_rows(h, ends), ad.gather_rows(x, ends)
            q_seg, q_pos = None, positions[ends]
        q = ad.matmul(x, p[lp + "q_proj"], segments=q_seg)
        q = ad.rms_norm(q, p[lp + "q_norm"], group_size=hd, segments=q_seg)
        q = ad.rope(q, hd, base=cfg.rope_base, positions=q_pos)
        q = ad.scale(q, hd**-0.5)
        attn = ad.causal_attention(q, k, v, hd, lengths=seg, last_query=q_seg is None)
        h = ad.add(h, ad.matmul(attn, p[lp + "o_proj"], segments=q_seg))
        x = ad.rms_norm(h, p[lp + "mlp_norm"], segments=q_seg)
        mlp_weights = (p[lp + "gate_proj"], p[lp + "up_proj"], p[lp + "down_proj"])
        acts = None if taps is None else taps.mlp_act
        h = ad.add(h, ad.gated_mlp(x, *mlp_weights, segments=q_seg, acts=acts))
        if taps is not None:
            taps.residual.append(h.values.copy())
    if eos_only and q_seg is not None:
        h, q_seg = ad.gather_rows(h, ends), None
    return ad.rms_norm(h, p["final_norm"], segments=q_seg)


def forward_hidden(model: EmbeddingModel, tokens: list[int]) -> Tensor:
    """Hidden-state matrix (seq_len x hidden) with causal attention and final norm."""
    _check_tokens(model.config, tokens)
    return _forward(model, [tokens], None)


# Most threads raw_embeddings runs chunks on. The GIL, not the cores, limits
# them: on 2 cores, two threads embed 1.1-1.4x faster than one for about 35% more
# CPU, and 3 or 4 were no faster. Each thread holds one chunk's working set.
MAX_CHUNK_THREADS = 2


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        return os.cpu_count() or 1


def forward_chunks(model: EmbeddingModel, token_seqs: list[list[int]]):
    """Yield (indices, TapRecorder) per length chunk, without gradients. Rows of
    the taps are the chunk's sequences in index order, len(token_seqs[i]) rows each.
    The generator drops its recorder before it forwards the next chunk, so a
    consumer that drops its own references holds one chunk's taps at a time."""
    for seq in token_seqs:
        _check_tokens(model.config, seq)
    for idx in ad.length_chunks([len(seq) for seq in token_seqs]):
        recorder = TapRecorder()
        with ad.no_grad():
            _forward(model, [token_seqs[i] for i in idx], recorder)
        yield idx, recorder


def raw_embeddings(model: EmbeddingModel, token_seqs: list[list[int]]) -> np.ndarray:
    """Unnormalized EOS hidden states of many sequences, (len(token_seqs), hidden),
    without gradients. Row i equals raw_sequence_embeddings(model, [token_seqs[i]])
    for the configs the tests pin and the benchmark teacher, not for every shape
    (README, "Shape caveat").

    Length chunks run on up to MAX_CHUNK_THREADS threads, one CPU or one chunk
    serially with no thread. Each chunk is the same single-threaded forward
    either way and its rows land by index, so the result does not depend on the
    thread count."""
    for seq in token_seqs:
        _check_terminal_eos(seq)
        _check_tokens(model.config, seq)
    out = np.empty((len(token_seqs), model.config.hidden_size), dtype=model.params["final_norm"].values.dtype)
    chunks = ad.length_chunks([len(seq) for seq in token_seqs])

    def run(idx: list[int]) -> np.ndarray:
        with ad.no_grad():  # grad mode is per thread
            return _forward(model, [token_seqs[i] for i in idx], None, eos_only=True).values

    workers = min(MAX_CHUNK_THREADS, _cpu_count(), len(chunks))
    if workers <= 1:
        for idx in chunks:
            out[idx] = run(idx)
        return out
    # map cancels the chunks not yet started when one raises; leaving the block
    # waits for the running ones.
    with ThreadPoolExecutor(workers, thread_name_prefix="tinyembed-chunk") as pool:
        for idx, rows in zip(chunks, pool.map(run, chunks)):
            out[idx] = rows
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
    where = ckpt / "manifest.json"
    manifest = read_json(where)
    if not isinstance(manifest, list):
        raise SchemaError(f"{where}: expected a JSON list of parameter entries, got {type(manifest).__name__}")
    kinds = {"name": "a string", "shape": "a list of integers", "offset": "a non-negative integer"}
    for i, entry in enumerate(manifest):
        check_fields(f"{where}: entry {i}", entry, kinds, kinds)
    expected = {name: shape for name, shape, _, _ in param_specs(config)}
    if [e["name"] for e in manifest] != list(expected):
        raise ValueError(f"{where}: parameter list does not match the config's")
    total = 0
    for i, entry in enumerate(manifest):
        name, shape = entry["name"], tuple(entry["shape"])
        if shape != expected[name]:
            raise ad.ShapeError(f"{where}: entry {i} ({name}) has shape {shape}, config implies {expected[name]}")
        if entry["offset"] != total:
            # save_checkpoint writes the parameters back to back in manifest order.
            raise SchemaError(f"{where}: entry {i} ({name}) has offset {entry['offset']}, expected {total}")
        total += 4 * int(np.prod(shape))
    raw = (ckpt / "weights.bin").read_bytes()
    if len(raw) != total:
        raise ValueError(f"{ckpt / 'weights.bin'} has {len(raw)} bytes, {where} implies {total}")
    params = {}
    for entry in manifest:
        values = np.frombuffer(raw, dtype="<f4", count=int(np.prod(entry["shape"])), offset=entry["offset"])
        params[entry["name"]] = Tensor(values.reshape(entry["shape"]).copy(), requires_grad=trainable)
    return EmbeddingModel(config, params)
