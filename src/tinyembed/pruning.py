"""Structured pruning along the hidden, MLP-intermediate, and layer axes,
ranked by activation L2 norms over calibration data.

Tap points: the hidden ranking uses the residual stream at each block's
output; the per-layer MLP ranking uses the post-activation state
(silu(gate) * up). Hidden channels get one global ranking (the residual
stream is a single shared basis across layers).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import EmbeddingModel, ModelConfig, forward_chunks, forward_hidden, param_specs

LAYER_STRATEGIES = ("first_n", "norm_change")


@dataclass
class PruneSpec:
    target_hidden: int
    target_mlp: int
    target_layers: int
    calibration: list[list[int]]

    def validate(self, config: ModelConfig) -> None:
        if min(self.target_hidden, self.target_mlp, self.target_layers) < 1:
            raise ValueError("prune targets must be >= 1")
        if self.target_hidden > config.hidden_size:
            raise ValueError(f"target_hidden {self.target_hidden} exceeds source {config.hidden_size}")
        if self.target_mlp > config.mlp_intermediate_size:
            raise ValueError(f"target_mlp {self.target_mlp} exceeds source {config.mlp_intermediate_size}")
        if self.target_layers > config.num_layers:
            raise ValueError(f"target_layers {self.target_layers} exceeds source {config.num_layers}")
        shrinks = self.target_hidden < config.hidden_size or self.target_mlp < config.mlp_intermediate_size
        if shrinks and not self.calibration:
            raise ValueError("channel pruning needs non-empty calibration data")


@dataclass
class ChannelNorms:
    hidden_norms: np.ndarray  # (source hidden,)
    mlp_norms: list[np.ndarray]  # per layer, (source mlp intermediate,)
    layer_norm_change: np.ndarray  # (source layers,) score for the alternative layer strategy


def collect_activation_norms(model: EmbeddingModel, calibration: list[list[int]]) -> ChannelNorms:
    """L2 norms over all (sequence, position) pairs, per hidden and per MLP channel.

    Sequences are forwarded in length chunks. A chunk's per-sequence partial sums
    reduce its (sequences, tokens, ·) taps over the tokens, and are added in
    calibration order, so the float64 totals round exactly as one forward per
    sequence would.
    """
    if not calibration:
        raise ValueError("empty calibration set")
    cfg = model.config
    partials: list[list[tuple[np.ndarray, np.ndarray, float]]] = [[] for _ in calibration]
    for idx, taps in forward_chunks(model, calibration):
        n = len(idx)
        prev = np.linalg.norm(taps.embedding, axis=1)
        for res, act in zip(taps.residual, taps.mlp_act):
            norm = np.linalg.norm(res, axis=1)
            change = np.abs(norm.astype(np.float64) - prev).reshape(n, -1).sum(axis=1)
            hidden = np.square(res, dtype=np.float64).reshape(n, -1, res.shape[1]).sum(axis=1)
            mlp = np.square(act, dtype=np.float64).reshape(n, -1, act.shape[1]).sum(axis=1)
            for seq_index, part in zip(idx, zip(hidden, mlp, change)):
                partials[seq_index].append(part)
            prev = norm
    ssq_hidden = np.zeros(cfg.hidden_size, dtype=np.float64)
    ssq_mlp = [np.zeros(cfg.mlp_intermediate_size, dtype=np.float64) for _ in range(cfg.num_layers)]
    delta = np.zeros(cfg.num_layers, dtype=np.float64)
    for layers in partials:
        for i, (hidden, mlp, change) in enumerate(layers):
            ssq_hidden += hidden
            ssq_mlp[i] += mlp
            delta[i] += change
    return ChannelNorms(
        hidden_norms=np.sqrt(ssq_hidden),
        mlp_norms=[np.sqrt(s) for s in ssq_mlp],
        layer_norm_change=delta,
    )


def top_k_indices(norms: np.ndarray, k: int) -> list[int]:
    """Indices of the k largest norms, ties broken by lower index, sorted ascending."""
    return np.sort(np.argsort(-norms, kind="stable")[:k]).tolist()


def pruned_config(config: ModelConfig, spec: PruneSpec) -> ModelConfig:
    """Target config: hidden/MLP/layer reduced, head geometry untouched."""
    return replace(
        config,
        hidden_size=spec.target_hidden,
        mlp_intermediate_size=spec.target_mlp,
        num_layers=spec.target_layers,
    )


def _select_layers(spec: PruneSpec, norms: ChannelNorms | None, strategy: str) -> list[int]:
    if strategy == "first_n":
        return list(range(spec.target_layers))
    if strategy == "norm_change":
        if norms is None:
            raise ValueError("norm_change layer selection needs calibration data")
        return top_k_indices(norms.layer_norm_change, spec.target_layers)
    raise ValueError(f"unknown layer strategy {strategy!r}; options: {LAYER_STRATEGIES}")


def prune_model(
    model: EmbeddingModel,
    spec: PruneSpec,
    layer_strategy: str = "first_n",
) -> tuple[EmbeddingModel, dict]:
    """Slice a trained model down to the spec targets.

    Hidden channels keep the global top-k by residual-stream norm; every
    parameter axis that param_specs labels "hidden" shrinks together. MLP
    channels are ranked per layer and slice the "mlp" axes. Layers keep the
    first n by default. Returns the smaller model and a report of kept indices
    plus the norm vectors.
    """
    cfg = model.config
    spec.validate(cfg)
    needs_norms = bool(spec.calibration) and (
        spec.target_hidden < cfg.hidden_size
        or spec.target_mlp < cfg.mlp_intermediate_size
        or layer_strategy == "norm_change"
    )
    norms = collect_activation_norms(model, spec.calibration) if needs_norms else None
    if norms is not None:
        kept_hidden = top_k_indices(norms.hidden_norms, spec.target_hidden)
    else:
        kept_hidden = list(range(spec.target_hidden))
    kept_layers = _select_layers(spec, norms, layer_strategy)
    kept_mlp: list[list[int]] = []
    for layer in kept_layers:
        if norms is not None:
            kept_mlp.append(top_k_indices(norms.mlp_norms[layer], spec.target_mlp))
        else:
            kept_mlp.append(list(range(spec.target_mlp)))

    small_cfg = pruned_config(cfg, spec)
    params: dict[str, Tensor] = {}
    for name, _, _, axes in param_specs(small_cfg):
        source, keep = name, {"hidden": kept_hidden}
        if name.startswith("layers."):
            _, new_idx, leaf = name.split(".")
            source = f"layers.{kept_layers[int(new_idx)]}.{leaf}"
            keep["mlp"] = kept_mlp[int(new_idx)]
        values = model.params[source].values
        for axis, label in enumerate(axes):
            if label in keep:
                values = np.take(values, keep[label], axis=axis)
        params[name] = Tensor(values.copy(), requires_grad=True)

    report = {
        "kept_hidden": kept_hidden,
        "kept_layers": kept_layers,
        "kept_mlp_per_layer": kept_mlp,
        "layer_strategy": layer_strategy,
        "hidden_norms": None if norms is None else norms.hidden_norms.tolist(),
        "mlp_norms": None if norms is None else [v.tolist() for v in norms.mlp_norms],
    }
    return EmbeddingModel(small_cfg, params), report


def sliced_forward_oracle(
    model: EmbeddingModel,
    kept_hidden: list[int],
    kept_mlp: list[list[int]],
    n_layers: int,
    tokens: list[int],
) -> np.ndarray:
    """Forward of the original model with weights sliced on the fly at the given
    indices (first n_layers layers); by construction must equal the pruned
    model's forward exactly."""
    cfg = model.config
    if n_layers > cfg.num_layers or len(kept_mlp) != n_layers:
        raise ValueError("oracle needs one kept-MLP index list per kept layer")
    small_cfg = replace(
        cfg,
        hidden_size=len(kept_hidden),
        mlp_intermediate_size=len(kept_mlp[0]) if n_layers else cfg.mlp_intermediate_size,
        num_layers=n_layers,
    )
    src = model.params
    take = np.take
    params: dict[str, Tensor] = {
        "token_embedding": Tensor(take(src["token_embedding"].values, kept_hidden, axis=1)),
        "final_norm": Tensor(take(src["final_norm"].values, kept_hidden, axis=0)),
    }
    for i in range(n_layers):
        old = f"layers.{i}."
        params[old + "attn_norm"] = Tensor(take(src[old + "attn_norm"].values, kept_hidden, axis=0))
        for w in ("q_proj", "k_proj", "v_proj"):
            params[old + w] = Tensor(take(src[old + w].values, kept_hidden, axis=0))
        params[old + "q_norm"] = Tensor(src[old + "q_norm"].values)
        params[old + "k_norm"] = Tensor(src[old + "k_norm"].values)
        params[old + "o_proj"] = Tensor(take(src[old + "o_proj"].values, kept_hidden, axis=1))
        params[old + "mlp_norm"] = Tensor(take(src[old + "mlp_norm"].values, kept_hidden, axis=0))
        params[old + "gate_proj"] = Tensor(take(take(src[old + "gate_proj"].values, kept_hidden, axis=0), kept_mlp[i], axis=1))
        params[old + "up_proj"] = Tensor(take(take(src[old + "up_proj"].values, kept_hidden, axis=0), kept_mlp[i], axis=1))
        params[old + "down_proj"] = Tensor(take(take(src[old + "down_proj"].values, kept_mlp[i], axis=0), kept_hidden, axis=1))
    with ad.no_grad():
        return forward_hidden(EmbeddingModel(small_cfg, params), tokens).values
