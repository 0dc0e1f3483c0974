"""Activation-norm collection and structured-pruning exactness tests."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tinyembed import autodiff as ad
from tinyembed import pruning as tp
from tinyembed.model import EmbeddingModel, ModelConfig, forward_chunks, forward_hidden, init_model, param_count
from tinyembed.pruning import ChannelNorms, PruneSpec
from tinyembed.tokenizer import EOS_ID, tokenize

CFG = ModelConfig(hidden_size=16, mlp_intermediate_size=24, num_layers=3, num_heads=2,
                  num_kv_heads=1, head_dim=4, vocab_size=258, max_seq_len=48)


def calibration(n=4, seed=0, length=10):
    rng = np.random.default_rng(seed)
    return [list(rng.integers(0, 256, size=length)) + [EOS_ID] for _ in range(n)]


def test_top_k_indices_sort_oracle():
    norms = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
    assert tp.top_k_indices(norms, 4) == [2, 4, 5, 7]
    # ties broken by lower index
    assert tp.top_k_indices(np.array([1.0, 2.0, 2.0, 1.0]), 2) == [1, 2]
    rng = np.random.default_rng(1)
    for _ in range(30):
        v = rng.random(20)
        k = int(rng.integers(1, 20))
        want = sorted(sorted(range(20), key=lambda i: (-v[i], i))[:k])
        assert tp.top_k_indices(v, k) == want
    for _ in range(15):  # few distinct values tie
        v = rng.choice([0.0, 0.5, 1.0], size=20)
        k = int(rng.integers(1, 20))
        want = sorted(sorted(range(20), key=lambda i: (-v[i], i))[:k])
        assert tp.top_k_indices(v, k) == want


def test_constant_activation_norm_is_v_sqrt_t():
    # Zero the attention and MLP outputs so the residual stream stays equal to
    # the token embedding; a repeated token then gives constant activations.
    model = init_model(CFG, seed=2)
    for i in range(CFG.num_layers):
        model.params[f"layers.{i}.o_proj"].values[:] = 0.0
        model.params[f"layers.{i}.down_proj"].values[:] = 0.0
    seq = [65] * 7 + [EOS_ID]
    norms = tp.collect_activation_norms(model, [seq[:-1]])  # uniform positions only
    t_total = 7 * CFG.num_layers
    emb_row = model.params["token_embedding"].values[65]
    np.testing.assert_allclose(norms.hidden_norms, np.abs(emb_row) * np.sqrt(t_total), rtol=1e-5)


def test_zero_channel_ranked_last():
    model = init_model(CFG, seed=3)
    for i in range(CFG.num_layers):
        model.params[f"layers.{i}.o_proj"].values[:] = 0.0
        model.params[f"layers.{i}.down_proj"].values[:] = 0.0
    model.params["token_embedding"].values[:, 5] = 0.0
    norms = tp.collect_activation_norms(model, calibration())
    assert norms.hidden_norms[5] == 0.0
    assert 5 not in tp.top_k_indices(norms.hidden_norms, CFG.hidden_size - 1)


def test_norms_match_store_everything_oracle():
    model = init_model(CFG, seed=4)
    calib = calibration(n=3, seed=5)
    got = tp.collect_activation_norms(model, calib)

    all_res, all_act = [], [[] for _ in range(CFG.num_layers)]
    for seq in calib:
        _, taps = next(forward_chunks(model, [seq]))
        all_res.extend(taps.residual)
        for i, act in enumerate(taps.mlp_act):
            all_act[i].append(act)
    want_hidden = np.linalg.norm(np.concatenate(all_res, axis=0).astype(np.float64), axis=0)
    np.testing.assert_allclose(got.hidden_norms, want_hidden, rtol=1e-6)
    for i in range(CFG.num_layers):
        want = np.linalg.norm(np.concatenate(all_act[i], axis=0).astype(np.float64), axis=0)
        np.testing.assert_allclose(got.mlp_norms[i], want, rtol=1e-6)


def one_sequence_at_a_time_norms(model, calibration):
    """collect_activation_norms as one forward per sequence, adding in calibration order."""
    cfg = model.config
    ssq_hidden = np.zeros(cfg.hidden_size, dtype=np.float64)
    ssq_mlp = [np.zeros(cfg.mlp_intermediate_size, dtype=np.float64) for _ in range(cfg.num_layers)]
    delta = np.zeros(cfg.num_layers, dtype=np.float64)
    for seq in calibration:
        _, taps = next(forward_chunks(model, [seq]))
        prev = taps.embedding
        for i, (res, act) in enumerate(zip(taps.residual, taps.mlp_act)):
            ssq_hidden += (res.astype(np.float64) ** 2).sum(axis=0)
            ssq_mlp[i] += (act.astype(np.float64) ** 2).sum(axis=0)
            delta[i] += np.abs(
                np.linalg.norm(res, axis=1).astype(np.float64) - np.linalg.norm(prev, axis=1)
            ).sum()
            prev = res
    return np.sqrt(ssq_hidden), [np.sqrt(s) for s in ssq_mlp], delta


@pytest.mark.parametrize("layers", [3, 1, 0])
def test_norms_bitwise_equal_one_sequence_at_a_time_on_mixed_lengths(layers):
    from tinyembed.autodiff import MAX_FORWARD_TOKENS, length_chunks

    model = init_model(replace(CFG, num_layers=layers), seed=7)
    rng = np.random.default_rng(8)
    calib = [list(rng.integers(0, 256, size=int(n))) for n in rng.integers(1, CFG.max_seq_len + 1, size=12)]
    calib += calibration(n=MAX_FORWARD_TOKENS // 20 + 2, seed=9, length=19)  # one length, split by the cap
    calib += [[65], [66]]
    calib = [calib[i] for i in rng.permutation(len(calib))]
    assert sum(len(calib[c[0]]) == 20 for c in length_chunks([len(s) for s in calib])) >= 2
    got = tp.collect_activation_norms(model, calib)
    hidden, mlp, delta = one_sequence_at_a_time_norms(model, calib)
    np.testing.assert_array_equal(got.hidden_norms, hidden)
    assert len(got.mlp_norms) == layers
    for i in range(layers):
        np.testing.assert_array_equal(got.mlp_norms[i], mlp[i])
    np.testing.assert_array_equal(got.layer_norm_change, delta)


TEACHER_CFG = ModelConfig(hidden_size=64, mlp_intermediate_size=256, num_layers=4, num_heads=4,
                          num_kv_heads=2, head_dim=16, vocab_size=258, max_seq_len=48)


def test_calibration_holds_one_chunks_taps_at_a_time():
    # 16-token sequences fill 512-token chunks 32 at a time. Four chunks may peak
    # above one by the float64 partials of 96 more sequences, not by a chunk's taps.
    cfg = TEACHER_CFG
    model = init_model(cfg, seed=0)
    one, four = calibration(n=32, seed=1, length=15), calibration(n=128, seed=2, length=15)
    assert len(ad.length_chunks([16] * len(four))) == 4
    _, taps = next(forward_chunks(model, one))
    chunk_taps = taps.embedding.nbytes + sum(a.nbytes for a in taps.residual + taps.mlp_act)
    del taps
    tp.collect_activation_norms(model, one)  # anything built once is built before the trace

    def traced_peak(calib):
        tracemalloc.start()
        try:
            tp.collect_activation_norms(model, calib)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    partials_per_seq = 8 * cfg.num_layers * (cfg.hidden_size + cfg.mlp_intermediate_size + 1)
    growth = traced_peak(four) - traced_peak(one)
    allowed = (len(four) - len(one)) * partials_per_seq + chunk_taps // 2
    assert growth < allowed, f"traced peak grew {growth / 1e6:.2f} MB, allowed {allowed / 1e6:.2f} MB"


def test_empty_calibration_rejected():
    model = init_model(CFG, seed=0)
    with pytest.raises(ValueError, match="calibration"):
        tp.collect_activation_norms(model, [])
    spec = PruneSpec(target_hidden=8, target_mlp=24, target_layers=3, calibration=[])
    with pytest.raises(ValueError, match="calibration"):
        tp.prune_model(model, spec)


def test_noop_prune_is_bitwise_identity():
    model = init_model(CFG, seed=6)
    spec = PruneSpec(CFG.hidden_size, CFG.mlp_intermediate_size, CFG.num_layers, calibration())
    small, report = tp.prune_model(model, spec)
    assert small.config == CFG
    assert report["kept_hidden"] == list(range(CFG.hidden_size))
    for name in model.params:
        np.testing.assert_array_equal(model.params[name].values, small.params[name].values)


def test_prune_targets_validated():
    model = init_model(CFG, seed=0)
    with pytest.raises(ValueError, match="exceeds source"):
        tp.prune_model(model, PruneSpec(17, 24, 3, calibration()))
    with pytest.raises(ValueError, match=">= 1"):
        tp.prune_model(model, PruneSpec(0, 24, 3, calibration()))


def test_pruned_param_count_matches_target_config():
    model = init_model(CFG, seed=7)
    spec = PruneSpec(8, 12, 2, calibration())
    small, _ = tp.prune_model(model, spec)
    allocated = sum(p.values.size for p in small.params.values())
    assert allocated == param_count(small.config) == param_count(tp.pruned_config(CFG, spec))


def test_pruned_forward_equals_sliced_oracle_bitwise():
    rng = np.random.default_rng(8)
    for trial in range(8):
        cfg = ModelConfig(
            hidden_size=int(rng.integers(8, 20)),
            mlp_intermediate_size=int(rng.integers(6, 28)),
            num_layers=int(rng.integers(1, 4)),
            num_heads=2,
            num_kv_heads=int(rng.choice([1, 2])),
            head_dim=int(rng.choice([4, 6])),
            vocab_size=258,
            max_seq_len=32,
        )
        model = init_model(cfg, seed=int(rng.integers(0, 1000)))
        spec = PruneSpec(
            target_hidden=int(rng.integers(1, cfg.hidden_size + 1)),
            target_mlp=int(rng.integers(1, cfg.mlp_intermediate_size + 1)),
            target_layers=int(rng.integers(1, cfg.num_layers + 1)),
            calibration=calibration(n=2, seed=trial),
        )
        small, report = tp.prune_model(model, spec)
        toks = list(rng.integers(0, 256, size=9)) + [EOS_ID]
        with ad.no_grad():
            got = forward_hidden(small, toks).values
        want = tp.sliced_forward_oracle(model, report["kept_hidden"], report["kept_mlp_per_layer"], spec.target_layers, toks)
        np.testing.assert_array_equal(got, want)


def test_norm_change_pruned_forward_equals_sliced_oracle_bitwise():
    # The oracle slices the first n layers, so hand it a copy of the source
    # holding only the kept layers, renumbered from 0.
    rng = np.random.default_rng(15)
    gapped = 0
    for trial in range(8):
        cfg = replace(CFG, num_layers=int(rng.integers(2, 5)), num_kv_heads=int(rng.choice([1, 2])))
        model = init_model(cfg, seed=trial)
        spec = PruneSpec(
            target_hidden=int(rng.integers(1, cfg.hidden_size + 1)),
            target_mlp=int(rng.integers(1, cfg.mlp_intermediate_size + 1)),
            target_layers=int(rng.integers(1, cfg.num_layers)),
            calibration=calibration(n=2, seed=trial),
        )
        small, report = tp.prune_model(model, spec, layer_strategy="norm_change")
        kept = report["kept_layers"]
        gapped += any(b - a > 1 for a, b in zip(kept, kept[1:]))
        params = {name: t for name, t in model.params.items() if not name.startswith("layers.")}
        for new, old in enumerate(kept):
            for name, t in model.params.items():
                if name.startswith(f"layers.{old}."):
                    params[f"layers.{new}." + name.split(".", 2)[2]] = t
        renumbered = EmbeddingModel(replace(cfg, num_layers=len(kept)), params)
        toks = list(rng.integers(0, 256, size=9)) + [EOS_ID]
        with ad.no_grad():
            got = forward_hidden(small, toks).values
        want = tp.sliced_forward_oracle(renumbered, report["kept_hidden"], report["kept_mlp_per_layer"], len(kept), toks)
        assert np.array_equal(got, want)
    assert gapped > 0


def test_kept_channels_are_top_k_of_collected_norms():
    model = init_model(CFG, seed=9)
    calib = calibration(n=3, seed=10)
    norms = tp.collect_activation_norms(model, calib)
    spec = PruneSpec(8, 10, 2, calib)
    _, report = tp.prune_model(model, spec)
    assert report["kept_hidden"] == tp.top_k_indices(norms.hidden_norms, 8)
    for i, layer in enumerate(report["kept_layers"]):
        assert report["kept_mlp_per_layer"][i] == tp.top_k_indices(norms.mlp_norms[layer], 10)


def test_keep_all_layers_is_identity_on_depth():
    model = init_model(CFG, seed=11)
    spec = PruneSpec(CFG.hidden_size, CFG.mlp_intermediate_size, CFG.num_layers, [])
    small, report = tp.prune_model(model, spec)
    assert report["kept_layers"] == list(range(CFG.num_layers))
    assert small.config.num_layers == CFG.num_layers


def test_single_layer_keep_equals_truncated_depth():
    model = init_model(CFG, seed=12)
    spec = PruneSpec(CFG.hidden_size, CFG.mlp_intermediate_size, 1, calibration())
    small, _ = tp.prune_model(model, spec)
    toks = tokenize("depth", 32)
    all_hidden = list(range(CFG.hidden_size))
    all_mlp = [list(range(CFG.mlp_intermediate_size))]
    with ad.no_grad():
        got = forward_hidden(small, toks).values
    want = tp.sliced_forward_oracle(model, all_hidden, all_mlp, 1, toks)
    np.testing.assert_array_equal(got, want)


def test_norm_change_layer_strategy_selects_by_delta():
    model = init_model(CFG, seed=13)
    calib = calibration(n=2, seed=14)
    norms = tp.collect_activation_norms(model, calib)
    spec = PruneSpec(CFG.hidden_size, CFG.mlp_intermediate_size, 2, calib)
    _, report = tp.prune_model(model, spec, layer_strategy="norm_change")
    assert report["kept_layers"] == tp.top_k_indices(norms.layer_norm_change, 2)
    assert report["layer_strategy"] == "norm_change"


def test_table1_prune_shape_06b_to_330m():
    cfg_06b = ModelConfig.from_json("src/tinyembed/configs/table1/0.6B.json")
    spec = PruneSpec(target_hidden=896, target_mlp=2560, target_layers=16, calibration=[[0]])
    got = tp.pruned_config(cfg_06b, spec)
    want = ModelConfig.from_json("src/tinyembed/configs/table1/330M.json")
    assert got == want
