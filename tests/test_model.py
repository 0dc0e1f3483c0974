"""Architecture tests: init determinism, causality, EOS pooling, parameter accounting, checkpoints."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from tinyembed import autodiff as ad
from tinyembed import model as tm
from tinyembed.model import ModelConfig
from tinyembed.tokenizer import EOS_ID, PAD_ID, tokenize

from reference import (
    detokenize,
    embed_sequence,
    embed_text,
    flatten_params,
    model_from_flat,
    mul,
    raw_sequence_embedding,
    sum_all,
)
from test_autodiff import unfused_gated_mlp

TINY = ModelConfig(
    hidden_size=16,
    mlp_intermediate_size=24,
    num_layers=2,
    num_heads=2,
    num_kv_heads=1,
    head_dim=4,
    vocab_size=258,
    max_seq_len=64,
)


def test_init_is_deterministic_given_seed():
    a = tm.init_model(TINY, seed=11)
    b = tm.init_model(TINY, seed=11)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].values, b.params[name].values)


def test_different_seeds_differ():
    a = tm.init_model(TINY, seed=11)
    b = tm.init_model(TINY, seed=12)
    assert any((a.params[n].values != b.params[n].values).any() for n in a.params)


def test_param_count_matches_allocation():
    for cfg in (
        TINY,
        ModelConfig(hidden_size=32, mlp_intermediate_size=8, num_layers=3, num_heads=4, num_kv_heads=2, head_dim=6, vocab_size=100),
        ModelConfig(hidden_size=10, mlp_intermediate_size=10, num_layers=0, num_heads=1, num_kv_heads=1, head_dim=2, vocab_size=100),
    ):
        m = tm.init_model(cfg, seed=0)
        allocated = sum(p.values.size for p in m.params.values())
        assert allocated == tm.param_count(cfg)


def test_param_count_zero_layer_closed_form():
    cfg = ModelConfig(hidden_size=10, mlp_intermediate_size=4, num_layers=0, num_heads=1, num_kv_heads=1, head_dim=2, vocab_size=100)
    assert tm.param_count(cfg) == 100 * 10 + 10


def test_param_count_table1_sizes():
    cfg_80m = ModelConfig(hidden_size=320, mlp_intermediate_size=2048, num_layers=8, num_heads=16, num_kv_heads=8, head_dim=128, vocab_size=151936)
    total = tm.param_count(cfg_80m)
    non_emb = total - tm.embedding_param_count(cfg_80m)
    assert abs(total - 80e6) / 80e6 < 0.02
    assert abs(non_emb - 31e6) / 31e6 < 0.02

    cfg_06b = ModelConfig(hidden_size=1024, mlp_intermediate_size=3072, num_layers=28, num_heads=16, num_kv_heads=8, head_dim=128, vocab_size=151936)
    assert abs(tm.param_count(cfg_06b) - 596e6) / 596e6 < 0.02


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(hidden_size=8, mlp_intermediate_size=8, num_layers=1, num_heads=3, num_kv_heads=2, head_dim=4, vocab_size=10)
    with pytest.raises(ValueError, match=">= 1"):
        ModelConfig(hidden_size=0, mlp_intermediate_size=8, num_layers=1, num_heads=2, num_kv_heads=2, head_dim=4, vocab_size=10)


def test_forward_shapes():
    m = tm.init_model(TINY, seed=0)
    h = tm.forward_hidden(m, [65, 66, EOS_ID])
    assert h.shape == (3, TINY.hidden_size)
    h1 = tm.forward_hidden(m, [65])
    assert h1.shape == (1, TINY.hidden_size)


def test_causality_prefix_invariance():
    m = tm.init_model(TINY, seed=3)
    rng = np.random.default_rng(0)
    base = list(rng.integers(0, 256, size=12))
    altered = base[:6] + list(rng.integers(0, 256, size=6))
    with ad.no_grad():
        ha = tm.forward_hidden(m, base).values
        hb = tm.forward_hidden(m, altered).values
    np.testing.assert_array_equal(ha[:6], hb[:6])
    assert (ha[6:] != hb[6:]).any()


def test_zero_layer_forward_is_final_norm_of_embeddings():
    cfg = ModelConfig(hidden_size=8, mlp_intermediate_size=8, num_layers=0, num_heads=1, num_kv_heads=1, head_dim=2, vocab_size=258)
    m = tm.init_model(cfg, seed=1)
    toks = [7, 9, EOS_ID]
    with ad.no_grad():
        h = tm.forward_hidden(m, toks).values
        want = ad.rms_norm(
            ad.gather_rows(m.params["token_embedding"], toks), m.params["final_norm"], eps=tm.RMS_EPS
        ).values
    np.testing.assert_array_equal(h, want)


def test_out_of_range_token_names_position():
    m = tm.init_model(TINY, seed=0)
    with pytest.raises(ValueError, match="position 1"):
        tm.forward_hidden(m, [5, 999, 4])


def test_embed_sequence_unit_norm_and_eos_row():
    m = tm.init_model(TINY, seed=5)
    toks = tokenize("ab", TINY.max_seq_len)
    with ad.no_grad():
        e = embed_sequence(m, toks).values[0]
        h = tm.forward_hidden(m, toks).values
    assert abs(np.linalg.norm(e) - 1.0) < 1e-6
    np.testing.assert_allclose(e, h[-1] / np.linalg.norm(h[-1]), atol=1e-7)


def test_embed_sequence_requires_terminal_eos():
    m = tm.init_model(TINY, seed=5)
    with pytest.raises(ValueError, match="EOS"):
        embed_sequence(m, [65, 66])
    with pytest.raises(ValueError, match="EOS"):
        embed_sequence(m, [65, EOS_ID, 66, EOS_ID])


def test_padding_after_eos_does_not_change_embedding():
    # Masked-out attention terms contribute exactly zero, but padding changes
    # the BLAS reduction length, so agreement is to rounding, not bitwise.
    m = tm.init_model(TINY, seed=6)
    toks = tokenize("padding check", TINY.max_seq_len)
    padded = toks + [PAD_ID] * 5
    with ad.no_grad():
        e = embed_sequence(m, toks).values[0]
        h_padded = tm.forward_hidden(m, padded).values
    eos_row = h_padded[len(toks) - 1]
    np.testing.assert_allclose(e, eos_row / np.linalg.norm(eos_row), atol=1e-6)


def test_model_from_flat_reproduces_forward():
    m = tm.init_model(TINY, seed=7)
    flat = flatten_params(m)
    rebuilt = model_from_flat(TINY, ad.Tensor(flat))
    toks = tokenize("flat view", TINY.max_seq_len)
    with ad.no_grad():
        np.testing.assert_array_equal(
            tm.forward_hidden(m, toks).values, tm.forward_hidden(rebuilt, toks).values
        )


# --- grouped no-grad embedding -------------------------------------------------

WIDE = ModelConfig(
    hidden_size=16, mlp_intermediate_size=24, num_layers=2, num_heads=4, num_kv_heads=2, head_dim=4,
    vocab_size=258, max_seq_len=96,
)


def mixed_length_texts(seed=0):
    """Ragged lengths, duplicates, empty texts (EOS only), and more 40-byte texts
    than one forward may hold, so the token cap splits that length group."""
    rng = np.random.default_rng(seed)
    word = lambda n: "".join(chr(97 + int(c)) for c in rng.integers(0, 26, size=n))
    texts = [word(int(n)) for n in rng.integers(0, 95, size=30)]
    texts += [word(40) for _ in range(ad.MAX_FORWARD_TOKENS // 41 + 2)]
    texts += ["", "", texts[3], "x"]
    rng.shuffle(texts)
    return texts


def test_length_chunks_cover_every_index_once_under_the_token_cap():
    seqs = [tokenize(t, WIDE.max_seq_len) for t in mixed_length_texts()]
    chunks = ad.length_chunks([len(s) for s in seqs])
    assert sorted(i for c in chunks for i in c) == list(range(len(seqs)))
    split = False
    for c in chunks:
        t = len(seqs[c[0]])
        assert all(len(seqs[i]) == t for i in c) and c == sorted(c)
        assert len(c) == 1 or len(c) * t <= ad.MAX_FORWARD_TOKENS
        split |= t == 41 and len(c) < sum(len(s) == 41 for s in seqs)
    assert split


def test_length_chunks_fill_each_forward_to_the_token_cap():
    # Every chunk but the last of its length holds MAX_FORWARD_TOKENS // t sequences.
    lengths = [12] * 300 + [16] * 350 + [78] * 20 + [33] * 7 + [1] * 3
    lengths = [int(t) for t in np.random.default_rng(4).permutation(lengths)]
    last = {}
    for c in ad.length_chunks(lengths):
        t = lengths[c[0]]
        if t in last:
            assert len(last[t]) == ad.MAX_FORWARD_TOKENS // t, t
        last[t] = c
    assert sorted(last) == [1, 12, 16, 33, 78]


NARROWING = [(g, n) for g in (1, 2, 4) for n in (0, 1, 2)]


@pytest.mark.parametrize("group, layers", NARROWING, ids=[f"group{g}-layers{n}" for g, n in NARROWING])
def test_raw_embeddings_bitwise_equal_one_sequence_at_a_time(group, layers):
    # group: query heads per KV head.
    cfg = replace(WIDE, num_heads=WIDE.num_kv_heads * group, num_layers=layers)
    seqs = [tokenize(t, WIDE.max_seq_len) for t in mixed_length_texts(seed=1)]
    # One-token sequences share a chunk.
    assert any(len(c) >= 2 and len(seqs[c[0]]) == 1 for c in ad.length_chunks([len(s) for s in seqs]))
    for dtype in (np.float32, np.float64):
        m = tm.init_model(cfg, seed=8).astype(dtype)
        got = tm.raw_embeddings(m, seqs)
        with ad.no_grad():
            want = np.stack([raw_sequence_embedding(m, s).values[0] for s in seqs])
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_raw_embeddings_run_the_last_layer_on_eos_rows_only(monkeypatch):
    # Chunks: "" (one token), two of 4 tokens, two of 5. Only chunks of several
    # sequences narrow, and only in the last layer.
    texts = ["abc", "", "ghij", "def", "klmn"]
    rows = {}
    matmul, gated_mlp = ad.matmul, ad.gated_mlp

    def spy(a, b, segments=None):
        rows.setdefault(id(b), []).append(a.shape[0])
        return matmul(a, b, segments)

    def mlp_spy(x, w_gate, *weights, **kw):
        rows.setdefault(id(w_gate), []).append(x.shape[0])
        return gated_mlp(x, w_gate, *weights, **kw)

    monkeypatch.setattr(ad, "matmul", spy)
    monkeypatch.setattr(ad, "gated_mlp", mlp_spy)
    monkeypatch.setattr(tm, "_cpu_count", lambda: 1)  # concurrent chunks would interleave the calls
    for cfg in (WIDE, replace(WIDE, num_heads=WIDE.num_kv_heads, num_layers=3)):
        m = tm.init_model(cfg, seed=4)
        rows.clear()
        tm.raw_embeddings(m, [tokenize(t, cfg.max_seq_len) for t in texts])
        assert rows[id(m.params["layers.0.gate_proj"])] == [1, 8, 10]
        assert rows[id(m.params[f"layers.{cfg.num_layers - 1}.gate_proj"])] == [1, 2, 2]
        assert rows[id(m.params[f"layers.{cfg.num_layers - 1}.k_proj"])] == [1, 8, 10]


def test_forward_bitwise_equals_the_unfused_mlp_chain(monkeypatch):
    # Taps (the pruning calibration path), no-grad EOS rows, and a packed
    # forward's output and parameter gradients, against the same model with the
    # MLP built from the unfused chain.
    m = tm.init_model(WIDE, seed=10)
    seqs = [tokenize(t, WIDE.max_seq_len) for t in mixed_length_texts(seed=4)]
    monkeypatch.setattr(tm, "_cpu_count", lambda: 1)

    def run():
        taps = [(idx, r.residual, r.mlp_act) for idx, r in tm.forward_chunks(m, seqs)]
        out = tm.raw_sequence_embeddings(m, seqs)
        ad.backward(sum_all(mul(out, ad.Tensor(np.cos(np.arange(out.values.size)).reshape(out.shape)))))
        return taps, [tm.raw_embeddings(m, seqs), out.values] + [p.grad for p in m.params.values()]

    fused_taps, fused = run()
    monkeypatch.setattr(ad, "gated_mlp", unfused_gated_mlp)
    chain_taps, chain = run()
    assert len(fused_taps) == len(chain_taps) > 8
    for (idx, res, acts), (want_idx, want_res, want_acts) in zip(fused_taps, chain_taps):
        assert idx == want_idx and len(acts) == len(want_acts) == WIDE.num_layers
        for got, want in zip(res + acts, want_res + want_acts):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    for got, want in zip(fused, chain):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_mlp_act_taps_are_the_chains_activation_of_each_layer(monkeypatch):
    # Pruning calibration reads mlp_act: each layer's silu(gate) * up, as the
    # unfused chain computes it from that layer's MLP input, in layer order.
    m = tm.init_model(WIDE, seed=11)
    seqs = [tokenize(t, WIDE.max_seq_len) for t in mixed_length_texts(seed=5)]
    calls, gated_mlp = [], ad.gated_mlp

    def spy(x, *weights, segments=None, acts=None):
        calls.append((x, weights, segments))
        return gated_mlp(x, *weights, segments=segments, acts=acts)

    monkeypatch.setattr(ad, "gated_mlp", spy)
    for _, taps in tm.forward_chunks(m, seqs):
        assert len(taps.mlp_act) == len(calls) == WIDE.num_layers
        for got, (x, weights, segments) in zip(taps.mlp_act, calls):
            want = []
            unfused_gated_mlp(x, *weights, segments=segments, acts=want)
            assert got.dtype == want[0].dtype
            np.testing.assert_array_equal(got, want[0])
        calls.clear()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_chunk_threads_bitwise_equal_one_thread(monkeypatch, dtype):
    # Mixed lengths with one-token texts: each chunk is the same computation on
    # either thread, written back by index. A short switch interval interleaves
    # the chunks as much as it can.
    m = tm.init_model(WIDE, seed=6).astype(dtype)
    seqs = [tokenize(t, WIDE.max_seq_len) for t in mixed_length_texts(seed=3)]
    assert sum(len(s) == 1 for s in seqs) >= 2 and len(ad.length_chunks([len(s) for s in seqs])) > 8
    monkeypatch.setattr(tm, "_cpu_count", lambda: 1)
    want = tm.raw_embeddings(m, seqs)
    pools = []
    monkeypatch.setattr(tm, "ThreadPoolExecutor", lambda n, **kw: pools.append(n) or ThreadPoolExecutor(n, **kw))
    monkeypatch.setattr(tm, "_cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = tm.raw_embeddings(m, seqs)
    finally:
        sys.setswitchinterval(interval)
    assert pools == [tm.MAX_CHUNK_THREADS] == [2]
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, want)


def test_chunk_threads_raise_in_the_caller_and_leave_no_thread(monkeypatch):
    monkeypatch.setattr(tm, "_cpu_count", lambda: 2)
    m = tm.init_model(WIDE, seed=6)
    seqs = [tokenize(t, WIDE.max_seq_len) for t in mixed_length_texts(seed=3)]
    start = threading.active_count()
    tm.raw_embeddings(m, seqs)
    assert threading.active_count() == start
    # Only sequences holding "~" reach the NaN row: one chunk fails.
    m.params["token_embedding"].values[tokenize("~")[0]] = np.nan
    with pytest.raises(ad.NonFiniteError, match="gather_rows"):
        tm.raw_embeddings(m, seqs + [tokenize("ab~", WIDE.max_seq_len)])
    assert threading.active_count() == start


def test_embed_texts_bitwise_equal_embed_text():
    m = tm.init_model(WIDE, seed=9)
    texts = mixed_length_texts(seed=2)
    np.testing.assert_array_equal(tm.embed_texts(m, texts), np.stack([embed_text(m, t) for t in texts]))
    assert tm.embed_texts(m, []).shape == (0, WIDE.hidden_size)


def test_raw_embeddings_validate_every_sequence():
    m = tm.init_model(WIDE, seed=0)
    with pytest.raises(ValueError, match="EOS"):
        tm.raw_embeddings(m, [tokenize("ok"), [65, 66]])
    with pytest.raises(ValueError, match="position 1"):
        tm.raw_embeddings(m, [tokenize("ok"), [5, 999, EOS_ID]])


def test_packed_forward_graph_does_not_grow_with_the_batch():
    # One graph per batch: 32 texts of two lengths build as many forward nodes as 2.
    m = tm.init_model(TINY, seed=3)

    def forward_nodes(texts):
        return len(ad.trace(tm.raw_sequence_embeddings(m, [tokenize(t) for t in texts])))

    texts = [f"{i:03d}" if i % 2 else f"text {i:03d}" for i in range(32)]
    assert forward_nodes(texts) == forward_nodes(texts[:2])


def test_raw_sequence_embeddings_validate_every_sequence():
    m = tm.init_model(TINY, seed=0)
    with pytest.raises(ValueError, match="EOS"):
        tm.raw_sequence_embeddings(m, [tokenize("ok"), [65, 66]])
    with pytest.raises(ValueError, match="position 1"):
        tm.raw_sequence_embeddings(m, [tokenize("ok"), [5, 999, EOS_ID]])


# --- tokenizer ---------------------------------------------------------------


def test_tokenize_empty_is_eos_only():
    assert tokenize("") == [EOS_ID]


def test_tokenize_ascii():
    assert tokenize("AB") == [65, 66, EOS_ID]


def test_tokenize_truncates():
    toks = tokenize("x" * 100, max_seq_len=16)
    assert len(toks) == 16 and toks[-1] == EOS_ID


def test_tokenize_round_trip_random_strings():
    rng = np.random.default_rng(11)
    alphabet = "abcXYZ 0123🙂éßñ中文"
    for _ in range(200):
        s = "".join(rng.choice(list(alphabet), size=rng.integers(0, 40)))
        if len(s.encode("utf-8")) < 511:
            assert detokenize(tokenize(s)) == s


# --- checkpoints -------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    m = tm.init_model(TINY, seed=9)
    tm.save_checkpoint(m, tmp_path / "ckpt")
    loaded = tm.load_checkpoint(tmp_path / "ckpt")
    assert loaded.config == TINY
    for name in m.params:
        np.testing.assert_array_equal(m.params[name].values, loaded.params[name].values)


def test_checkpoint_rejects_truncated_weights(tmp_path):
    m = tm.init_model(TINY, seed=9)
    tm.save_checkpoint(m, tmp_path / "ckpt")
    blob = (tmp_path / "ckpt" / "weights.bin").read_bytes()
    (tmp_path / "ckpt" / "weights.bin").write_bytes(blob[:-4])
    with pytest.raises(ValueError):
        tm.load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_save_is_deterministic(tmp_path):
    m = tm.init_model(TINY, seed=9)
    tm.save_checkpoint(m, tmp_path / "a")
    tm.save_checkpoint(m, tmp_path / "b")
    for fname in ("config.json", "manifest.json", "weights.bin"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()
