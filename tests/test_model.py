"""Architecture tests: init determinism, causality, EOS pooling, parameter accounting, checkpoints."""

import numpy as np
import pytest

from tinyembed import autodiff as ad
from tinyembed import model as tm
from tinyembed.model import ModelConfig
from tinyembed.tokenizer import EOS_ID, PAD_ID, detokenize, tokenize

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
        e = tm.embed_sequence(m, toks).values[0]
        h = tm.forward_hidden(m, toks).values
    assert abs(np.linalg.norm(e) - 1.0) < 1e-6
    np.testing.assert_allclose(e, h[-1] / np.linalg.norm(h[-1]), atol=1e-7)


def test_embed_sequence_requires_terminal_eos():
    m = tm.init_model(TINY, seed=5)
    with pytest.raises(ValueError, match="EOS"):
        tm.embed_sequence(m, [65, 66])
    with pytest.raises(ValueError, match="EOS"):
        tm.embed_sequence(m, [65, EOS_ID, 66, EOS_ID])


def test_padding_after_eos_does_not_change_embedding():
    # Masked-out attention terms contribute exactly zero, but padding changes
    # the BLAS reduction length, so agreement is to rounding, not bitwise.
    m = tm.init_model(TINY, seed=6)
    toks = tokenize("padding check", TINY.max_seq_len)
    padded = toks + [PAD_ID] * 5
    with ad.no_grad():
        e = tm.embed_sequence(m, toks).values[0]
        h_padded = tm.forward_hidden(m, padded).values
    eos_row = h_padded[len(toks) - 1]
    np.testing.assert_allclose(e, eos_row / np.linalg.norm(eos_row), atol=1e-6)


def test_model_from_flat_reproduces_forward():
    m = tm.init_model(TINY, seed=7)
    flat = tm.flatten_params(m)
    rebuilt = tm.model_from_flat(TINY, ad.Tensor(flat))
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
    texts += [word(40) for _ in range(tm.MAX_FORWARD_TOKENS // 41 + 2)]
    texts += ["", "", texts[3], "x"]
    rng.shuffle(texts)
    return texts


def test_length_chunks_cover_every_index_once_under_the_token_cap():
    seqs = [tokenize(t, WIDE.max_seq_len) for t in mixed_length_texts()]
    chunks = tm.length_chunks(seqs)
    assert sorted(i for c in chunks for i in c) == list(range(len(seqs)))
    split = False
    for c in chunks:
        t = len(seqs[c[0]])
        assert all(len(seqs[i]) == t for i in c) and c == sorted(c)
        assert len(c) == 1 or len(c) * t <= tm.MAX_FORWARD_TOKENS
        assert t > 1 or len(c) == 1
        split |= t == 41 and len(c) < sum(len(s) == 41 for s in seqs)
    assert split


def test_raw_embeddings_bitwise_equal_one_sequence_at_a_time():
    for dtype in (np.float32, np.float64):
        m = tm.init_model(WIDE, seed=8).astype(dtype)
        seqs = [tokenize(t, WIDE.max_seq_len) for t in mixed_length_texts(seed=1)]
        got = tm.raw_embeddings(m, seqs)
        with ad.no_grad():
            want = np.stack([tm.raw_sequence_embedding(m, s).values[0] for s in seqs])
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_embed_texts_bitwise_equal_embed_text():
    m = tm.init_model(WIDE, seed=9)
    texts = mixed_length_texts(seed=2)
    np.testing.assert_array_equal(tm.embed_texts(m, texts), np.stack([tm.embed_text(m, t) for t in texts]))
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
