"""Consolidation, mining, capping, instruction, and batching behavior."""

import random

import numpy as np
import pytest

from tinyembed import data as td
from tinyembed.data import (
    CLUSTERING,
    PAIR_CLASSIFICATION,
    RETRIEVAL,
    Batch,
    CanonicalSample,
    SchemaError,
)

import reference


def sample(fmt=RETRIEVAL, source="src", negs=None, symmetric=False, task_type="qa", instruction=None, query="q", positive="d"):
    if negs is None:
        negs = [] if fmt == RETRIEVAL else ["n"]
    return CanonicalSample(
        format=fmt, query=query, positive=positive, negatives=negs,
        source=source, task_type=task_type, symmetric=symmetric, instruction=instruction,
    )


# --- consolidate -------------------------------------------------------------


def test_consolidate_retrieval_record():
    s = td.consolidate({"query": "q1", "pos": "d+", "negs": ["d1"], "source": "s", "task_type": "qa"}, random.Random(0))
    assert s.format == RETRIEVAL and s.query == "q1" and s.positive == "d+" and s.negatives == ["d1"]
    assert s.symmetric is False and td.Batch([s]).uses_in_batch_negatives


def test_consolidate_classed_record():
    record = {"anchor": "x1", "classes": {"A": ["x1", "x2"], "B": ["y1"]}, "source": "s", "task_type": "clustering"}
    s = td.consolidate(record, random.Random(0))
    assert s.format == CLUSTERING and s.query == "x1" and s.positive == "x2"
    assert s.negatives == ["y1"] and s.symmetric is True
    assert not td.Batch([s]).uses_in_batch_negatives


def test_consolidate_binary_record():
    record = {"text": "great film", "label": "positive", "labels": ["positive", "negative"], "source": "s", "task_type": "sentiment"}
    s = td.consolidate(record, random.Random(0))
    assert s.format == PAIR_CLASSIFICATION and s.positive == "positive" and s.negatives == ["negative"]
    assert s.symmetric is False


def test_consolidate_unknown_schema_names_fields():
    with pytest.raises(SchemaError, match="query / label / classes"):
        td.consolidate({"foo": 1}, random.Random(0))
    with pytest.raises(SchemaError, match="missing fields: pos"):
        td.consolidate({"query": "q", "source": "s", "task_type": "qa"}, random.Random(0))


def test_consolidate_is_deterministic():
    record = {"anchor": "x1", "classes": {"A": ["x1", "x2", "x3"], "B": ["y1", "y2"]}, "source": "s", "task_type": "clustering"}
    a = td.consolidate(record, random.Random(42))
    b = td.consolidate(record, random.Random(42))
    assert a == b


def test_consolidate_records_groups_classed_stream():
    records = [
        {"text": "x1", "class": "A", "source": "s", "task_type": "clustering"},
        {"text": "x2", "class": "A", "source": "s", "task_type": "clustering"},
        {"text": "y1", "class": "B", "source": "s", "task_type": "clustering"},
        {"query": "q", "pos": "d", "source": "r", "task_type": "qa"},
    ]
    samples = td.consolidate_records(enumerate(records), random.Random(0))
    formats = sorted(s.format for s in samples)
    # y1 has no same-class partner, so only x1 and x2 become clustering anchors
    assert formats == [CLUSTERING, CLUSTERING, RETRIEVAL]


def test_consolidate_records_equals_the_per_anchor_reference():
    # Small vocabularies repeat texts within a class and across classes; a class
    # holding only copies of one text has no positive and raises in both.
    rng = np.random.default_rng(23)
    outcomes = set()
    for _ in range(60):
        records = []
        for g in range(int(rng.integers(1, 4))):
            vocab = [f"g{g}w{i}" for i in range(int(rng.integers(2, 40)))]
            n_classes = int(rng.integers(1, 6))
            for _ in range(int(rng.integers(1, 40))):
                text, label = str(rng.choice(vocab)), f"c{int(rng.integers(0, n_classes))}"
                records.append({"text": text, "class": label, "source": f"s{g}", "task_type": "clustering"})
        records.insert(int(rng.integers(0, len(records) + 1)), {"query": "q", "pos": "d", "source": "r", "task_type": "qa"})
        seed = int(rng.integers(0, 2**31))
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        try:
            want = reference.consolidate_records(enumerate(records), want_rng)
        except SchemaError as e:
            outcomes.add("error")
            with pytest.raises(SchemaError, match=str(e)):
                td.consolidate_records(enumerate(records), got_rng)
            continue
        outcomes.add("samples")
        got = td.consolidate_records(enumerate(records), got_rng)
        assert [s.to_json() for s in got] == [s.to_json() for s in want]
        assert got_rng.getstate() == want_rng.getstate()
    assert outcomes == {"error", "samples"}


def test_classes_record_equals_the_per_anchor_reference():
    cases = [
        ("x1", {"A": ["x1", "x2", "x3"], "B": ["y1", "y2"]}),
        ("x1", {"B": ["y1", "x1"], "A": ["x1", "x2", "x1"], "C": []}),  # first class holding the anchor
        ("y1", {"A": ["x1", "x2"], "B": ["y1", "y1", "y2"], "C": ["z1"]}),
        ("x1", {"A": ["x1", "x1"], "B": ["y1"]}),  # no positive
        ("x1", {"A": ["x1", "x2"], "B": []}),  # no negative
        ("q", {"A": ["x1", "x2"], "B": ["y1"]}),  # anchor in no class
    ]
    for anchor, classes in cases:
        record = {"anchor": anchor, "classes": classes, "source": "s", "task_type": "clustering"}
        for seed in range(5):
            try:
                want = reference.clustering_sample(anchor, classes, "s", "clustering", random.Random(seed))
            except SchemaError as e:
                with pytest.raises(SchemaError, match=str(e)):
                    td.consolidate(record, random.Random(seed))
                continue
            assert td.consolidate(record, random.Random(seed)) == want


# --- mining ------------------------------------------------------------------


def fake_embedder(sim_by_text):
    """Embed into 2-D so cos(query, text) equals the hand-set similarity."""

    def embed(text):
        s = sim_by_text.get(text, 1.0)
        return np.array([s, np.sqrt(max(0.0, 1.0 - s * s))])

    return embed


def test_mine_k_zero_gives_empty_lists():
    out = td.mine_hard_negatives(["q"], ["a", "b"], fake_embedder({"a": 0.1, "b": 0.2}), k=0, positive_indices=[0])
    assert out == [[]]


def test_mine_hand_set_similarities():
    sims = {"doc0": 0.9, "doc1": 0.7, "doc2": 0.5, "doc3": 0.3}
    out = td.mine_hard_negatives(
        ["q"], ["doc0", "doc1", "doc2", "doc3"], fake_embedder(sims), k=2, skip_top=0, positive_indices=[0]
    )
    assert out == [["doc1", "doc2"]]


def test_mine_skip_top_drops_top_rank_and_positive():
    sims = {"doc0": 0.9, "doc1": 0.7, "doc2": 0.5, "doc3": 0.3}
    # positive is rank 0: skip_top=1 excludes only the positive
    out = td.mine_hard_negatives(["q"], list(sims), fake_embedder(sims), k=3, skip_top=1, positive_indices=[0])
    assert out == [["doc1", "doc2", "doc3"]]
    # positive is rank 2: skip_top=1 excludes rank 0 and the positive
    out = td.mine_hard_negatives(["q"], list(sims), fake_embedder(sims), k=3, skip_top=1, positive_indices=[2])
    assert out == [["doc1", "doc3"]]


def test_mine_never_returns_positive_and_matches_sort_oracle():
    rng = np.random.default_rng(13)
    for trial in range(20):
        n = 50
        corpus = [f"doc{j}" for j in range(n)]
        sims = {d: float(s) for d, s in zip(corpus, rng.uniform(-1, 1, size=n))}
        emb = fake_embedder(sims)
        k, skip_top, pos = int(rng.integers(0, 8)), int(rng.integers(0, 4)), int(rng.integers(0, n))
        got = td.mine_hard_negatives(["q"], corpus, emb, k=k, skip_top=skip_top, positive_indices=[pos])[0]
        q = emb("q")
        full = sorted(corpus, key=lambda d: (-(emb(d) @ q), corpus.index(d)))
        dropped = set(full[:skip_top]) | {corpus[pos]}
        want = [d for d in full if d not in dropped][:k]
        assert got == want
        assert corpus[pos] not in got


def test_mine_exhausted_corpus_returns_what_is_available():
    sims = {"a": 0.9, "b": 0.5}
    out = td.mine_hard_negatives(["q"], ["a", "b"], fake_embedder(sims), k=10, skip_top=0, positive_indices=[0])
    assert out == [["b"]]


def test_mine_tied_similarities_match_key_sort():
    # Few distinct directions, so most similarities tie (zeros and signed zeros included).
    directions = np.array([[1.0, 0.0], [-0.0, 1.0], [-0.0, -1.0], [0.6, 0.8], [0.6, -0.8], [-1.0, -0.0]])
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = 40
        corpus = [f"doc{j}" for j in range(n)]
        queries = [f"q{i}" for i in range(5)]
        vecs = {t: directions[rng.integers(0, len(directions))] for t in corpus + queries}
        positives = [int(p) for p in rng.integers(0, n, size=5)]
        k, skip_top = int(rng.integers(1, 8)), int(rng.integers(0, 4))
        got = td.mine_hard_negatives(queries, corpus, vecs.__getitem__, k=k, skip_top=skip_top,
                                     positive_indices=positives)
        doc_embs = np.stack([vecs[d] for d in corpus])
        for query, pos, mined in zip(queries, positives, got):
            sims = doc_embs @ vecs[query]
            order = sorted(range(n), key=lambda j: (-sims[j], j))
            excluded = set(order[:skip_top]) | {pos}
            assert mined == [corpus[j] for j in order if j not in excluded][:k]


def test_mine_never_returns_a_copy_of_the_positive_or_a_text_twice():
    # Samples that share a positive text put it in the corpus more than once.
    sims = {"P": 0.9, "E": 0.5}
    out = td.mine_hard_negatives(
        ["q1", "q2", "q1"], ["P", "P", "E"], fake_embedder(sims), k=2, skip_top=0, positive_indices=[0, 1, 2]
    )
    assert out == [["E"], ["E"], ["P"]]
    rng = np.random.default_rng(15)
    for _ in range(30):
        texts = [f"doc{j}" for j in range(6)]
        corpus = [texts[j] for j in rng.integers(0, len(texts), size=12)]
        sims = {d: float(x) for d, x in zip(texts, rng.uniform(-1, 1, size=len(texts)))}
        positives = [int(p) for p in rng.integers(0, len(corpus), size=5)]
        k, skip_top = int(rng.integers(1, 8)), int(rng.integers(0, 3))
        got = td.mine_hard_negatives([f"q{i}" for i in range(5)], corpus, fake_embedder(sims), k=k,
                                     skip_top=skip_top, positive_indices=positives)
        for pos, mined in zip(positives, got):
            assert corpus[pos] not in mined
            assert len(mined) == len(set(mined))
            ranked = sorted(set(corpus), key=lambda d: -sims[d])  # no two similarities tie
            assert mined == [d for d in ranked[skip_top:] if d != corpus[pos]][:k]


# --- capping -----------------------------------------------------------------


def test_cap_under_cap_unchanged():
    samples = [sample(source="s") for _ in range(50)]
    assert td.cap_per_source(samples, 80_000, random.Random(0)) == samples


def test_cap_exact_cardinality():
    samples = [sample(source="big", query=f"q{i}") for i in range(100)] + [sample(source="small")]
    capped = td.cap_per_source(samples, 10, random.Random(0))
    assert sum(1 for s in capped if s.source == "big") == 10
    assert sum(1 for s in capped if s.source == "small") == 1


def test_cap_deterministic_given_seed():
    samples = [sample(source="s", query=f"q{i}") for i in range(100)]
    a = td.cap_per_source(samples, 7, random.Random(99))
    b = td.cap_per_source(samples, 7, random.Random(99))
    assert a == b


# --- instructions ------------------------------------------------------------


def test_stage1_is_identity():
    s = sample(instruction="Find the answer")
    assert td.apply_instructions(s, stage=1) == s


def test_stage2_asymmetric_prefixes_query_only():
    s = sample(fmt=RETRIEVAL, negs=["n1", "n2"], instruction="Retrieve docs", symmetric=False)
    out = td.apply_instructions(s, stage=2, rng=random.Random(0))
    assert out.query == "Retrieve docs\nq"
    assert out.positive == "d" and out.negatives == ["n1", "n2"]


def test_stage2_symmetric_document_fraction():
    rng = random.Random(123)
    n_prefixed = 0
    n_docs = 0
    for i in range(5000):
        s = sample(fmt=CLUSTERING, negs=["n"], symmetric=True, instruction="Cluster this", query=f"q{i}")
        out = td.apply_instructions(s, stage=2, p_doc=0.30, rng=rng)
        n_docs += 2
        n_prefixed += out.positive.startswith("Cluster this\n") + out.negatives[0].startswith("Cluster this\n")
    assert 0.28 <= n_prefixed / n_docs <= 0.32


def test_stage2_missing_template_errors():
    with pytest.raises(ValueError, match="instruction"):
        td.apply_instructions(sample(instruction=None), stage=2, rng=random.Random(0))


# --- batching ----------------------------------------------------------------


def test_make_batches_chunk_arithmetic():
    samples = [sample(query=f"q{i}") for i in range(10)]
    batches = td.make_batches(samples, 4, random.Random(0))
    assert sorted(len(b) for b in batches) == [2, 4, 4]


def test_trailing_singleton_dropped():
    samples = [sample(query=f"q{i}") for i in range(5)]
    batches = td.make_batches(samples, 2, random.Random(0))
    assert sorted(len(b) for b in batches) == [2, 2]


def test_sources_never_mixed():
    rng = random.Random(5)
    samples = [sample(source=f"s{rng.randrange(4)}", query=f"q{i}") for i in range(97)]
    for b in td.make_batches(samples, 8, random.Random(1)):
        assert len({s.source for s in b.samples}) == 1


def test_batches_deterministic():
    samples = [sample(source=f"s{i % 3}", query=f"q{i}") for i in range(50)]
    a = td.make_batches(samples, 8, random.Random(7))
    b = td.make_batches(samples, 8, random.Random(7))
    assert [x.samples for x in a] == [y.samples for y in b]


def test_batch_size_validation():
    with pytest.raises(ValueError, match="batch_size"):
        td.make_batches([sample()], 1, random.Random(0))


def test_clustering_batches_carry_negatives_and_suppress_in_batch():
    samples = [sample(fmt=CLUSTERING, negs=["n"], query=f"q{i}") for i in range(6)]
    for b in td.make_batches(samples, 3, random.Random(0)):
        assert not b.uses_in_batch_negatives
        assert all(s.negatives for s in b.samples)


def test_batch_rejects_mixed_formats():
    with pytest.raises(ValueError, match="formats"):
        Batch([sample(fmt=RETRIEVAL), sample(fmt=CLUSTERING, negs=["n"])])


def test_epoch_batches_varies_composition_across_epochs():
    samples = [sample(query=f"q{i}") for i in range(32)]
    batches = td.epoch_batches(samples, 8, random.Random(3), epochs=3)
    assert len(batches) == 12  # 4 per epoch
    epoch_groups = [batches[i : i + 4] for i in range(0, 12, 4)]
    def key(group):
        return tuple(tuple(s.query for s in b.samples) for b in group)
    assert len({key(g) for g in epoch_groups}) > 1


# --- stats and jsonl ----------------------------------------------------------


def test_stats_empty():
    assert td.stats_report([]) == {"total": 0, "by_source": {}, "by_format": {}, "by_task_type": {}}


def test_stats_counts():
    samples = [sample(source="src1"), sample(source="src1"), sample(source="src2")]
    report = td.stats_report(samples)
    assert report["by_source"] == {"src1": 2, "src2": 1}
    assert report["total"] == 3


def test_stats_total_matches_input_length():
    rng = random.Random(3)
    samples = [sample(source=f"s{rng.randrange(5)}", task_type=f"t{rng.randrange(3)}") for _ in range(37)]
    report = td.stats_report(samples)
    assert sum(report["by_source"].values()) == len(samples)
    assert sum(report["by_task_type"].values()) == len(samples)


def test_jsonl_round_trip(tmp_path):
    samples = [sample(query="héllo 🙂"), sample(fmt=CLUSTERING, negs=["n1", "n2"], symmetric=True)]
    path = tmp_path / "x.jsonl"
    td.write_samples(path, samples)
    assert td.read_samples(path) == samples


def test_read_jsonl_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"query": "ok", "pos": "d", "source": "s", "task_type": "qa"}\nnot json\n')
    with pytest.raises(SchemaError, match=":2:"):
        td.read_jsonl(path)
