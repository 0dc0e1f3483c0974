"""Metric-kernel oracles and harness behavior."""

import csv
import math
import random

import numpy as np
import pytest
import scipy.stats

from tinyembed import evaluation as ev
from tinyembed import synthetic as syn
from tinyembed.evaluation import EvalTask
from tinyembed.model import ModelConfig, init_model

TINY = ModelConfig(hidden_size=16, mlp_intermediate_size=16, num_layers=1, num_heads=2,
                   num_kv_heads=1, head_dim=4, vocab_size=258, max_seq_len=32)


# --- nDCG ---------------------------------------------------------------------


def test_ndcg_perfect_ranking():
    assert ev.ndcg_at_k([0, 1, 2], {0: 1.0, 1: 1.0}, k=3) == 1.0


def test_ndcg_single_relevant_at_rank_3():
    assert abs(ev.ndcg_at_k([7, 8, 3, 9], {3: 1.0}, k=10) - 0.5) < 1e-12


def test_ndcg_matches_direct_formula_oracle():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randrange(2, 30)
        ranking = list(range(n))
        rng.shuffle(ranking)
        relevant = {d: rng.choice([1.0, 2.0, 3.0]) for d in rng.sample(range(n), rng.randrange(1, n))}
        k = rng.randrange(1, n + 2)
        got = ev.ndcg_at_k(ranking, relevant, k)
        dcg = 0.0
        for rank, doc in enumerate(ranking, start=1):
            if rank > k:
                break
            dcg += relevant.get(doc, 0.0) / math.log2(rank + 1)
        ideal = sum(
            g / math.log2(r + 1) for r, g in enumerate(sorted(relevant.values(), reverse=True)[:k], start=1)
        )
        assert got == dcg / ideal


def test_ndcg_invariant_below_cutoff():
    ranking = [3, 1, 4, 1, 5, 9, 2, 6]
    relevant = {3: 1.0, 5: 1.0}
    base = ev.ndcg_at_k(ranking, relevant, k=3)
    shuffled_tail = ranking[:3] + ranking[3:][::-1]
    assert ev.ndcg_at_k(shuffled_tail, relevant, k=3) == base


def test_ndcg_validation():
    with pytest.raises(ValueError, match="relevant"):
        ev.ndcg_at_k([0, 1], {}, k=2)
    with pytest.raises(ValueError, match="k"):
        ev.ndcg_at_k([0], {0: 1.0}, k=0)


# --- Spearman -------------------------------------------------------------------


def test_spearman_identity_and_reverse():
    assert abs(ev.spearman([1, 2, 3, 4], [1, 2, 3, 4]) - 1.0) < 1e-12
    assert abs(ev.spearman([4, 3, 2, 1], [1, 2, 3, 4]) + 1.0) < 1e-12


def test_spearman_tie_case_hand_computed():
    got = ev.spearman([1, 2, 2, 4], [1, 2, 3, 4])
    assert abs(got - 3 / math.sqrt(10)) < 1e-12


def test_spearman_matches_scipy_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        pred = rng.choice([0.1, 0.5, 0.9, 1.3], size=n).tolist()
        gold = rng.standard_normal(n).tolist()
        if len(set(pred)) < 2:
            continue
        want = scipy.stats.spearmanr(pred, gold).statistic
        assert abs(ev.spearman(pred, gold) - want) < 1e-9


def test_spearman_monotone_transform_invariance():
    rng = np.random.default_rng(2)
    pred = rng.standard_normal(20).tolist()
    gold = rng.standard_normal(20).tolist()
    transformed = [math.exp(2 * p) + 1 for p in pred]
    assert abs(ev.spearman(pred, gold) - ev.spearman(transformed, gold)) < 1e-12


def test_spearman_zero_variance_errors():
    with pytest.raises(ValueError, match="zero-variance"):
        ev.spearman([1.0, 1.0, 1.0], [1, 2, 3])


# --- pair accuracy ---------------------------------------------------------------


def test_pair_accuracy_perfectly_separated():
    acc, thr = ev.best_threshold_accuracy([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
    assert acc == 1.0 and 0.2 < thr < 0.8


def test_pair_accuracy_chance_on_equal_sims():
    acc, _ = ev.best_threshold_accuracy([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
    assert acc == 0.5


def test_pair_accuracy_matches_exhaustive_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 25))
        sims = rng.choice(np.linspace(-1, 1, 9), size=n).tolist()
        labels = rng.integers(0, 2, size=n).tolist()
        if len(set(labels)) < 2:
            continue
        got_acc, _ = ev.best_threshold_accuracy(sims, labels)
        candidates = [min(sims) - 1, max(sims) + 1]
        su = sorted(set(sims))
        candidates += [(a + b) / 2 for a, b in zip(su, su[1:])]
        want = max(sum((s > t) == bool(l) for s, l in zip(sims, labels)) / n for t in candidates)
        assert got_acc == want
        assert got_acc >= max(labels.count(0), labels.count(1)) / n


def test_pair_accuracy_single_class_errors():
    with pytest.raises(ValueError, match="both labels"):
        ev.best_threshold_accuracy([0.1, 0.2], [1, 1])


# --- harness ---------------------------------------------------------------------


def small_tasks(seed=0):
    return [
        syn.retrieval_eval_task("ret", n_queries=6, n_clusters=3, seed=seed),
        syn.sts_eval_task("sts", n_pairs=10, seed=seed),
        syn.pair_classification_eval_task("pc", n_pairs=10, n_clusters=3, seed=seed),
    ]


def test_evaluate_full_dim_equals_no_truncation():
    model = init_model(TINY, seed=0)
    tasks = small_tasks()
    a = ev.evaluate(model, tasks, dim=None)
    b = ev.evaluate(model, tasks, dim=TINY.hidden_size)
    assert [s.score for s in a.scores] == [s.score for s in b.scores]


def test_evaluate_caches_duplicate_texts():
    model = init_model(TINY, seed=0)
    task = EvalTask(kind="STS", name="dup", pairs=[("a", "b"), ("a", "b"), ("a", "c")], gold=[0.1, 0.2, 0.3])
    report = ev.evaluate(model, [task])
    assert report.unique_texts == 3
    assert report.cache_hits == 3
    assert report.requests == 6


def test_evaluate_empty_task_list():
    model = init_model(TINY, seed=0)
    report = ev.evaluate(model, [])
    assert report.scores == [] and report.mean is None


def test_retrieval_tied_similarities_match_key_sort():
    class FixedUnits:
        def __init__(self, vecs):
            self.vecs = vecs

        def unit(self, text, dim):
            return self.vecs[text]

    directions = np.array([[1.0, 0.0], [-0.0, 1.0], [-0.0, -1.0], [0.6, 0.8], [-1.0, -0.0]], dtype=np.float32)
    rng = np.random.default_rng(15)
    for _ in range(20):
        corpus = [f"d{j}" for j in range(30)]
        queries = [f"q{i}" for i in range(6)]
        relevance = [{int(j): float(rng.integers(1, 3)) for j in rng.integers(0, 30, size=3)} for _ in queries]
        task = EvalTask(kind="Retrieval", name="ties", queries=queries, corpus=corpus, relevance=relevance, k=5)
        cache = FixedUnits({t: directions[rng.integers(0, len(directions))] for t in corpus + queries})
        doc_matrix = np.stack([cache.unit(d, None) for d in corpus])
        want = []
        for query, relevant in zip(queries, relevance):
            sims = doc_matrix @ cache.unit(query, None)
            ranking = sorted(range(len(corpus)), key=lambda j: (-sims[j], j))
            want.append(ev.ndcg_at_k(ranking, relevant, task.k))
        assert ev._score_task(task, cache, None) == sum(want) / len(want)


def test_evaluate_dim_validation():
    model = init_model(TINY, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        ev.evaluate(model, small_tasks(), dim=TINY.hidden_size + 1)


def test_mrl_sweep_rows_and_full_dim_row():
    model = init_model(TINY, seed=3)
    tasks = small_tasks(seed=4)
    rows = ev.mrl_sweep(model, tasks, dims=[8, 16])
    assert len(rows) == 2
    assert rows[1][1] == ev.evaluate(model, tasks).mean


def test_mrl_sweep_validation():
    model = init_model(TINY, seed=0)
    with pytest.raises(ValueError, match="ascending"):
        ev.mrl_sweep(model, small_tasks(), dims=[16, 8])
    with pytest.raises(ValueError, match="within"):
        ev.mrl_sweep(model, small_tasks(), dims=[8, 64])


def test_task_json_round_trip(tmp_path):
    tasks = small_tasks(seed=5)
    ev.save_tasks(tmp_path / "tasks.json", tasks)
    loaded = ev.load_tasks(tmp_path / "tasks.json")
    assert [t.to_dict() for t in loaded] == [t.to_dict() for t in tasks]


def test_task_validation():
    with pytest.raises(ValueError, match="unknown task kind"):
        EvalTask(kind="Reranking", name="x")
    with pytest.raises(ValueError, match="relevance"):
        EvalTask(kind="Retrieval", name="x", queries=["q"], corpus=["d"], relevance=[{}])
    with pytest.raises(ValueError, match="labels"):
        EvalTask(kind="PairClassification", name="x", pairs=[("a", "b")], labels=[2])


# --- synthetic generators ---------------------------------------------------------


def test_generators_deterministic():
    a = syn.retrieval_training_samples(20, 4, seed=7, n_negatives=2)
    b = syn.retrieval_training_samples(20, 4, seed=7, n_negatives=2)
    assert a == b
    ta = syn.retrieval_eval_task("t", 10, 4, seed=7)
    tb = syn.retrieval_eval_task("t", 10, 4, seed=7)
    assert ta.to_dict() == tb.to_dict()


def test_retrieval_task_structure():
    task = syn.retrieval_eval_task("t", n_queries=8, n_clusters=4, seed=9, docs_per_cluster=2)
    assert len(task.queries) == 8 and len(task.corpus) == 8
    for rel in task.relevance:
        assert all(0 <= d < len(task.corpus) for d in rel)
        assert len(rel) == 2


def test_cluster_texts_share_signature():
    samples = syn.retrieval_training_samples(6, 3, seed=11)
    for s in samples:
        sig = s.query[:2]
        assert all(w.startswith(sig) for w in s.query.split())
        assert all(w.startswith(sig) for w in s.positive.split())


def test_negatives_come_from_other_clusters():
    samples = syn.retrieval_training_samples(12, 4, seed=13, n_negatives=3)
    for s in samples:
        sig = s.query[:2]
        for n in s.negatives:
            assert not n.startswith(sig)


def test_pair_task_balanced():
    task = syn.pair_classification_eval_task("pc", 40, 5, seed=15)
    assert task.labels.count(0) == task.labels.count(1) == 20


def test_overfit_set_links_queries_to_own_positive():
    samples, task = syn.overfit_retrieval_set(8, seed=17)
    assert task.corpus == [s.positive for s in samples]
    assert task.relevance == [{i: 1.0} for i in range(8)]


def test_scores_csv_quotes_a_name_with_a_comma(tmp_path):
    report = ev.EvalReport([ev.TaskScore("a,b", "STS", 0.5), ev.TaskScore("plain", "Retrieval", 1 / 3)], None, 0, 0, 0)
    ev.write_scores_csv(tmp_path / "scores.csv", report)
    text = (tmp_path / "scores.csv").read_text()
    assert text == f'task,kind,score\n"a,b",STS,0.5\nplain,Retrieval,{1 / 3!r}\n'
    with open(tmp_path / "scores.csv", newline="") as f:
        assert [row[0] for row in csv.reader(f)] == ["task", "a,b", "plain"]
