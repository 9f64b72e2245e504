import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ancestral.core import AncestralStructure, transitive_close
from ancestral.evaluation import (
    BenchConfig,
    PrTask,
    format_reference_comparison,
    pooled_pr_curve,
    pr_curve,
    run_benchmark,
    write_bench_csv,
    write_pr_csv,
)
from ancestral.scoring import Prediction


def preds_for(scores: dict[tuple[int, int], float], n: int):
    return [
        Prediction(x, y, scores.get((x, y), 0))
        for x in range(n)
        for y in range(n)
        if x != y
    ]


def test_hand_computed_curve():
    # the four top-ranked predictions hit truths (T, F, T, F): precision
    # 1, 1/2, 2/3, 1/2 at recall 1/2, 1/2, 1, 1
    truth = transitive_close([(0, 1), (2, 1)], 3)
    preds = [
        Prediction(0, 1, 2),    # true
        Prediction(1, 0, 1),    # false
        Prediction(2, 1, -1),   # true
        Prediction(0, 2, -2),   # false
        Prediction(1, 2, -3),
        Prediction(2, 0, -4),
    ]
    points = pr_curve(preds, truth, PrTask.ANCESTRAL)
    assert [(p.threshold, p.precision, p.recall) for p in points[:4]] == [
        (2, 1.0, 0.5),
        (1, 0.5, 0.5),
        (-1, 2 / 3, 1.0),
        (-2, 0.5, 1.0),
    ]


def test_perfect_ranking_has_precision_one():
    truth = transitive_close([(0, 1)], 2)
    preds = [Prediction(0, 1, math.inf), Prediction(1, 0, -math.inf)]
    points = pr_curve(preds, truth, PrTask.ANCESTRAL)
    assert points[0].precision == 1.0 and points[0].recall == 1.0
    non = pr_curve(preds, truth, PrTask.NONANCESTRAL)
    assert non[0].precision == 1.0 and non[0].recall == 1.0


def test_all_zero_scores_collapse_to_base_rate():
    truth = transitive_close([(0, 1)], 3)
    points = pr_curve(preds_for({}, 3), truth, PrTask.ANCESTRAL)
    assert len(points) == 1
    assert points[0].precision == pytest.approx(1 / 6)
    assert points[0].recall == 1.0


def test_coverage_mismatch_rejected():
    truth = transitive_close([], 3)
    with pytest.raises(ValueError):
        pr_curve(preds_for({}, 3)[:-1], truth)
    bad = preds_for({}, 3)
    bad[0] = Prediction(0, 1, 0)
    bad[1] = Prediction(0, 1, 0)
    with pytest.raises(ValueError):
        pr_curve(bad, truth)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_recall_nondecreasing_and_permutation_invariant(data):
    n = 4
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    edges = [
        (x, y) for x in range(n) for y in range(x + 1, n) if rng.random() < 0.4
    ]
    try:
        truth = transitive_close(edges, n)
    except Exception:
        return
    scores = {
        (x, y): rng.randint(-5, 5)
        for x in range(n)
        for y in range(n)
        if x != y
    }
    preds = preds_for(scores, n)
    points = pr_curve(preds, truth, PrTask.ANCESTRAL)
    recalls = [p.recall for p in points]
    assert recalls == sorted(recalls)

    perm = list(range(n))
    rng.shuffle(perm)
    p_truth = AncestralStructure(
        n,
        tuple(
            sum(
                (1 << perm[y])
                for y in range(n)
                if truth.reach(x, y)
            )
            for x in (perm.index(i) for i in range(n))
        ),
    )
    # permute predictions consistently
    p_preds = [
        Prediction(perm[p.cause], perm[p.effect], p.score) for p in preds
    ]
    p_points = pr_curve(p_preds, p_truth, PrTask.ANCESTRAL)
    assert [(q.threshold, q.precision, q.recall) for q in p_points] == [
        (q.threshold, q.precision, q.recall) for q in points
    ]


def test_benchmark_smoke_and_determinism(tmp_path):
    cfg = BenchConfig(n_obs=4, models=2, samples=150, max_order=1, seed=3)
    a = run_benchmark(cfg)
    b = run_benchmark(cfg)
    assert len(a.records) == 2
    assert all(r.status == "ok" for r in a.records)
    assert [r.predictions for r in a.records] == [r.predictions for r in b.records]
    assert [r.truth for r in a.records] == [r.truth for r in b.records]
    write_bench_csv(a, tmp_path / "bench.csv")
    rows = (tmp_path / "bench.csv").read_text().splitlines()
    assert rows[0] == "model_id,n,c,time_seconds,status,nodes"
    assert len(rows) == 3
    assert [int(row.split(",")[5]) for row in rows[1:]] == [r.nodes for r in a.records]
    points = pooled_pr_curve(a.ok_results(), PrTask.ANCESTRAL)
    write_pr_csv(points, tmp_path / "pr.csv")
    assert (tmp_path / "pr.csv").read_text().startswith("threshold,precision,recall")
    table = format_reference_comparison(a)
    assert "measured_mean_s" in table
    assert "measured_median_s" in table


def test_benchmark_node_counts_repeat_exactly():
    """Two runs of one seed record the same search nodes per model, and
    every model searches. A model that times out is recorded with the
    nodes searched before its deadline, none when the deadline has passed
    before the first query."""
    cfg = BenchConfig(n_obs=5, models=3, samples=300, max_order=1, seed=2)
    a, b = run_benchmark(cfg), run_benchmark(cfg)
    nodes = [r.nodes for r in a.records]
    assert nodes == [r.nodes for r in b.records]
    assert all(count > 0 for count in nodes)
    timed = run_benchmark(dataclasses.replace(cfg, time_limit=1e-9))
    assert [(r.status, r.nodes) for r in timed.records] == [("timeout", 0)] * 3


def test_oracle_benchmark_infinite_scores_are_correct():
    cfg = BenchConfig(n_obs=4, models=3, seed=11, use_oracle=True, max_order=1)
    report = run_benchmark(cfg)
    for record in report.records:
        assert record.status == "ok"
        for p in record.predictions:
            if p.score == math.inf:
                assert record.truth.reach(p.cause, p.effect)
            elif p.score == -math.inf:
                assert not record.truth.reach(p.cause, p.effect)
