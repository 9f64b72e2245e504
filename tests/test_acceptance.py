"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them as they complete)."""

import math
import random
import statistics
import time

import numpy as np

from ancestral.core import (
    AncestralStructure,
    Ancestry,
    AncStatement,
    Weight,
    count_ancestral_structures,
    dep,
    indep,
    transitive_close,
)
from ancestral.evaluation import (
    BenchConfig,
    format_reference_comparison,
    run_benchmark,
)
from ancestral.oracle import Identifiability, brute_force_min_loss, identifiability_oracle
from ancestral.rules import CiAssignment, JointAssignment, check_consistency, loss
from ancestral.scoring import confidence, score_all_pairs
from ancestral.simulate import random_linear_model, sample_data
from ancestral.solver import solve_min_loss
from ancestral.stats import (
    CiTestConfig,
    ci_inputs_from_data,
    fisher_z_pvalue,
    frequentist_weight,
    partial_correlation,
)

from helpers import dag_oracle_inputs, random_dag

W = Weight.finite


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")


def test_criterion_1_weight_reproduction():
    polarity, w = frequentist_weight(0.01, 0.05)
    ok = w == W(1609) and polarity.value == "dep"
    report("1 weight reproduction", ok, f"weight={w.millis}")
    assert ok


def test_criterion_2_structure_counting():
    t0 = time.perf_counter()
    c4 = count_ancestral_structures(4)
    c5 = count_ancestral_structures(5)
    c7 = count_ancestral_structures(7)
    elapsed = time.perf_counter() - t0
    ok = c4 == 219 and c5 == 4231 and 6.0e6 <= c7 <= 6.2e6 and elapsed < 300
    report(
        "2 structure counting",
        ok,
        f"counts=({c4}, {c5}, {c7}) in {elapsed:.1f}s",
    )
    assert ok


def _projected_truth(adj, n_obs):
    n_total = adj.shape[0]
    full = transitive_close(
        [(x, y) for x in range(n_total) for y in range(n_total) if adj[x, y]], n_total
    )
    rows = []
    for x in range(n_obs):
        mask = 1 << x
        for y in range(n_obs):
            if y != x and full.reach(x, y):
                mask |= 1 << y
        rows.append(mask)
    return AncestralStructure(n_obs, tuple(rows))


def test_criterion_3_rule_soundness_suite():
    t0 = time.perf_counter()
    failures = []
    for seed in range(100):
        rng = random.Random(seed)
        n_obs = 3 + seed % 4
        n_lat = seed % 3
        adj = random_dag(n_obs + n_lat, 0.35, rng)
        max_order = min(2, n_obs - 2)
        inputs = dag_oracle_inputs(adj, n_obs, max_order)
        truth = _projected_truth(adj, n_obs)
        ci = CiAssignment({w.statement.triple: w.statement.polarity for w in inputs})
        consistent = check_consistency(truth, ci)
        zero = loss(JointAssignment(truth, ci), inputs) == W(0)
        solved = solve_min_loss(inputs, n_obs, build_witness=False).min_loss == W(0)
        if not (consistent and zero and solved):
            failures.append(seed)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600
    report("3 rule soundness (100 DAGs)", ok, f"{elapsed:.1f}s failures={failures}")
    assert ok


def test_criterion_4_theorem1_soundness_suite():
    t0 = time.perf_counter()
    mismatches = []
    for seed in range(50):
        rng = random.Random(1000 + seed)
        n_lat = seed % 3
        adj = random_dag(4 + n_lat, 0.4, rng)
        inputs = dag_oracle_inputs(adj, 4, 1)
        for x in range(4):
            for y in range(4):
                if x == y:
                    continue
                feature = AncStatement(x, y, Ancestry.CAUSES)
                score = confidence(inputs, 4, feature)
                verdict = identifiability_oracle(inputs, 4, feature)
                agree = (
                    (verdict is Identifiability.TRUE and score == math.inf)
                    or (verdict is Identifiability.FALSE and score == -math.inf)
                    or (verdict is Identifiability.UNKNOWN and score == 0)
                )
                if not agree:
                    mismatches.append((seed, x, y, score, verdict))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 600
    report("4 scoring soundness (50 DAGs)", ok, f"{elapsed:.1f}s mismatches={mismatches[:3]}")
    assert ok


def test_criterion_5_solver_oracle_equivalence():
    rng = random.Random(20240)
    bad = []
    for trial in range(100):
        inputs = []
        for _ in range(rng.randint(1, 10)):
            x, y = rng.sample(range(4), 2)
            others = [v for v in range(4) if v not in (x, y)]
            cond = rng.sample(others, rng.randint(0, 1))
            w = W(rng.randint(0, 9999))
            inputs.append(
                indep(x, y, cond, w) if rng.random() < 0.5 else dep(x, y, cond, w)
            )
        fast = solve_min_loss(inputs, 4)
        slow = brute_force_min_loss(inputs, 4)
        same_min = fast.min_loss == slow.min_loss
        recompute = (
            fast.min_loss.is_hard
            or (
                loss(fast.witness, inputs) == fast.min_loss
                and loss(slow.witness, inputs) == slow.min_loss
            )
        )
        if not (same_min and recompute):
            bad.append(trial)
    ok = not bad
    report("5 solver oracle equivalence (100 instances)", ok, f"failures={bad}")
    assert ok


def test_criterion_6_score_antisymmetry():
    t0 = time.perf_counter()
    bad = []
    for m in range(25):
        scm = random_linear_model(5, 1, 0.3, seed=[60, m, 0])
        data = sample_data(scm, 500, seed=[60, m, 1])
        inputs = ci_inputs_from_data(data, CiTestConfig(alpha=0.05, max_order=1))
        for x in range(5):
            for y in range(5):
                if x == y:
                    continue
                plus = confidence(inputs, 5, AncStatement(x, y, Ancestry.CAUSES))
                minus = confidence(inputs, 5, AncStatement(x, y, Ancestry.NOT_CAUSES))
                if plus != -minus:
                    bad.append((m, x, y, plus, minus))
    elapsed = time.perf_counter() - t0
    ok = not bad
    report("6 score antisymmetry (25 instances)", ok, f"{elapsed:.1f}s failures={bad[:3]}")
    assert ok


def _high_confidence_error_rate(predictions, truth):
    magnitudes = [abs(p.score) for p in predictions]
    threshold = float(np.percentile(magnitudes, 75))
    selected = [p for p in predictions if abs(p.score) > threshold]
    if not selected:
        return 0.0
    wrong = 0
    for p in selected:
        claims_ancestral = p.score > 0
        if claims_ancestral != truth.reach(p.cause, p.effect):
            wrong += 1
    return wrong / len(selected)


def test_criterion_7_consistency_trend():
    t0 = time.perf_counter()
    improving = 0
    rates_by_model = []
    for m in range(20):
        scm = random_linear_model(5, 1, 0.3, seed=[70, m])
        truth = None
        rates = []
        for n_samples in (500, 5000, 50000):
            data = sample_data(scm, n_samples, seed=[70, m, n_samples])
            inputs = ci_inputs_from_data(data, CiTestConfig(alpha=0.05, max_order=1))
            preds = score_all_pairs(inputs, 5, share_bounds=True)
            if truth is None:
                from ancestral.simulate import true_ancestral_structure

                truth = true_ancestral_structure(scm)
            rates.append(_high_confidence_error_rate(preds, truth))
        rates_by_model.append(rates)
        if rates[0] >= rates[1] >= rates[2]:
            improving += 1
    elapsed = time.perf_counter() - t0
    ok = improving >= 14 and elapsed < 1800
    report(
        "7 consistency trend (20 models)",
        ok,
        f"{elapsed:.1f}s non-increasing for {improving}/20",
    )
    assert ok


def test_criterion_8_performance_envelope():
    config = BenchConfig(n_obs=7, models=20, samples=500, max_order=1, seed=0)
    report_obj = run_benchmark(config)
    times = [r.time_seconds for r in report_obj.records]
    med = statistics.median(times)
    table = format_reference_comparison(report_obj)
    ok = (
        med <= 60.0
        and all(r.status == "ok" for r in report_obj.records)
        and "1.03" in table
    )
    report(
        "8 performance envelope (n=7, c=1)",
        ok,
        f"median={med:.1f}s mean={report_obj.mean_time:.1f}s",
    )
    print(table)
    assert ok


def test_criterion_9_statistical_front_end():
    import scipy.stats

    rng = random.Random(90)
    worst = 0.0
    for _ in range(100):
        r = rng.uniform(-0.95, 0.95)
        n_samples = rng.randint(10, 5000)
        order = rng.randint(0, 4)
        stat = math.sqrt(n_samples - order - 3) * math.atanh(r)
        want = 2.0 * scipy.stats.norm.sf(abs(stat))
        got = fisher_z_pvalue(r, n_samples, order)
        if want > 0:
            worst = max(worst, abs(got - want) / want)
    fisher_ok = worst < 1e-9

    gen = np.random.default_rng(91)
    agree = True
    for _ in range(40):
        vals = gen.normal(size=(300, 5))
        vals[:, 1] += 0.5 * vals[:, 0]
        vals[:, 3] += 0.4 * vals[:, 1]
        from ancestral.stats import Dataset

        d = Dataset(tuple(f"X{i}" for i in range(5)), vals)
        x, y = gen.choice(5, size=2, replace=False)
        others = [v for v in range(5) if v not in (x, y)]
        cond = 0
        for v in gen.choice(others, size=int(gen.integers(0, 3)), replace=False):
            cond |= 1 << int(v)
        a = partial_correlation(d, int(x), int(y), cond)
        b = partial_correlation(d, int(x), int(y), cond, method="recursion")
        if abs(a - b) > 1e-10:
            agree = False
    ok = fisher_ok and agree
    report(
        "9 statistical front-end",
        ok,
        f"fisher rel err={worst:.2e}, paths agree={agree}",
    )
    assert ok
