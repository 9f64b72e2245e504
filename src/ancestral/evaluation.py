"""Precision-recall evaluation of ranked ancestral predictions and a
timing benchmark harness over synthetic models.

The ancestral task ranks predictions by score descending (positives are
true reach pairs); the nonancestral task ranks by negated score
(positives are true non-reach pairs). One point is emitted per distinct
threshold, walking thresholds downward. Precision at zero predicted
positives is 1 by convention, as is recall when there are no positives.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, Union

from ancestral.core import AncestralStructure
from ancestral.scoring import PairScorer, Prediction, format_score
from ancestral.simulate import (
    oracle_inputs,
    random_linear_model,
    sample_data,
    true_ancestral_structure,
)
from ancestral.solver import SolveOptions, SolveTimeoutError
from ancestral.stats import CiTestConfig, ci_inputs_from_data

# Published mean per-model times (seconds) for the original clingo-based
# solver on a 2.80GHz core, keyed by (n, max_order); used for the
# side-by-side table in benchmark reports.
REFERENCE_SOLVE_SECONDS = {
    (6, 1): 0.21,
    (6, 4): 1.66,
    (7, 1): 1.03,
    (8, 1): 9.74,
    (9, 1): 146.66,
}


class PrTask(Enum):
    ANCESTRAL = "ancestral"
    NONANCESTRAL = "nonancestral"


@dataclass(frozen=True)
class PrPoint:
    threshold: Union[int, float]
    precision: float
    recall: float


def _curve(items: Sequence[tuple[Union[int, float], bool]]) -> list[PrPoint]:
    """Items are (ranking key, is_positive); one point per distinct key,
    keys descending, predicted positive means key >= threshold."""
    ordered = sorted(items, key=lambda kv: kv[0], reverse=True)
    total_pos = sum(1 for _, pos in items if pos)
    points: list[PrPoint] = []
    tp = seen = 0
    i = 0
    while i < len(ordered):
        threshold = ordered[i][0]
        while i < len(ordered) and ordered[i][0] == threshold:
            seen += 1
            if ordered[i][1]:
                tp += 1
            i += 1
        precision = tp / seen if seen else 1.0
        recall = tp / total_pos if total_pos else 1.0
        points.append(PrPoint(threshold, precision, recall))
    return points


def pr_curve(
    predictions: Sequence[Prediction],
    truth: AncestralStructure,
    task: PrTask = PrTask.ANCESTRAL,
) -> list[PrPoint]:
    """Precision-recall points for one model's predictions against its
    true structure. Predictions must cover every ordered pair exactly
    once."""
    n = truth.n
    expected = {(x, y) for x in range(n) for y in range(n) if x != y}
    got = [(p.cause, p.effect) for p in predictions]
    if len(got) != len(expected) or set(got) != expected:
        raise ValueError("predictions must cover each ordered pair exactly once")
    return pooled_pr_curve([(predictions, truth)], task)


def pooled_pr_curve(
    results: Iterable[tuple[Sequence[Prediction], AncestralStructure]],
    task: PrTask = PrTask.ANCESTRAL,
) -> list[PrPoint]:
    """One curve over the predictions of many models pooled together."""
    items = []
    for predictions, truth in results:
        for p in predictions:
            reached = truth.reach(p.cause, p.effect)
            if task is PrTask.ANCESTRAL:
                items.append((p.score, reached))
            else:
                items.append((-p.score, not reached))
    return _curve(items)


@dataclass(frozen=True)
class BenchConfig:
    n_obs: int
    models: int
    samples: int = 500
    n_latent: int = 1
    edge_prob: float = 0.3
    max_order: int = 1
    alpha: float = 0.05
    seed: int = 0
    use_oracle: bool = False
    time_limit: Optional[float] = None

    def __post_init__(self) -> None:
        if self.models < 1 or self.n_obs < 2 or self.samples < 1:
            raise ValueError("models, n_obs and samples must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.max_order < 0:
            raise ValueError("max_order must be nonnegative")
        if self.use_oracle and self.max_order > self.n_obs - 2:
            raise ValueError("max_order may not exceed n_obs - 2")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time_limit must be positive")


@dataclass(frozen=True)
class ModelRecord:
    model_id: int
    n_obs: int
    max_order: int
    time_seconds: float
    status: str                    # "ok" or "timeout"
    nodes: int                     # search nodes of the model's engine, up to a timeout
    predictions: tuple
    truth: AncestralStructure


@dataclass(frozen=True)
class BenchmarkReport:
    config: BenchConfig
    records: tuple[ModelRecord, ...]

    def _done_times(self) -> list[float]:
        return [r.time_seconds for r in self.records if r.status == "ok"]

    @property
    def mean_time(self) -> float:
        done = self._done_times()
        return sum(done) / len(done) if done else float("nan")

    @property
    def median_time(self) -> float:
        done = self._done_times()
        return statistics.median(done) if done else float("nan")

    def ok_results(self) -> list[tuple[tuple, AncestralStructure]]:
        return [(r.predictions, r.truth) for r in self.records if r.status == "ok"]


def run_benchmark(config: BenchConfig) -> BenchmarkReport:
    """Simulate, test and score ``config.models`` random models.

    The recorded wall time covers statement construction, solving and
    scoring only (simulation and I/O excluded). The solver's grounding
    depends only on n and the set of tested triples, which the models of
    one (n, max_order) share, and it is built once per process: the first
    model timed pays for it and the later ones do not. Solver timeouts are
    recorded per model and never abort the batch. Each record counts the
    search nodes of the model's :class:`PairScorer` engine, those before a
    timeout included. Deterministic per seed apart from the times
    themselves.
    """
    options = SolveOptions(time_limit=config.time_limit)
    records = []
    for m in range(config.models):
        scm = random_linear_model(
            config.n_obs,
            config.n_latent,
            config.edge_prob,
            seed=[config.seed, m, 0],
        )
        truth = true_ancestral_structure(scm)
        data = None
        if not config.use_oracle:
            data = sample_data(scm, config.samples, seed=[config.seed, m, 1])
        t0 = time.perf_counter()
        if config.use_oracle:
            inputs = oracle_inputs(scm, config.max_order)
        else:
            inputs = ci_inputs_from_data(
                data, CiTestConfig(alpha=config.alpha, max_order=config.max_order)
            )
        scorer = PairScorer(inputs, config.n_obs, options)
        try:
            predictions = tuple(scorer.all_pairs())
            status = "ok"
        except SolveTimeoutError:
            predictions = ()
            status = "timeout"
        elapsed = time.perf_counter() - t0
        records.append(
            ModelRecord(
                m,
                config.n_obs,
                config.max_order,
                elapsed,
                status,
                scorer.engine.nodes,
                predictions,
                truth,
            )
        )
    return BenchmarkReport(config, tuple(records))


def write_pr_csv(points: Sequence[PrPoint], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("threshold,precision,recall\n")
        for p in points:
            fh.write(f"{format_score(p.threshold)},{p.precision:.6f},{p.recall:.6f}\n")


def write_bench_csv(report: BenchmarkReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("model_id,n,c,time_seconds,status,nodes\n")
        for r in report.records:
            fh.write(
                f"{r.model_id},{r.n_obs},{r.max_order},{r.time_seconds:.6f},{r.status},{r.nodes}\n"
            )


def format_reference_comparison(report: BenchmarkReport) -> str:
    """Side-by-side table of the measured mean and median time per solved
    model against the published reference mean for the same
    (n, max_order) condition."""
    key = (report.config.n_obs, report.config.max_order)
    ref = REFERENCE_SOLVE_SECONDS.get(key)
    lines = [
        "condition   measured_mean_s   measured_median_s   reference_mean_s",
        "{:<11} {:<17.3f} {:<19.3f} {}".format(
            f"n={key[0]} c={key[1]}",
            report.mean_time,
            report.median_time,
            f"{ref:.2f}" if ref is not None else "n/a",
        ),
    ]
    return "\n".join(lines) + "\n"
