"""The benchmark's workloads.

Each workload holds a fixed pool of instances (one random model each). Its
``setup`` builds the pool from fixed model seeds, ``run`` is the timed
operation a user performs on one instance, ``answer`` turns the operation's
output into an :class:`Answer` outside the timed region, and ``layers``
makes the traced run's separate calls into each layer.

The pool is fixed so that every run does the same work and every answer can
be compared with ``answers.json``; the run seed only orders the pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from ancestral import cli
from ancestral.core import CiStatement
from ancestral.factfile import parse_fact_file, parse_fact_files, write_fact_file
from ancestral.rules import DEP, INDEP, ground
from ancestral.scoring import PairScorer, score_all_pairs
from ancestral.simulate import oracle_inputs, random_linear_model, sample_data
from ancestral.solver import SolveResult, solve_min_loss
from ancestral.stats import (
    CiTestConfig,
    Dataset,
    ancestral_inputs_from_intervention,
    ci_inputs_from_data,
    write_dataset,
)

MASTER_SEED = 0
LATENTS = 1
EDGE_PROB = 0.3
SAMPLES = 500
ALPHA = 0.05
SHIFT = 2.0  # mean shift of an intervention, in noise standard deviations


@dataclass
class Instance:
    id: int
    n: int
    scm: object
    work: Path
    data: Optional[Dataset] = None
    inputs: Optional[list] = None
    interventions: list = field(default_factory=list)  # (target, Dataset)

    def file(self, name: str) -> Path:
        return self.work / f"{self.id}-{name}"


@dataclass(frozen=True)
class Answer:
    """An instance's exact answer: the ranked scores and/or the minimum with
    its witness. ``ci`` has one letter per sorted input triple, ``i`` for
    independent and ``d`` for dependent."""

    inputs: tuple
    ranked: Optional[tuple] = None
    min_loss: Optional[int] = None
    rows: Optional[tuple] = None
    ci: Optional[str] = None


def model(n: int, m: int):
    return random_linear_model(n, LATENTS, EDGE_PROB, seed=[MASTER_SEED, m, 0])


def ci_triples(inputs) -> list:
    return sorted({i.statement.triple for i in inputs if isinstance(i.statement, CiStatement)})


def witness_answer(inputs, result: SolveResult) -> Answer:
    if result.witness is None:
        raise RuntimeError("no consistent joint assignment")
    truth = result.witness.ci.truth
    ci = "".join("i" if truth[t] is INDEP else "d" for t in ci_triples(inputs))
    return Answer(
        tuple(inputs), None, result.min_loss.millis, result.witness.structure.rows, ci
    )


def ranked_from_predictions(preds) -> tuple:
    return tuple((p.cause, p.effect, p.score) for p in preds)


def ranked_from_csv(path: Path, names) -> tuple:
    index = {name: i for i, name in enumerate(names)}
    rows = path.read_text(encoding="utf-8").splitlines()
    if rows[0] != "cause,effect,score_milli":
        raise RuntimeError(f"{path}: unexpected header {rows[0]!r}")
    ranked = []
    for line in rows[1:]:
        cause, effect, text = line.split(",")
        score = float(text) if text in ("inf", "-inf") else int(text)
        ranked.append((index[cause], index[effect], score))
    return tuple(ranked)


def sample_shifted(scm, target: int, n_samples: int, seed) -> Dataset:
    """Samples after a mean-shift intervention on ``target``: its structural
    equation gains ``SHIFT``, which propagates to its descendants. With no
    shift this draws exactly what ``simulate.sample_data`` draws."""
    rng = np.random.default_rng(seed)
    values = np.zeros((n_samples, scm.n_total))
    for node in scm.topo_order:
        parents = np.flatnonzero(scm.adj[:, node])
        noise = rng.normal(0.0, scm.noise_std[node], n_samples)
        values[:, node] = values[:, parents] @ scm.coefficients[parents, node] + noise
        if node == target:
            values[:, node] += SHIFT
    return Dataset(tuple(f"X{i}" for i in range(scm.n_obs)), values[:, : scm.n_obs])


def _common_layers(tr, inst: Instance, inputs, names) -> tuple[dict, int]:
    """Fact-file round trip, grounding of both polarities of every input
    triple, compile and the base solve. Returns the counts and the minimum."""
    n = inst.n
    facts = inst.file("roundtrip.facts")
    with tr.span("factfile.write"):
        write_fact_file(names, inputs, facts)
    with tr.span("factfile.parse"):
        _, parsed = parse_fact_files([facts])
    if parsed != list(inputs):
        raise RuntimeError("fact-file round trip changed the inputs")
    triples = ci_triples(inputs)
    seeds = [(t, INDEP) for t in triples] + [(t, DEP) for t in triples]
    with tr.span("rules.ground"):
        g = ground(seeds, n)
    with tr.span("scoring.compile"):
        PairScorer(inputs, n)
    with tr.span("solver.min_loss"):
        base = solve_min_loss(inputs, n, build_witness=False)
    counts = {
        "stats.statements": len(inputs),
        "rules.facts": len(g.facts),
        "rules.derivations": len(g.derivations),
        "rules.clauses": len(g.clauses),
    }
    return counts, base.min_loss.millis


def _infinite(ranked) -> int:
    return sum(1 for _, _, s in ranked if s in (float("inf"), float("-inf")))


class ScoreN6C1:
    """The user's pipeline at the paper's (6, 1) condition: ``ancestral
    test`` then ``ancestral solve``, from a CSV to the ranked scores CSV."""

    name = "score-n6c1"
    n = 6
    pool = 6

    def setup(self, work: Path) -> list:
        out = []
        for m in range(self.pool):
            scm = model(self.n, m)
            data = sample_data(scm, SAMPLES, seed=[MASTER_SEED, m, 1])
            inst = Instance(m, self.n, scm, work, data=data)
            write_dataset(data, inst.file("data.csv"))
            out.append(inst)
        return out

    def run(self, inst: Instance, tr):
        facts = str(inst.file("ci.facts"))
        with tr.span("cli.test"):
            rc = cli.main(
                ["test", "--data", str(inst.file("data.csv")),
                 "--max-order", "1", "--alpha", str(ALPHA), "--out", facts]
            )
        if rc != 0:
            raise RuntimeError(f"ancestral test exited {rc}")
        with tr.span("cli.solve"):
            rc = cli.main(
                ["solve", "--facts", facts, "--out", str(inst.file("scores.csv"))]
            )
        if rc != 0:
            raise RuntimeError(f"ancestral solve exited {rc}")

    def answer(self, inst: Instance, _result) -> Answer:
        names, inputs = parse_fact_file(inst.file("ci.facts"))
        ranked = ranked_from_csv(inst.file("scores.csv"), names)
        return Answer(tuple(inputs), ranked)

    def layers(self, tr, inst: Instance, answer: Answer) -> tuple[dict, list]:
        with tr.span("stats.ci_tests"):
            ci_inputs_from_data(inst.data, CiTestConfig(alpha=ALPHA, max_order=1))
        counts, base = _common_layers(tr, inst, answer.inputs, inst.data.names)
        with tr.span("scoring.score_all_pairs"):
            preds = score_all_pairs(answer.inputs, self.n, share_bounds=True)
        with tr.span("solver.min_loss_witness"):
            result = solve_min_loss(answer.inputs, self.n)
        counts["scoring.infinite_scores"] = _infinite(answer.ranked)
        return counts, [
            Answer(answer.inputs, ranked_from_predictions(preds), base),
            witness_answer(answer.inputs, result),
        ]


class OracleN7C2:
    """Hard d-separation statements up to order 2 at n = 7, scored with
    ``score_all_pairs`` sharing the base solve as the CLI does."""

    name = "oracle-n7c2"
    n = 7
    pool = 8

    def setup(self, work: Path) -> list:
        out = []
        for m in range(self.pool):
            scm = model(self.n, m)
            out.append(Instance(m, self.n, scm, work, inputs=oracle_inputs(scm, 2)))
        return out

    def run(self, inst: Instance, tr):
        with tr.span("scoring.score_all_pairs"):
            return score_all_pairs(inst.inputs, self.n, share_bounds=True)

    def answer(self, inst: Instance, result) -> Answer:
        return Answer(tuple(inst.inputs), ranked_from_predictions(result))

    def layers(self, tr, inst: Instance, answer: Answer) -> tuple[dict, list]:
        names = tuple(f"X{i}" for i in range(self.n))
        counts, _ = _common_layers(tr, inst, answer.inputs, names)
        facts = inst.file("roundtrip.facts")
        scores = inst.file("scores.csv")
        with tr.span("cli.solve"):
            rc = cli.main(["solve", "--facts", str(facts), "--out", str(scores)])
        if rc != 0:
            raise RuntimeError(f"ancestral solve exited {rc}")
        counts["scoring.infinite_scores"] = _infinite(answer.ranked)
        return counts, [Answer(answer.inputs, ranked_from_csv(scores, names))]


class WitnessN7C1Int:
    """Order-1 CI statements at n = 7 plus weighted ancestral statements from
    two mean-shift interventions, solved for the minimum and its lex-smallest
    witness."""

    name = "witness-n7c1-int"
    n = 7
    pool = 8

    def setup(self, work: Path) -> list:
        out = []
        for m in range(self.pool):
            scm = model(self.n, m)
            data = sample_data(scm, SAMPLES, seed=[MASTER_SEED, m, 1])
            targets = np.random.default_rng([MASTER_SEED, m, 2]).choice(self.n, 2, replace=False)
            inst = Instance(m, self.n, scm, work, data=data)
            for k, target in enumerate(targets):
                shifted = sample_shifted(scm, int(target), SAMPLES, [MASTER_SEED, m, 3 + k])
                inst.interventions.append((int(target), shifted))
            write_dataset(data, inst.file("data.csv"))
            out.append(inst)
        return out

    def run(self, inst: Instance, tr):
        config = CiTestConfig(alpha=ALPHA, max_order=1)
        with tr.span("stats.ci_tests"):
            inputs = ci_inputs_from_data(inst.data, config)
        with tr.span("stats.intervention_tests"):
            for target, shifted in inst.interventions:
                inputs += ancestral_inputs_from_intervention(inst.data, shifted, target, config)
        with tr.span("solver.min_loss_witness"):
            return inputs, solve_min_loss(inputs, self.n)

    def answer(self, inst: Instance, result) -> Answer:
        inputs, solved = result
        return witness_answer(inputs, solved)

    def layers(self, tr, inst: Instance, answer: Answer) -> tuple[dict, list]:
        counts, base = _common_layers(tr, inst, answer.inputs, inst.data.names)
        facts = inst.file("ci.facts")
        with tr.span("cli.test"):
            rc = cli.main(
                ["test", "--data", str(inst.file("data.csv")),
                 "--max-order", "1", "--alpha", str(ALPHA), "--out", str(facts)]
            )
        if rc != 0:
            raise RuntimeError(f"ancestral test exited {rc}")
        ci_only = [i for i in answer.inputs if isinstance(i.statement, CiStatement)]
        if parse_fact_file(facts)[1] != ci_only:
            raise RuntimeError("ancestral test wrote other statements than the library call")
        return counts, [Answer(answer.inputs, min_loss=base)]


WORKLOADS = {w.name: w for w in (ScoreN6C1(), OracleN7C2(), WitnessN7C1Int())}
