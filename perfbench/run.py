"""Benchmark runner for the ancestral package.

    python3 perfbench/run.py --workload score-n6c1 --seed 1 --seconds 20 --trace 0

runs one workload in this process, with no threads and BLAS pinned to one
thread, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

    python3 perfbench/run.py --write-answers [--workload NAME]

recomputes answers.json, the exact answers every run is compared with.
README.md describes the workloads, the metrics and the checks.
"""

import os
import sys
import time

IMPORT_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import ancestral  # noqa: E402
from ancestral.solver import solve_min_loss  # noqa: E402

from checks import CHECKS, digest, mismatches, self_test  # noqa: E402
from speed import PROBE_REF_S, Speed  # noqa: E402
from workloads import WORKLOADS, witness_answer  # noqa: E402

IMPORT_S = time.perf_counter() - IMPORT_START

ANSWERS = HERE / "answers.json"
OUT = HERE / "out"
SETUP_REPEATS = 3

LAYER_SPANS = (
    "stats.ci_tests",
    "stats.intervention_tests",
    "factfile.write",
    "factfile.parse",
    "cli.test",
    "cli.solve",
    "rules.ground",
    "scoring.compile",
    "solver.min_loss",
    "solver.min_loss_witness",
    "scoring.score_all_pairs",
)
COUNTS = (
    "stats.statements",
    "rules.facts",
    "rules.derivations",
    "rules.clauses",
    "scoring.infinite_scores",
)


class NullTracer:
    def span(self, name):
        return nullcontext()


class Tracer:
    """Spans (name, start, end, parent, instance) kept in memory; ``instance``
    tags every span opened until it is changed. Times come from ``clock``."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.instance = None
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, 0.0, 0.0, parent, self.instance]
        self.spans.append(record)
        self._open.append(index)
        record[1] = self.clock()
        try:
            yield
        finally:
            record[2] = self.clock()
            self._open.pop()

    def durations(self, instance) -> dict:
        out = {}
        for name, start, end, _, inst in self.spans:
            if inst == instance:
                out[name] = out.get(name, 0.0) + end - start
        return out

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "instance")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_answers(name: str) -> dict:
    if not ANSWERS.exists():
        return {}
    return json.loads(ANSWERS.read_text(encoding="utf-8")).get(name, {})


def rounds(pool, rng, seconds):
    """Yields shuffled whole rounds of the pool while the next round, taking
    as long as the last one, would end within ``seconds``; at least one."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        order = list(pool)
        rng.shuffle(order)
        yield order
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


class Verdict:
    """Counts attempted and failed operations and collects check problems.
    An operation fails when it raises or its answer differs from
    answers.json; the independent checks cover the answers that did not."""

    def __init__(self, workload, stored: dict):
        self.workload = workload
        self.stored = stored
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._checked = {}

    def fail(self, inst, reason: str) -> None:
        self.failed += 1
        log(f"instance {inst.id} failed: {reason}")

    def compare(self, inst, answers) -> bool:
        stored = self.stored.get(str(inst.id))
        if stored is None:
            self.fail(inst, "no stored answer")
            return False
        for answer in answers:
            wrong = mismatches(answer, stored)
            if wrong:
                self.fail(inst, "answer differs from answers.json in " + ", ".join(wrong))
                return False
        key = (inst.id, json.dumps(digest(answers[0]), sort_keys=True))
        if key not in self._checked:
            self._checked[key] = (inst, answers[0], stored)
            for problem in CHECKS[self.workload.name](inst, answers[0], stored):
                self.problems.append(f"instance {inst.id}: {problem}")
        return True

    def finish(self) -> bool:
        cases = sorted(self._checked.values(), key=lambda c: c[0].id)
        self.problems += self_test(self.workload.name, cases)
        for problem in self.problems:
            log(problem)
        return not self.problems


def untraced(workload, pool, rng, seconds, verdict, clock):
    op_times, done = [], []
    for order in rounds(pool, rng, seconds):
        for inst in order:
            verdict.attempted += 1
            t0 = clock()
            try:
                result = workload.run(inst, NullTracer())
            except Exception:
                op_times.append(clock() - t0)
                verdict.fail(inst, traceback.format_exc())
                continue
            op_times.append(clock() - t0)
            done.append(op_times[-1])
            verdict.compare(inst, [workload.answer(inst, result)])
    if not done:
        raise SystemExit("no operation completed")
    return {
        "instance_s": (statistics.median(done), "s"),
        "instances_per_min": (60.0 * len(done) / sum(op_times), "1/min"),
    }


def traced(workload, pool, rng, seconds, verdict, tracer):
    """Each instance runs untraced and traced, in alternating order, then
    the traced layer calls; the traced operation sits under an ``op`` span
    and the layer calls under a ``layers`` span."""
    plain, spanned, per_layer = [], [], []
    attempt = 0
    for order in rounds(pool, rng, seconds):
        for k, inst in enumerate(order):
            verdict.attempted += 1
            attempt += 1
            tracer.instance = f"{inst.id}.{attempt}"
            try:
                answers = []
                for with_spans in ((True, False) if k % 2 else (False, True)):
                    t0 = tracer.clock()
                    if with_spans:
                        with tracer.span("op"):
                            result = workload.run(inst, tracer)
                    else:
                        result = workload.run(inst, NullTracer())
                    (spanned if with_spans else plain).append(tracer.clock() - t0)
                    answers.append(workload.answer(inst, result))
                with tracer.span("layers"):
                    counts, extra = workload.layers(tracer, inst, answers[-1])
            except Exception:
                verdict.fail(inst, traceback.format_exc())
                continue
            if verdict.compare(inst, answers + extra):
                per_layer.append((tracer.durations(tracer.instance), counts))
    if not per_layer:
        raise SystemExit("no operation completed")

    def median_of(value):
        return statistics.median(value(d, c) for d, c in per_layer)

    def self_time(outer, inner):
        return lambda d, c: d[outer] - d[inner] if outer in d else 0.0

    metrics = {f"{name}_s": (median_of(lambda d, c: d.get(name, 0.0)), "s") for name in LAYER_SPANS}
    metrics["solver.base_self_s"] = (median_of(self_time("solver.min_loss", "scoring.compile")), "s")
    metrics["solver.witness_self_s"] = (
        median_of(self_time("solver.min_loss_witness", "solver.min_loss")), "s"
    )
    metrics["scoring.forced_self_s"] = (
        median_of(self_time("scoring.score_all_pairs", "solver.min_loss")), "s"
    )
    for name in COUNTS:
        metrics[name] = (statistics.fmean(c.get(name, 0) for _, c in per_layer), "count")
    metrics["trace.overhead_pct"] = (100.0 * (sum(spanned) / sum(plain) - 1.0), "%")
    return metrics


def run(args) -> None:
    workload = WORKLOADS[args.workload]
    work = OUT / workload.name
    work.mkdir(parents=True, exist_ok=True)
    speed = Speed()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = speed.clock()
        pool = workload.setup(work)
        setup_times.append(speed.clock() - t0)
    setup_s = IMPORT_S * speed.factor + statistics.median(setup_times)

    verdict = Verdict(workload, load_answers(workload.name))
    rng = random.Random(args.seed)
    if args.trace:
        tracer = Tracer(speed.clock)
        metrics = traced(workload, pool, rng, args.seconds, verdict, tracer)
        tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")
    else:
        metrics = untraced(workload, pool, rng, args.seconds, verdict, speed.clock)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    speed.close()
    log(f"{len(speed.samples)} speed samples, median factor to reference seconds "
        f"{PROBE_REF_S / statistics.median(speed.samples):.3f}")
    correct = verdict.finish()
    result = {
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    line = json.dumps(result)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)


def write_answers(names) -> None:
    """Runs every instance of the named workloads once, checks the answers
    and writes them to answers.json."""
    everything = json.loads(ANSWERS.read_text(encoding="utf-8")) if ANSWERS.exists() else {}
    for name in names:
        workload = WORKLOADS[name]
        work = OUT / name
        work.mkdir(parents=True, exist_ok=True)
        entries, cases, problems = {}, [], []
        for inst in workload.setup(work):
            answer = workload.answer(inst, workload.run(inst, NullTracer()))
            entry = digest(answer)
            if name == "score-n6c1":  # its check reads an optimal witness
                result = solve_min_loss(answer.inputs, inst.n)
                entry.update(digest(witness_answer(answer.inputs, result)))
            problems += [f"instance {inst.id}: {p}" for p in CHECKS[name](inst, answer, entry)]
            entries[str(inst.id)] = entry
            cases.append((inst, answer, entry))
            log(f"{name} instance {inst.id}: {entry}")
        problems += self_test(name, cases)
        if problems:
            raise SystemExit(f"{name}: answers not written:\n" + "\n".join(problems))
        changed = [k for k, v in entries.items() if everything.get(name, {}).get(k) != v]
        log(f"{name}: {len(changed)} of {len(entries)} answers changed {changed}")
        everything[name] = entries
    ANSWERS.write_text(json.dumps(everything, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> None:
    if not Path(ancestral.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ancestral was imported from {ancestral.__file__}, not from {SRC}")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-answers", action="store_true")
    args = parser.parse_args()
    if args.write_answers:
        write_answers([args.workload] if args.workload else list(WORKLOADS))
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        run(args)


if __name__ == "__main__":
    main()
