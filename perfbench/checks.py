"""Independent checks of the workloads' answers, the self-test that feeds
them corrupted answers, and the exact-answer digest kept in answers.json.

The checks use ``rules.loss``, ``rules.check_consistency`` and the
simulator's d-separation truth. None of them runs the search.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace

from ancestral.core import AncestralStructure
from ancestral.rules import DEP, INDEP, CiAssignment, JointAssignment, check_consistency, loss
from ancestral.simulate import d_separated, true_ancestral_structure

from workloads import Answer, Instance, ci_triples

INF = math.inf


def digest(answer: Answer) -> dict:
    """The parts of an answer compared with answers.json."""
    out = {}
    if answer.ranked is not None:
        text = "\n".join(f"{x},{y},{s}" for x, y, s in answer.ranked)
        out["scores_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    if answer.min_loss is not None:
        out["min_loss"] = answer.min_loss
    if answer.rows is not None:
        out["reach_rows"] = list(answer.rows)
        out["ci"] = answer.ci
    return out


def mismatches(answer: Answer, stored: dict) -> list[str]:
    return [k for k, v in digest(answer).items() if stored.get(k) != v]


def _joint(n: int, inputs, rows, ci: str) -> JointAssignment:
    triples = ci_triples(inputs)
    if len(ci) != len(triples):
        raise ValueError("witness does not cover every input triple")
    truth = {t: INDEP if c == "i" else DEP for t, c in zip(triples, ci)}
    return JointAssignment(AncestralStructure(n, tuple(rows)), CiAssignment(truth))


def _true_joint(inst: Instance, inputs) -> JointAssignment:
    truth = {
        t: INDEP if d_separated(inst.scm.adj, t[0], t[1], t[2]) else DEP
        for t in ci_triples(inputs)
    }
    return JointAssignment(true_ancestral_structure(inst.scm), CiAssignment(truth))


def _check_ranked(ranked, n: int) -> list[str]:
    problems = []
    pairs = sorted((x, y) for x, y, _ in ranked)
    if pairs != [(x, y) for x in range(n) for y in range(n) if x != y]:
        problems.append("the ordered pairs do not each appear exactly once")
    keys = [(-s, x, y) for x, y, s in ranked]
    if keys != sorted(keys):
        problems.append("the scores are not sorted")
    return problems


def _check_witness(inst: Instance, inputs, min_loss: int, rows, ci: str) -> list[str]:
    """The witness is a consistent joint assignment whose loss is the
    minimum, and the minimum is at most the loss of the true assignment."""
    try:
        joint = _joint(inst.n, inputs, rows, ci)
    except ValueError as exc:
        return [f"the witness is not a joint assignment: {exc}"]
    problems = []
    if not check_consistency(joint.structure, joint.ci):
        problems.append("the witness violates the rules")
    got = loss(joint, inputs)
    if got.is_hard or got.millis != min_loss:
        problems.append(f"the witness loss {got} differs from the minimum {min_loss}")
    true = loss(_true_joint(inst, inputs), inputs)
    if not true.is_hard and min_loss > true.millis:
        problems.append(f"the minimum {min_loss} exceeds the true assignment's loss {true}")
    return problems


def check_scores(inst: Instance, answer: Answer, stored: dict) -> list[str]:
    """Finite data-driven scores, read against the stored optimal witness."""
    ranked = answer.ranked
    problems = _check_ranked(ranked, inst.n)
    if not all(math.isfinite(s) for _, _, s in ranked):
        problems.append("a score is infinite")
    rows, min_loss = stored["reach_rows"], stored["min_loss"]
    witness = _check_witness(inst, answer.inputs, min_loss, rows, stored["ci"])
    if witness:
        return problems + witness
    structure = AncestralStructure(inst.n, tuple(rows))
    score = {(x, y): s for x, y, s in ranked}
    for (x, y), s in score.items():
        reached = structure.reach(x, y)
        if (reached and s < 0) or (not reached and s > 0):
            problems.append(f"score {s} of ({x}, {y}) disagrees with the optimal witness")
        if s > 0 and score.get((y, x), 0) > 0:
            problems.append(f"({x}, {y}) and its reverse both score above 0")
    return problems


def check_oracle(inst: Instance, answer: Answer, stored: dict) -> list[str]:
    """Hard oracle inputs: every score is +inf, 0 or -inf and every infinite
    score agrees with the true ancestral structure."""
    problems = _check_ranked(answer.ranked, inst.n)
    truth = true_ancestral_structure(inst.scm)
    for x, y, s in answer.ranked:
        if s not in (INF, 0, -INF):
            problems.append(f"score {s} of ({x}, {y}) is not +inf, 0 or -inf")
        elif s == INF and not truth.reach(x, y):
            problems.append(f"+inf on ({x}, {y}), which is not ancestral")
        elif s == -INF and truth.reach(x, y):
            problems.append(f"-inf on ({x}, {y}), which is ancestral")
    return problems


def check_min_witness(inst: Instance, answer: Answer, stored: dict) -> list[str]:
    return _check_witness(inst, answer.inputs, answer.min_loss, answer.rows, answer.ci)


CHECKS = {
    "score-n6c1": check_scores,
    "oracle-n7c2": check_oracle,
    "witness-n7c1-int": check_min_witness,
}


def _resorted(answer: Answer, ranked) -> Answer:
    return replace(answer, ranked=tuple(sorted(ranked, key=lambda r: (-r[2], r[0], r[1]))))


def flip_sign(inst: Instance, answer: Answer):
    ranked = list(answer.ranked)
    for i, (x, y, s) in enumerate(ranked):
        if s != 0:
            ranked[i] = (x, y, -s)
            return _resorted(answer, ranked)
    return None


def false_inf(inst: Instance, answer: Answer):
    truth = true_ancestral_structure(inst.scm)
    ranked = list(answer.ranked)
    for i, (x, y, s) in enumerate(ranked):
        if not truth.reach(x, y):
            ranked[i] = (x, y, INF)
            return _resorted(answer, ranked)
    return None


def toggle_reach(inst: Instance, answer: Answer):
    """Clears the first reach bit of the witness. The result is smaller in
    the witness order, so it must not pass as an optimum."""
    rows = list(answer.rows)
    for x in range(inst.n):
        others = rows[x] & ~(1 << x)
        if others:
            rows[x] ^= others & -others
            return replace(answer, rows=tuple(rows))
    return None


CORRUPTIONS = {
    "score-n6c1": [("flipped score sign", flip_sign)],
    "oracle-n7c2": [("+inf on a false relation", false_inf), ("flipped score sign", flip_sign)],
    "witness-n7c1-int": [("toggled reach bit", toggle_reach)],
}


def self_test(workload: str, cases) -> list[str]:
    """Feeds the workload's check one corrupted answer per corruption, made
    from the first of ``cases`` (instance, answer, stored) it applies to, and
    reports each corrupted answer the check accepts."""
    check = CHECKS[workload]
    problems = []
    for label, corrupt in CORRUPTIONS[workload]:
        for inst, answer, stored in cases:
            bad = corrupt(inst, answer)
            if bad is not None:
                if not check(inst, bad, stored):
                    problems.append(f"self-test: the check accepted a {label} (instance {inst.id})")
                break
        else:
            problems.append(f"self-test: no answer to make a {label} from")
    return problems
