"""Confidence scores for ancestral features via paired constrained solves.

The confidence of a feature is the minimum loss with the feature forced
false minus the minimum loss with it forced true. Under hard inputs the
score is +inf exactly when the feature holds in every consistent joint
assignment and -inf exactly when it holds in none, which
``identifiability_oracle`` verifies by exhaustive enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, Union

from ancestral.core import (
    AncStatement,
    Ancestry,
    CiStatement,
    enumerate_ancestral_structures,
)
from ancestral.rules import clause_holds, ground
from ancestral.solver import Engine, SolveOptions


class BothInfeasibleError(ValueError):
    """Both forced solves are infeasible: the hard background knowledge is
    contradictory."""


class NoConsistentModelError(ValueError):
    """No joint assignment satisfies the hard inputs."""


class Identifiability(Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Prediction:
    cause: int
    effect: int
    score: Union[int, float]


class PairScorer:
    """Scores features over one input list on one solver :class:`Engine`,
    which compiles the instance once and keeps what its searches learn.

    The unconstrained optimum is solved first. Its minimum bounds every
    forced solve from below, so a forced solve stops when it reaches it,
    and a side whose minimum is the base minimum needs no proof of
    optimality; the engine keeps its optimum as the phase of every forced
    solve's decisions. Every forced solve starts from the cheapest
    completion that an earlier solve of the engine accepted and that
    satisfies its pin, and is answered by it without search when it costs
    the base minimum. A forced solve that no such completion serves, like
    the base solve, searches in rounds under rising cost thresholds: the
    first is the base minimum plus twice the largest gap above it that an
    earlier forced minimum showed (the smallest positive cost while there
    is none), each later one twice as far above it, until a round finds a
    completion.

    The time limit of the options is one budget for the scorer's whole
    life, compile included: every search shares the engine's deadline, and
    a search that would start after it raises at once.
    """

    def __init__(self, inputs: Sequence, n: int, options: Optional[SolveOptions] = None):
        self.options = options or SolveOptions()
        self.n = n
        self._engine = Engine(inputs, n, self.options)

    def confidence(self, feature: AncStatement) -> Union[int, float]:
        engine = self._engine
        if engine.floor is None:
            engine.query()
        loss = {hold: engine.query((engine.pin(feature, hold),))[0] for hold in (True, False)}
        if loss[True] is None and loss[False] is None:
            raise BothInfeasibleError(
                "both forced solves are infeasible; the hard inputs contradict"
            )
        if loss[False] is None:
            return math.inf
        if loss[True] is None:
            return -math.inf
        return loss[False] - loss[True]

    def all_pairs(self) -> list[Prediction]:
        return ranked(
            Prediction(f.cause, f.effect, self.confidence(f)) for f in pair_features(self.n)
        )


def format_score(score: Union[int, float]) -> str:
    """A score as the CSV writers print it: milli units, or ``inf`` and
    ``-inf``."""
    if score == math.inf:
        return "inf"
    if score == -math.inf:
        return "-inf"
    return str(int(score))


def pair_features(n: int) -> list[AncStatement]:
    """The features scored for n variables: ``x`` causes ``y`` for every
    ordered pair x != y, in row-major order."""
    return [AncStatement(x, y, Ancestry.CAUSES) for x in range(n) for y in range(n) if x != y]


def ranked(predictions: Iterable[Prediction]) -> list[Prediction]:
    """The predictions sorted by score descending, ties broken by (cause,
    effect)."""
    return sorted(predictions, key=lambda p: (-p.score, p.cause, p.effect))


def confidence(
    inputs: Sequence,
    n: int,
    feature: AncStatement,
    options: Optional[SolveOptions] = None,
) -> Union[int, float]:
    """Minimum loss with the feature forced false minus the minimum with it
    forced true; +inf / -inf when exactly one side is infeasible."""
    return PairScorer(inputs, n, options).confidence(feature)


def score_all_pairs(
    inputs: Sequence,
    n: int,
    options: Optional[SolveOptions] = None,
    share_bounds: bool = True,
) -> list[Prediction]:
    """One prediction per ordered pair, sorted by score descending with
    ties broken by (cause, effect). ``share_bounds`` admits ``True`` only,
    the one way of scoring."""
    if share_bounds is not True:
        raise ValueError(f"share_bounds admits True only, not {share_bounds!r}")
    return PairScorer(inputs, n, options).all_pairs()


def identifiability_oracle(
    hard_inputs: Iterable, n: int, feature: AncStatement
) -> Identifiability:
    """Classify a feature by enumerating every consistent joint assignment.

    All inputs must be hard, so the polarity assignment is pinned to the
    stated facts and only structures vary. Intended for n <= 4; n = 5 works
    but enumerates 4231 structures per call.
    """
    if n > 5:
        raise ValueError("identifiability oracle is limited to n <= 5")
    truth = {}
    require_reach: dict[tuple[int, int], bool] = {}
    consistent_ci = True
    for item in hard_inputs:
        if not item.weight.is_hard:
            raise ValueError("identifiability oracle requires hard inputs only")
        stmt = item.statement
        if isinstance(stmt, CiStatement):
            if stmt.y >= n or stmt.cond >> n:
                raise ValueError("statement references variables >= n")
            prev = truth.setdefault(stmt.triple, stmt.polarity)
            if prev is not stmt.polarity:
                consistent_ci = False
        elif isinstance(stmt, AncStatement):
            if stmt.cause >= n or stmt.effect >= n:
                raise ValueError("statement references variables >= n")
            want = stmt.polarity is Ancestry.CAUSES
            prev = require_reach.setdefault((stmt.cause, stmt.effect), want)
            if prev != want:
                consistent_ci = False
        else:
            raise TypeError(f"unsupported statement type {type(stmt)!r}")
    if not consistent_ci:
        raise NoConsistentModelError("contradictory hard inputs")
    grounding = ground([(t, p) for t, p in truth.items()], n)
    if any((t, p.flipped()) in grounding.facts for t, p in truth.items()):
        raise NoConsistentModelError("hard facts derive their own negation")

    holds_in = total = 0
    want_feature = feature.polarity is Ancestry.CAUSES
    for s in enumerate_ancestral_structures(n):
        if any(s.reach(x, y) != want for (x, y), want in require_reach.items()):
            continue
        if not all(clause_holds(c, s) for c in grounding.clauses):
            continue
        total += 1
        if s.reach(feature.cause, feature.effect) == want_feature:
            holds_in += 1
    if total == 0:
        raise NoConsistentModelError("no consistent joint assignment")
    if holds_in == total:
        return Identifiability.TRUE
    if holds_in == 0:
        return Identifiability.FALSE
    return Identifiability.UNKNOWN
