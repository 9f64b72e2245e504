"""Confidence scores for ancestral features via paired constrained solves.

The confidence of a feature is the minimum loss with the feature forced
false minus the minimum loss with it forced true. Under hard inputs the
score is +inf exactly when the feature holds in every consistent joint
assignment and -inf exactly when it holds in none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from ancestral.core import AncStatement, Ancestry
from ancestral.solver import Engine, SolveOptions


class BothInfeasibleError(ValueError):
    """Both forced solves are infeasible: the hard background knowledge is
    contradictory."""


@dataclass(frozen=True)
class Prediction:
    cause: int
    effect: int
    score: Union[int, float]


class PairScorer:
    """Scores features over one input list on one solver :class:`Engine`,
    ``engine``, which compiles the instance once and keeps what its
    searches learn; its ``nodes`` counts the search nodes of every solve
    and its ``searches`` their searches.

    The unconstrained optimum is solved first. Its minimum bounds every
    forced solve from below, so a forced solve stops when it reaches it,
    and a side whose minimum is the base minimum needs no proof of
    optimality. Every forced solve's decisions take the values of the
    unconstrained optimum, except on an instance without a cost-bearing
    input, such as one of hard inputs only: there every completion is
    optimal, so they take the values that no completion of an earlier
    solve has, and each forced solve's completion can answer more of the
    later ones. Every forced solve starts from the cheapest
    completion that an earlier solve of the engine accepted and that
    satisfies its pin, and is answered by it without search when it costs
    the base minimum. A forced solve that no such completion serves, like
    the base solve, searches in rounds under rising cost thresholds: the
    first is the base minimum plus twice the largest gap above it that an
    earlier forced minimum showed (the smallest positive cost while there
    is none), each later one twice as far above it, until a round finds a
    completion. Every search runs under an incumbent, real or virtual; on
    an instance without a cost-bearing input every solve is one round.

    The time limit of the options is one budget for the scorer's whole
    life, compile included: every search shares the engine's deadline, and
    a search that would start after it raises at once.
    """

    def __init__(self, inputs: Sequence, n: int, options: Optional[SolveOptions] = None):
        self.n = n
        self.engine = Engine(inputs, n, options)

    def confidence(self, feature: AncStatement) -> Union[int, float]:
        engine = self.engine
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
