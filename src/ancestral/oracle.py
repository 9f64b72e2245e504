"""Exhaustive references for the exact answers of small instances.

``brute_force_min_loss`` crosses every ancestral structure with every
polarity assignment of the input triples, and ``identifiability_oracle``
classifies a feature over every consistent joint assignment of hard
inputs. Both read their inputs through one reader and judge consistency
with :func:`rules.consistent_structures`; neither shares code with the
search engine of :mod:`ancestral.solver`, whose minima, witnesses and
±inf scores the tests check against them. Of the package, only
``__init__`` imports this module, to export its names.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum
from typing import Iterable, Iterator, Sequence

from ancestral.core import (
    AncestralStructure,
    AncStatement,
    Ancestry,
    CiStatement,
    Weight,
    enumerate_ancestral_structures,
)
from ancestral.rules import (
    DEP,
    INDEP,
    CiAssignment,
    JointAssignment,
    consistent_structures,
)
from ancestral.solver import SolveResult


class NoConsistentModelError(ValueError):
    """No joint assignment satisfies the hard inputs."""


class Identifiability(Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


@functools.lru_cache(maxsize=None)
def _structures_by_key(n: int) -> tuple[tuple[int, AncestralStructure], ...]:
    """Every ancestral structure on n variables with its key, ascending;
    the callers' guards keep n <= 5, so the cache stays small."""
    return tuple(sorted((s.key(), s) for s in enumerate_ancestral_structures(n)))


def _read(
    inputs: Iterable, n: int
) -> tuple[Iterator[tuple[int, CiAssignment]], dict[int, tuple[AncestralStructure, int]]]:
    """The values that the inputs allow, each with its cost, the summed
    weights of the inputs it violates. The first result yields the
    ``(cost, assignment)`` of every polarity assignment of the sorted
    input triples, in ascending order of their polarity bits (independent
    0, the first triple's bit the highest); the second maps the key of
    every ancestral structure on n variables, ascending, to the structure
    and its cost. A hard input removes the value it forbids, so all-hard
    inputs allow at most one polarity assignment."""
    pol_cost: dict = {}
    reach_cost: dict = {}
    for item in inputs:
        stmt = item.statement
        if isinstance(stmt, CiStatement):
            if stmt.y >= n or stmt.cond >> n:
                raise ValueError(f"statement {stmt} references variables >= n={n}")
            costs = pol_cost.setdefault(stmt.triple, {INDEP: 0, DEP: 0})
            violated = stmt.polarity.flipped()
        elif isinstance(stmt, AncStatement):
            if stmt.cause >= n or stmt.effect >= n:
                raise ValueError(f"statement {stmt} references variables >= n={n}")
            costs = reach_cost.setdefault((stmt.cause, stmt.effect), {True: 0, False: 0})
            violated = stmt.polarity is not Ancestry.CAUSES
        else:
            raise TypeError(f"unsupported statement type {type(stmt)!r}")
        if costs[violated] is not None:
            costs[violated] = None if item.weight.is_hard else costs[violated] + item.weight.millis

    triples = sorted(pol_cost)
    allowed = [[(p, c) for p, c in pol_cost[t].items() if c is not None] for t in triples]
    assignments = (
        (sum(c for _, c in values), CiAssignment(dict(zip(triples, (p for p, _ in values)))))
        for values in itertools.product(*allowed)
    )
    structures = {}
    for key, s in _structures_by_key(n):
        costs = [cc[s.reach(x, y)] for (x, y), cc in reach_cost.items()]
        if None not in costs:
            structures[key] = (s, sum(costs))
    return assignments, structures


def brute_force_min_loss(inputs: Sequence, n: int) -> SolveResult:
    """Independent exhaustive oracle for small instances: every ancestral
    structure crossed with every polarity assignment, filtered by the
    consistency constraints. Same contract as
    :func:`solver.solve_min_loss`: the witness is the lexicographically
    smallest optimum.

    An assignment whose polarity cost alone exceeds the best loss is
    skipped, and so is a structure whose (loss, key) is not below the
    best one's before its clauses are checked; assignments come in
    ascending polarity-bit order, so of two optima with one structure the
    earlier assignment is kept."""
    inputs = list(inputs)
    if n > 4:
        raise ValueError("brute force is limited to n <= 4")
    if len(inputs) > 16:
        raise ValueError("brute force is limited to 16 inputs")
    assignments, structures = _read(inputs, n)
    best = None  # the (loss, structure key) of the witness
    witness = None
    for flip, ci in assignments:
        if best is not None and flip > best[0]:
            continue
        candidates = (
            s for key, (s, cost) in structures.items() if best is None or (flip + cost, key) < best
        )
        for s in consistent_structures(n, ci, candidates):
            key = s.key()
            best = (flip + structures[key][1], key)
            witness = JointAssignment(s, ci)
    if best is None:
        return SolveResult(Weight.hard(), None)
    return SolveResult(Weight.finite(best[0]), witness)


def identifiability_oracle(
    hard_inputs: Iterable, n: int, feature: AncStatement
) -> Identifiability:
    """Classify a feature by enumerating every consistent joint assignment.

    All inputs must be hard, so the polarity assignment is pinned to the
    stated facts and only structures vary. Intended for n <= 4; n = 5 works
    but enumerates 4231 structures per call. Raises ``ValueError`` when the
    feature names a variable >= n, as :meth:`solver.Engine.pin` does.
    """
    if n > 5:
        raise ValueError("identifiability oracle is limited to n <= 5")
    if feature.cause >= n or feature.effect >= n:
        raise ValueError("feature references variables >= n")
    hard_inputs = list(hard_inputs)
    if not all(item.weight.is_hard for item in hard_inputs):
        raise ValueError("identifiability oracle requires hard inputs only")
    assignments, structures = _read(hard_inputs, n)
    want = feature.polarity is Ancestry.CAUSES
    verdicts = {
        s.reach(feature.cause, feature.effect) == want
        for _, ci in assignments
        for s in consistent_structures(n, ci, (s for s, _ in structures.values()))
    }
    if not verdicts:
        raise NoConsistentModelError("no joint assignment satisfies the hard inputs")
    if len(verdicts) == 2:
        return Identifiability.UNKNOWN
    return Identifiability.TRUE if True in verdicts else Identifiability.FALSE
