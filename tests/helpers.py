"""Shared test oracles: random DAGs, a path-enumeration d-separation
checker, brute-force structure enumeration and the per-query lex witness.
Everything here is kept independent of the library's own algorithms so
tests cross-validate, except the witness loop, which is the engine's
earlier algorithm kept as the reference for its incremental one."""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np

from ancestral.core import (
    Polarity,
    Weight,
    WeightedInput,
    canonicalize,
    causes,
    dep,
    indep,
    is_ancestral_structure,
    not_causes,
)
from ancestral.simulate import d_separated


def random_dag(n_nodes: int, edge_prob: float, rng: random.Random) -> np.ndarray:
    """Random DAG adjacency: random order, forward coin-flip edges."""
    order = list(range(n_nodes))
    rng.shuffle(order)
    adj = np.zeros((n_nodes, n_nodes), dtype=bool)
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < edge_prob:
                adj[order[i], order[j]] = True
    return adj


def path_d_separated(adj: np.ndarray, x: int, y: int, cond: set[int]) -> bool:
    """Textbook d-separation by exhaustive simple-path enumeration:
    every undirected path must contain a blocking node."""
    n = adj.shape[0]
    reach_cache = {}

    def has_descendant_in(v: int, targets: set[int]) -> bool:
        if v in reach_cache:
            return reach_cache[v]
        seen = set()
        stack = [v]
        found = False
        while stack:
            u = stack.pop()
            if u in targets:
                found = True
                break
            for w in range(n):
                if adj[u, w] and w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach_cache[v] = found
        return found

    def blocked(path: list[int]) -> bool:
        for i in range(1, len(path) - 1):
            a, v, b = path[i - 1], path[i], path[i + 1]
            collider = adj[a, v] and adj[b, v]
            if collider:
                if v not in cond and not has_descendant_in(v, cond):
                    return True
            else:
                if v in cond:
                    return True
        return False

    def walk(path: list[int]) -> bool:
        # returns True when some unblocked path reaches y
        v = path[-1]
        if v == y:
            return not blocked(path)
        for w in range(n):
            if (adj[v, w] or adj[w, v]) and w not in path:
                if walk(path + [w]):
                    return True
        return False

    return not walk([x])


def all_structure_matrices(n: int) -> list[list[list[bool]]]:
    """Every valid structure matrix by filtering all off-diagonal bit
    combinations; usable up to n = 4."""
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    out = []
    for bits in range(1 << len(pairs)):
        matrix = [[x == y for y in range(n)] for x in range(n)]
        for i, (x, y) in enumerate(pairs):
            if (bits >> i) & 1:
                matrix[x][y] = True
        if is_ancestral_structure(matrix):
            out.append(matrix)
    return out


def dag_oracle_inputs(adj: np.ndarray, n_obs: int, max_order: int) -> list[WeightedInput]:
    """Hard (in)dependence statements over observed variables 0..n_obs-1
    read off a full DAG's d-separations."""
    out = []
    others = lambda x, y: [v for v in range(n_obs) if v != x and v != y]
    for x in range(n_obs):
        for y in range(x + 1, n_obs):
            conds = [()]
            for k in range(1, max_order + 1):
                conds.extend(combinations(others(x, y), k))
            for cond in conds:
                polarity = (
                    Polarity.INDEPENDENT
                    if d_separated(adj, x, y, set(cond))
                    else Polarity.DEPENDENT
                )
                bits = 0
                for u in cond:
                    bits |= 1 << u
                out.append(WeightedInput(canonicalize(x, y, bits, polarity), Weight.hard()))
    return out


# One triple set at n = 4 shared by several input lists, so that solves over
# different inputs reuse one grounding.
SHARED_TRIPLES = ((0, 1, ()), (0, 2, (1,)), (1, 2, ()), (1, 3, (0,)), (2, 3, ()), (0, 3, (1, 2)))


def shared_triple_inputs(rng: random.Random, hard_share: float = 0.2) -> list[WeightedInput]:
    """Every triple of SHARED_TRIPLES once with a random polarity, up to two
    of them with the opposite polarity too, and up to four ancestral
    statements; each weight is hard with probability ``hard_share``."""

    def weight() -> Weight:
        return Weight.hard() if rng.random() < hard_share else Weight.finite(rng.randint(0, 5000))

    inputs = []
    for x, y, cond in SHARED_TRIPLES:
        make = indep if rng.random() < 0.5 else dep
        inputs.append(make(x, y, cond, weight()))
    for x, y, cond in rng.sample(SHARED_TRIPLES, rng.randint(0, 2)):
        first = inputs[SHARED_TRIPLES.index((x, y, cond))].statement.polarity
        make = dep if first is Polarity.INDEPENDENT else indep
        inputs.append(make(x, y, cond, weight()))
    for _ in range(rng.randint(0, 4)):
        x, y = rng.sample(range(4), 2)
        make = causes if rng.random() < 0.5 else not_causes
        inputs.append(make(x, y, weight()))
    return inputs


def random_instance(rng, n=4, max_inputs=10, max_weight=5000, anc_share=0.3):
    """Between 1 and ``max_inputs`` soft inputs on n variables: an
    ancestral statement with probability ``anc_share``, else a CI
    statement of order 0 or 1, each of weight 0 to ``max_weight``."""
    inputs = []
    for _ in range(rng.randint(1, max_inputs)):
        if rng.random() < anc_share:
            x, y = rng.sample(range(n), 2)
            w = Weight.finite(rng.randint(0, max_weight))
            inputs.append(causes(x, y, w) if rng.random() < 0.5 else not_causes(x, y, w))
        else:
            x, y = rng.sample(range(n), 2)
            others = [v for v in range(n) if v not in (x, y)]
            cond = rng.sample(others, rng.randint(0, 1))
            w = Weight.finite(rng.randint(0, max_weight))
            inputs.append(
                indep(x, y, cond, w) if rng.random() < 0.5 else dep(x, y, cond, w)
            )
    return inputs


def level0_contradictions() -> list[list[WeightedInput]]:
    """Input lists over SHARED_TRIPLES whose hard inputs contradict once
    propagated at level 0: both polarities of one triple, a broken
    transitive chain, and a two-cycle."""
    soft = [indep(x, y, cond, Weight.finite(100)) for x, y, cond in SHARED_TRIPLES]
    return [
        soft[1:] + [indep(0, 1), dep(0, 1)],
        soft + [causes(0, 1), causes(1, 2), not_causes(0, 2)],
        soft + [causes(2, 3), causes(3, 2)],
    ]


def reference_lex_witness(engine, best, cur):
    """The lex-smallest optimum of ``engine``'s pinless query, of cost
    ``best`` with optimal snapshot ``cur``, by one :meth:`Engine.query` per
    pin: a pin that ``cur`` satisfies is taken without search; each other
    is decided by an optimization query that re-poses every pin so far,
    taken when its minimum is ``best``, whose optimum becomes ``cur``."""
    tab = engine.tables
    pins: list[int] = []
    for pin in [var * 2 + 1 for var in tab.lex_vars] + [
        engine.pol_base + t * 2 for t in range(len(tab.triples))
    ]:
        if not engine.holds(cur, pin):
            cost, snap = engine.query(pins + [pin])
            if cost == best:
                cur = snap
            else:
                pin ^= 1
        pins.append(pin)
    return engine.joint(cur)
