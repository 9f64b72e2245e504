"""Exact minimization of the weighted-violation loss over joint assignments.

The search is conflict-driven: every propagated assignment carries a
reason, logical conflicts are analyzed to a first-unique-implication-point
clause, and bound prunes and accepted solutions are turned into cost-core
nogoods (the cost-bearing assignments that already force the total to the
threshold), so every dead end backjumps with a recorded clause and is never
re-refuted. Learned clauses range over structure and polarity assignment
tokens only: conflict analysis resolves every other derived fact away
through the gated clause that derived it. Nogoods learned under one
incumbent stay valid as the incumbent tightens, so the minimum is exact.

Reachability, polarity and derived-fact variables share one numbering, so
the assignment state is kept once, in MiniSat's layout (Een & Sorensson
2003): one value byte per token, one level and one reason per variable,
and one trail that undoes them all and, read from one head, queues their
propagation. Each fact has one variable: the two facts of an input triple
are the two values of its polarity variable, and only the facts of other
triples get fact variables of their own.

Propagation interleaves four mechanisms. One table of gated clauses
unit-propagates each clause once all its gate facts are present: a rule
instance is a clause gated by its premises whose one literal is its
conclusion fact, a structural constraint one over reachability variables.
Transitivity and antisymmetry are kept closed after every structure
assignment. Learned clauses propagate through two watched tokens, swapped
in place as the watches move. The lower bound is the running cost alone:
compilation pays each reachability variable's cheaper allowed value into a
constant ``offset``, so each value costs only its excess over that (the
unary cost shift of weighted CSP, Cooper & Schiex 2004), and the running
cost, ``offset`` plus the reduced costs assigned so far, bounds every
completion below the node; undecided polarities are treated
optimistically, so the bound is admissible. It also propagates: under an
incumbent, every open token whose reduced cost reaches the slack, the
incumbent's cost less the running cost, is set false: the hardening of
weighted MaxSAT (Ansotegui et al. 2012), applied at every node. Its reason
is the bound cover of the cost-bearing tokens in front of it on the trail,
which is query-local and built only when conflict analysis resolves it.

Compilation has two layers. The grounding of n variables and a triple set
(fact universe, one gated-clause table and its indexes) does not depend
on weights or polarities, so it is memoised per (n, triple set) and shared
by every input list over that set, as when many models are scored at one
(n, max order). Each input list adds its costs, its decision order and one
incremental engine. A hard input forbids one value of its variable: the
engine asserts the other value at level 0 and propagates it once there, so
two contradicting hard inputs conflict like any two assignments, and the
forbidden value, never taken, costs 0.

One engine answers every query of an instance: the base solve, each
forced solve of the scores and the witness. A query backjumps to level 0
and poses its pins (forced features) as assumptions at level 1, below
which the search never backjumps, in the manner of the MiniSat assumption
interface. Logical learned clauses, those resolved from the rules, the
hard inputs and other logical clauses alone, hold under any pins and
persist across queries, as do decision activities. A clause resolved from
a bound or incumbent nogood, from a hardened token's reason, or from the
reason of a clause so derived, depends on one query's threshold: it is
query-local and dropped when the next query or witness starts.

Every search runs in one mode, under an incumbent: it prunes each node
whose lower bound reaches the incumbent's cost, which may be virtual, a
cost threshold with no completion behind it; each completion it reaches
becomes the incumbent and enters the pool. A completion's cost does not
depend on the pins, so the cheapest pooled completion that satisfies a
query's pins is a feasible incumbent for it, an upper bound on its
minimum. Pins only remove completions, so the pinless query's minimum is a
floor under every later one, and a query stops once its incumbent reaches
it, a pooled one included. A query that no pooled completion satisfies, the pinless one included,
searches instead in rounds under rising thresholds, as in progression-based
MaxSAT (Ignatiev et al. 2014). Each round's incumbent is virtual, of cost
``base + 2 * gap + 1`` and no completion, where ``base`` is the floor, or
``offset`` before there is one, and ``gap`` starts at ``excess``, the
largest gap between a finished pinned minimum and the floor, or while that
is 0 at the smallest positive reduced cost (0 when there is none).
Thresholds only fall, so a completion found under one continues the same
search to the minimum. A round that exhausts proves the minimum at least
its threshold, which becomes the next round's lower bound ``lo``, and
``gap`` doubles. A threshold above ``ceiling``, the cost of the costliest
completion, prunes no completion, so exhausting it proves the query
infeasible. On an instance without a cost-bearing token every completion
costs ``offset`` and ``ceiling`` is ``offset``, so its one round, at
``base + 1``, always ends the loop.

Branching is VSIDS (Moskewicz et al. 2001): each decision takes the open
reachability or polarity variable of highest conflict activity, ties to
the lowest index, popped from a binary heap as in MiniSat, so every
completion assigns every such variable. Its value is the pinless
optimum's once there is one, else the cheaper one, ties to false. The
search never restarts.

Determinism: decision activities, value preferences and all tie-breaks are
deterministic, so identical inputs and an identical sequence of queries
produce identical results; every minimum is exact whatever the queries
before it. The reported witness is the lexicographically smallest optimum
(row-major reachability bits, then polarity bits of the sorted input
triples with independent < dependent), built on one trail by pinning
variables one at a time at level 1. A pin that the current optimal
completion already satisfies is asserted without search; each other pin is
probed one level above, with the assumption level raised to 2, by a search
under the virtual incumbent ``best + 1``, which stops at its first
completion, one at the optimum; then the pin or its negation is asserted.

``brute_force_min_loss`` is the independent oracle: exhaustive enumeration
of all ancestral structures and polarity assignments filtered through the
consistency constraints.
"""

from __future__ import annotations

import functools
import heapq
import time
from dataclasses import dataclass
from typing import Optional, Sequence

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
    Triple,
    clause_holds,
    ground,
)

MAX_DEFAULT_N = 12

_POL_INDEX = {INDEP: 0, DEP: 1}


class SolveTimeoutError(TimeoutError):
    """Search exceeded its time limit; carries the best known upper bound."""

    def __init__(self, message: str, best_bound: Optional[Weight]):
        super().__init__(message)
        self.best_bound = best_bound


@dataclass(frozen=True)
class SolveOptions:
    forced_features: tuple[tuple[AncStatement, bool], ...] = ()
    time_limit: Optional[float] = None
    allow_large_n: bool = False

    def __post_init__(self) -> None:
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time_limit must be positive")


@dataclass(frozen=True)
class SolveResult:
    min_loss: Weight
    witness: Optional[JointAssignment]

    @property
    def feasible(self) -> bool:
        return not self.min_loss.is_hard


# ---------------------------------------------------------------------------
# Instance compilation: input costs, and grounding tables shared per
# (n, triple set)


def _input_costs(inputs, n):
    """Split inputs into per-triple assignment costs and per-pair ancestral
    costs. A ``None`` cost marks a value forbidden by a hard input."""
    tri_costs: dict[Triple, list] = {}
    cost_true: list = [0] * (n * n)
    cost_false: list = [0] * (n * n)
    for item in inputs:
        stmt = item.statement
        w = item.weight
        if isinstance(stmt, CiStatement):
            if stmt.y >= n or stmt.cond >> n:
                raise ValueError(f"statement {stmt} references variables >= n={n}")
            cc = tri_costs.setdefault(stmt.triple, [0, 0])
            violated_slot = 1 - _POL_INDEX[stmt.polarity]
            if w.is_hard:
                cc[violated_slot] = None
            elif cc[violated_slot] is not None:
                cc[violated_slot] += w.millis
        elif isinstance(stmt, AncStatement):
            if stmt.cause >= n or stmt.effect >= n:
                raise ValueError(f"statement {stmt} references variables >= n={n}")
            var = stmt.cause * n + stmt.effect
            slot = cost_false if stmt.polarity is Ancestry.CAUSES else cost_true
            if w.is_hard:
                slot[var] = None
            elif slot[var] is not None:
                slot[var] += w.millis
        else:
            raise TypeError(f"unsupported statement type {type(stmt)!r}")
    triples = sorted(tri_costs)
    return triples, [tuple(tri_costs[t]) for t in triples], cost_true, cost_false


class _Tables:
    """Input-independent grounding for n variables and a sorted triple
    set, all tuples: the fact universe (both polarities of every triple)
    and one table of gated clauses, each active once all its gate facts
    are present, with its indexes. A rule instance of :func:`ground` is a
    clause gated by its premises whose one literal is its conclusion
    fact; a structural constraint is one over reachability tokens. Built
    once per key by :func:`_tables` and shared read-only by every engine.
    Facts, gates and literals are engine tokens (see :class:`Engine`), the
    two facts of an input triple being its two polarity tokens; ``nfacts``
    counts the other facts, and ``fact_clauses[tok]`` lists the clauses
    gated by token ``tok``."""

    def __init__(self, n: int, triples: tuple[Triple, ...]):
        self.triples = triples
        self.pol_base = 2 * n * n
        self.fact_base = self.pol_base + 2 * len(triples)

        seeds = [(t, INDEP) for t in triples] + [(t, DEP) for t in triples]
        g = ground(seeds, n)
        fact_tok = {
            (t, pol): self.pol_base + 2 * i + _POL_INDEX[pol]
            for i, t in enumerate(triples)
            for pol in (INDEP, DEP)
        }
        others = sorted(
            (f for f in g.facts if f not in fact_tok), key=lambda f: (f[0], _POL_INDEX[f[1]])
        )
        fact_tok.update((f, self.fact_base + 2 * i) for i, f in enumerate(others))
        self.nfacts = len(others)

        # each derivation is a clause whose one literal is its conclusion
        # fact, listed first so that instances fire first and in order; a
        # structural literal's token is the reachability value satisfying it
        gated = [(r.premises, (fact_tok[r.conclusion],)) for r in g.derivations]
        gated += [
            (c.premises, tuple(2 * (x * n + y) + (0 if want else 1) for want, x, y in c.literals))
            for c in g.clauses
        ]
        self.cl_lits = tuple(lits for _, lits in gated)
        self.cl_gate_toks = tuple(tuple(fact_tok[f] for f in prem) for prem, _ in gated)
        self.cl_npremises = tuple(len(prem) for prem, _ in gated)
        fact_clauses: list[list[int]] = [[] for _ in range(self.fact_base + 2 * self.nfacts)]
        var_clauses: list[list[int]] = [[] for _ in range(n * n)]
        for ci, gate in enumerate(self.cl_gate_toks):
            for tok in set(gate):
                fact_clauses[tok].append(ci)
            for tok in set(self.cl_lits[ci]):
                if tok < self.pol_base:
                    var_clauses[tok >> 1].append(ci)
        self.fact_clauses = tuple(tuple(v) for v in fact_clauses)
        self.var_clauses = tuple(tuple(v) for v in var_clauses)
        self.lex_vars = tuple(x * n + y for x in range(n) for y in range(n) if x != y)


@functools.lru_cache(maxsize=8)
def _tables(n: int, triples: tuple[Triple, ...]) -> _Tables:
    """The grounding of one (n, triple set), memoised: experiments score
    many models per (n, max order) over one triple set, so only the first
    model of a process pays for it."""
    return _Tables(n, triples)


# ---------------------------------------------------------------------------
# Search engine

_ACT_DECAY = 1.0 / 0.95
_ACT_RESCALE = 1e100


class _Local(list):
    """A learned clause, reason or conflict that depends on one query's
    bound or incumbent; it is dropped when the next query or witness
    starts. The probes of one witness share one threshold, so the clauses
    of one probe are kept for the next."""

    __slots__ = ()


class _Hardened(tuple):
    """The lazy reason ``(threshold, end)`` of a token that objective
    propagation set false: the cover (:meth:`Engine._cover`) of
    ``trail[:end]`` reaching ``threshold``, built when analysis needs it."""

    __slots__ = ()


class Engine:
    """The exact solver for one input list: it validates and compiles the
    instance, fixes one deadline for its whole life and answers every query
    on one incremental conflict-driven search.

    Compile looks up the shared grounding of the instance's (n, triple set),
    adds the reduced input costs, their ``offset`` and the decision order,
    and asserts the value each hard input requires at level 0, in token
    order, and propagates them once there; ``infeasible`` is set when they
    contradict there. Level 0 never changes after that. Each
    :meth:`query` backjumps to it and asserts the options' forced features
    and its own pins at level 1, the assumption level ``root``, which the
    search never backjumps below; :meth:`witness` raises ``root`` to 2
    while it probes its pins.

    Token encoding: every engine variable has one number. Reachability
    ``var = x * n + y`` is variable ``var``, the polarity of input triple
    ``t`` is variable ``n * n + t``, and fact ``f`` of a triple that is not
    an input is variable ``n * n + len(triples) + f``. Token ``2 * v``
    makes variable ``v`` true (reachable, independent, present) and
    ``2 * v + 1`` false, so negating a token flips its low bit, and
    ``pol_base`` and ``fact_base`` are the first polarity and fact tokens.
    The facts ``(t, INDEP)`` and ``(t, DEP)`` of input triple ``t`` are
    its two polarity tokens, so they are each other's negation. The tokens
    from ``fact_base`` on are never negated and never enter learned
    clauses. A pin is a reachability or polarity token. ``value`` holds one
    byte per token, set while the token is true; ``level`` and ``reason``
    hold one entry per variable; ``trail`` is the one undo log of assigned
    tokens and the propagation queue: the tokens in front of ``qhead``
    have been propagated, those behind it wait for :meth:`_flush`, and
    ``cl_missing[c]`` counts the gate tokens of clause ``c`` missing from
    ``trail[:qhead]``. ``cost`` is the running cost, ``offset`` plus the
    reduced costs of the trail's tokens and the search's only lower bound;
    bound nogoods read its cost-bearing tokens off the trail.

    ``costly`` lists the cost-bearing tokens by ``(-cost_of, token)``, and
    every token in front of ``scanned`` is assigned; each frame saves
    ``scanned``, so a pass of :meth:`_harden` scans only the tokens that
    the slack newly reaches.
    ``pool`` holds the ``(cost, snapshot)`` of every completion that a
    search accepted, ``floor`` and ``floor_snap`` the pinless query's
    minimum and optimum, whose values every later decision takes, and
    ``excess`` the largest ``minimum - floor`` of the pinned queries
    finished so far, a query's first threshold gap unless it is 0.
    ``ceiling`` is the largest completion cost: ``offset`` plus each
    variable's costlier reduced value.

    Decision heap: ``heap`` holds ``(-activity, var)`` entries of the
    variables of ``order``, every reachability and polarity variable that
    level 0 leaves open, and ``queued`` marks each variable that holds an
    entry at its current activity, so none is pushed twice. Invariant:
    every unassigned reachability or polarity variable is queued.
    :meth:`_backjump` requeues the variables it unassigns, :meth:`_bump`
    pushes a fresh entry for a queued variable whose activity rose, a
    rescale rebuilds the heap, and :meth:`_next_decision` discards stale
    entries and those of assigned variables as it pops them.
    """

    def __init__(self, inputs: Sequence, n: int, options: Optional[SolveOptions] = None):
        options = options or SolveOptions()
        if not 1 <= n <= 31:
            raise ValueError("n must be in 1..31")
        if n > MAX_DEFAULT_N and not options.allow_large_n:
            raise ValueError(
                f"n={n} exceeds the default search guard ({MAX_DEFAULT_N}); "
                "set allow_large_n to override"
            )
        self.deadline = None
        if options.time_limit is not None:
            self.deadline = time.monotonic() + options.time_limit
        self.n = n
        self.pins = tuple(self.pin(stmt, hold) for stmt, hold in options.forced_features)

        triples, tri_cost, cost_true, cost_false = _input_costs(inputs, n)
        self.tables = tab = _tables(n, tuple(triples))
        n2 = n * n
        nvars = n2 + len(triples) + tab.nfacts
        self.pol_base = tab.pol_base
        self.fact_base = tab.fact_base
        # the cost of making a token true, None for a value that a hard
        # input forbids; each reachability variable pays its cheaper allowed
        # value into ``offset``, and its tokens keep the excess over that
        full = [c for v in range(n2) for c in (cost_true[v], cost_false[v])]
        full += [c for cc in tri_cost for c in cc]
        shift = [
            min((c for c in cc if c is not None), default=0) for cc in zip(cost_true, cost_false)
        ]
        shift += [0] * len(triples)
        self.offset = sum(shift)
        self.cost_of = [0 if c is None else c - shift[tok >> 1] for tok, c in enumerate(full)]
        self.cost_of += [0] * (2 * tab.nfacts)
        self.costly = [t for _, t in sorted((-c, t) for t, c in enumerate(self.cost_of) if c)]
        cost_of = self.cost_of[: self.fact_base]
        self.ceiling = self.offset + sum(map(max, cost_of[0::2], cost_of[1::2]))
        self.scanned = 0

        self.value = bytearray(2 * nvars)
        # both tokens of variable v as one word: zero while v is unassigned
        self.assigned = memoryview(self.value).cast("H")
        self.level = [0] * nvars
        self.reason: list = [()] * nvars
        self.cl_missing = list(tab.cl_npremises)
        self.trail: list[int] = []
        self.qhead = 0
        self.frames: list[tuple] = []
        self.cost = self.offset
        self.nodes = 0
        self.conflict = None
        self.learned: list[list[int]] = []
        self.watches: dict[int, list[int]] = {}
        self.act = [0.0] * (n2 + len(triples))
        self.act_inc = 1.0
        self.best_cost: Optional[int] = None
        self.best_snap = None
        self.pool: list[tuple[int, bytes]] = []
        self.floor: Optional[int] = None
        self.floor_snap = None
        self.excess = 0
        self.root = 1
        required = [tok ^ 1 for tok, c in enumerate(full) if c is None]
        self.infeasible = not (all(self._assign(tok, ()) for tok in required) and self._flush())
        # level 0 never changes, so a variable it assigns is never decided
        decided = (*tab.lex_vars, *range(n2, n2 + len(triples)))
        self.order = [v for v in decided if not self.assigned[v]]
        self._rebuild_heap()

    # -- pins and snapshots -------------------------------------------------

    def pin(self, feature: AncStatement, hold: bool) -> int:
        """The pin that makes ``feature`` hold (or fail) in a query."""
        n = self.n
        if feature.cause >= n or feature.effect >= n:
            raise ValueError("feature references variables >= n")
        want_reach = (feature.polarity is Ancestry.CAUSES) == bool(hold)
        return (feature.cause * n + feature.effect) * 2 + (0 if want_reach else 1)

    def holds(self, snap, pin: int) -> bool:
        """Whether the pin holds in the snapshot, a completion, which
        assigns every reachability and polarity variable."""
        return snap[pin] == 1

    def joint(self, snap) -> JointAssignment:
        """The joint assignment that a snapshot encodes."""
        n = self.n
        rows = [1 << x for x in range(n)]
        for x in range(n):
            for y in range(n):
                if x != y and snap[(x * n + y) * 2]:
                    rows[x] |= 1 << y
        base = self.pol_base
        truth = {
            t: (INDEP if snap[base + 2 * i] else DEP) for i, t in enumerate(self.tables.triples)
        }
        return JointAssignment(AncestralStructure(n, tuple(rows)), CiAssignment(truth))

    # -- state updates (conflicts set self.conflict) -------------------------

    def _assign(self, tok: int, reason) -> bool:
        """Make ``tok`` true at the current level with ``reason``; its
        consequences wait on the trail for :meth:`_flush`."""
        value = self.value
        if value[tok]:
            return True
        if value[tok ^ 1]:
            self.conflict = type(reason)([*reason, tok ^ 1])
            return False
        value[tok] = 1
        var = tok >> 1
        self.level[var] = len(self.frames)
        self.reason[var] = reason
        self.trail.append(tok)
        self.cost += self.cost_of[tok]
        return True

    def _check_clause(self, c: int) -> bool:
        """Evaluate an active gated clause; unit-propagate or conflict."""
        value = self.value
        unknown = None
        count = 0
        lits = self.tables.cl_lits[c]
        for tok in lits:
            if value[tok]:
                return True
            if not value[tok ^ 1]:
                count += 1
                if count > 1:
                    return True
                unknown = tok
        gate = self.tables.cl_gate_toks[c]
        if count == 0:
            self.conflict = gate + tuple(tok ^ 1 for tok in lits)
            return False
        return self._assign(unknown, gate + tuple(tok ^ 1 for tok in lits if tok != unknown))

    def _reach_consequences(self, var: int) -> bool:
        """Keep transitivity and antisymmetry closed around ``var``."""
        n = self.n
        x, y = divmod(var, n)
        value = self.value
        assign = self._assign
        if value[var * 2]:
            tok = var * 2
            if not assign((y * n + x) * 2 + 1, (tok,)):
                return False
            for z in range(n):
                if z == x or z == y:
                    continue
                yz, xz, zx, zy = (y * n + z) * 2, (x * n + z) * 2, (z * n + x) * 2, (z * n + y) * 2
                if value[yz] and not assign(xz, (tok, yz)):
                    return False
                if value[xz + 1] and not assign(yz + 1, (tok, xz + 1)):
                    return False
                if value[zx] and not assign(zy, (tok, zx)):
                    return False
                if value[zy + 1] and not assign(zx + 1, (tok, zy + 1)):
                    return False
        else:
            tok = var * 2 + 1
            for z in range(n):
                if z == x or z == y:
                    continue
                xz, zy = (x * n + z) * 2, (z * n + y) * 2
                if value[xz] and not assign(zy + 1, (tok, xz)):
                    return False
                if value[zy] and not assign(xz + 1, (tok, zy)):
                    return False
        cl_missing = self.cl_missing
        for c in self.tables.var_clauses[var]:
            if cl_missing[c] == 0 and not self._check_clause(c):
                return False
        return True

    def _propagate_watches(self, falsified: int) -> bool:
        wl = self.watches.get(falsified)
        if not wl:
            return True
        learned = self.learned
        value = self.value
        i = 0
        while i < len(wl):
            ci = wl[i]
            clause = learned[ci]
            pos = 0 if clause[0] == falsified else 1
            other = clause[1 - pos]
            if value[other]:
                i += 1
                continue
            for j in range(2, len(clause)):
                tok = clause[j]
                if not value[tok ^ 1]:
                    # watch tok in place of the falsified token
                    clause[pos], clause[j] = tok, falsified
                    self.watches.setdefault(tok, []).append(ci)
                    wl[i] = wl[-1]
                    wl.pop()
                    break
            else:
                if value[other ^ 1]:
                    self.conflict = type(clause)(tok ^ 1 for tok in clause)
                    return False
                reason = type(clause)(tok ^ 1 for tok in clause if tok != other)
                if not self._assign(other, reason):
                    return False
                i += 1
        return True

    def _flush(self) -> bool:
        """Propagate the trail from ``qhead`` on, in trail order, as
        MiniSat does: a polarity or fact token decrements the premise
        counters of the clauses it gates, all at once so that
        :meth:`_backjump` can restore them from the token alone, and checks
        those it activates; a reachability token closes transitivity and
        antisymmetry around its variable; every token's negation wakes the
        learned clauses that watch it. False on a conflict, with ``qhead``
        past the token that met it."""
        trail = self.trail
        pbase = self.pol_base
        fact_clauses = self.tables.fact_clauses
        cl_missing = self.cl_missing
        while self.qhead < len(trail):
            tok = trail[self.qhead]
            self.qhead += 1
            if tok >= pbase:
                active = []
                for c in fact_clauses[tok]:
                    m = cl_missing[c] - 1
                    cl_missing[c] = m
                    if m == 0:
                        active.append(c)
                for c in active:
                    if not self._check_clause(c):
                        return False
            elif not self._reach_consequences(tok >> 1):
                return False
            if not self._propagate_watches(tok ^ 1):
                return False
        return True

    def _cover(self, threshold: int, end: int) -> _Local:
        """Tokens of ``trail[:end]`` whose conjunction forces every
        completion to cost at least ``threshold``: a greedy cover by the
        costliest cost-bearing ones. The ``offset`` holds unconditionally
        and needs no tokens. A bound conflict is the cover of the whole
        trail, a hardened token's reason that of the trail in front of it."""
        need = threshold - self.offset
        cost_of = self.cost_of
        total = 0
        out: list[int] = []
        costs = (t for t in self.trail[:end] if cost_of[t])
        for tok in sorted(costs, key=lambda t: (-cost_of[t], t)):
            total += cost_of[tok]
            out.append(tok)
            if total >= need:
                break
        return _Local(sorted(out))

    def _harden(self) -> bool:
        """Objective propagation under the incumbent: set false and
        propagate, costliest first from ``scanned``, every open token of
        ``costly`` whose reduced cost reaches the slack ``best_cost -
        cost``, until the slack reaches no open token or is gone. False on
        a conflict."""
        costly, cost_of, assigned = self.costly, self.cost_of, self.assigned
        best = self.best_cost
        i = self.scanned
        while i < len(costly) and self.cost < best:
            tok = costly[i]
            if not assigned[tok >> 1]:
                if cost_of[tok] < best - self.cost:
                    break
                self._assign(tok ^ 1, _Hardened((best - cost_of[tok], len(self.trail))))
                if not self._flush():
                    return False
            i += 1
        self.scanned = i
        return True

    # -- frames / backjumping -------------------------------------------------

    def _push_frame(self) -> None:
        self.frames.append((len(self.trail), self.cost, self.scanned))

    def _backjump(self, target_level: int) -> None:
        """Undo every level above ``target_level`` in one pass."""
        if len(self.frames) <= target_level:
            return
        tlen, self.cost, self.scanned = self.frames[target_level]
        del self.frames[target_level:]
        trail = self.trail
        fact_clauses = self.tables.fact_clauses
        cl_missing = self.cl_missing
        # a reachability token gates no clause, so its entry is empty
        for tok in trail[tlen : self.qhead]:
            for c in fact_clauses[tok]:
                cl_missing[c] += 1
        value = self.value
        act, heap, queued, fbase = self.act, self.heap, self.queued, self.fact_base
        for tok in trail[tlen:]:
            value[tok] = 0
            var = tok >> 1
            if tok < fbase and not queued[var]:
                queued[var] = 1
                heapq.heappush(heap, (-act[var], var))
        del trail[tlen:]
        self.qhead = min(self.qhead, tlen)

    # -- conflict analysis ------------------------------------------------------

    def _resolve(self, tokens, expanded: set):
        """Yield the assignment tokens behind ``tokens``, depth first: each
        fact token not yet in ``expanded`` is resolved through its reason,
        every other token is yielded as it is."""
        fbase = self.fact_base
        reason = self.reason
        stack = list(tokens)
        while stack:
            tok = stack.pop()
            if tok < fbase:
                yield tok
            elif tok not in expanded:
                expanded.add(tok)
                stack.extend(reason[tok >> 1])

    def _collect(self, tokens, seen, lower, conflict_level) -> int:
        """Classify assignment tokens against the conflict level. Returns
        the new at-level count."""
        level = self.level
        added = 0
        for tok in tokens:
            if tok in seen:
                continue
            lvl = level[tok >> 1]
            if lvl == 0:
                continue
            seen.add(tok)
            if lvl >= conflict_level:
                added += 1
            else:
                lower.append(tok ^ 1)
        return added

    def _analyze(self):
        """First-UIP analysis of ``self.conflict``, with every fact token
        resolved away through :meth:`_resolve`.

        Returns (clause, assertion_level) with the asserting token first,
        or None when the conflict reduces to the assumption level (the
        query is exhausted). The clause is a :class:`_Local` when the
        conflict or any reason resolved into it is query-local, else a
        list; derived facts always have logical reasons. Every level above
        the assumption level opens with a decision, so the walk back along
        the trail always meets a unique implication point, and the
        assertion level lies below the conflict level.
        """
        local = type(self.conflict) is _Local
        level = self.level
        expanded: set[int] = set()
        flat = {tok for tok in self._resolve(self.conflict, expanded) if level[tok >> 1] > 0}
        conflict_level = max((level[tok >> 1] for tok in flat), default=0)
        if conflict_level <= self.root:
            return None
        seen: set[int] = set()
        lower: list[int] = []
        counter = self._collect(self._resolve(flat, expanded), seen, lower, conflict_level)
        for uip in reversed(self.trail):
            if uip not in seen or level[uip >> 1] < conflict_level:
                continue
            if counter == 1:
                break
            counter -= 1
            seen.discard(uip)
            reason = self.reason[uip >> 1]
            if type(reason) is _Hardened:
                reason = self._cover(*reason)
            local = local or type(reason) is _Local
            counter += self._collect(self._resolve(reason, expanded), seen, lower, conflict_level)
        assertion = max((level[tok >> 1] for tok in lower), default=0)
        return (_Local if local else list)([uip ^ 1, *lower]), assertion

    def _bump(self, clause) -> None:
        """Raise the activity of the clause's variables; a queued one gets
        a fresh heap entry at its new activity, its old entry goes stale."""
        act, heap, queued = self.act, self.heap, self.queued
        inc = self.act_inc
        for tok in clause:
            var = tok >> 1
            act[var] += inc
            if queued[var]:
                heapq.heappush(heap, (-act[var], var))
        self.act_inc = inc * _ACT_DECAY
        if self.act_inc > _ACT_RESCALE:
            scale = 1.0 / _ACT_RESCALE
            self.act = [a * scale for a in act]
            self.act_inc *= scale
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """One entry at its current activity for every variable of ``order``."""
        act = self.act
        self.heap = [(-act[v], v) for v in self.order]
        heapq.heapify(self.heap)
        self.queued = bytearray(len(self.level))
        for v in self.order:
            self.queued[v] = 1

    def _learn(self, clause: list[int], assertion: int) -> None:
        """Backjump to the assertion level, but no lower than the
        assumption level, and assert the learned clause's first token. A
        clause of two or more tokens is kept, with its two watched tokens
        first, swapped in place as the watches move; a unit clause is not
        kept."""
        self._bump(clause)
        self._backjump(max(self.root, assertion))
        if len(clause) >= 2:
            level = self.level
            clause[1:] = sorted(clause[1:], key=lambda tok: -level[tok >> 1])
            ci = len(self.learned)
            self.learned.append(clause)
            self.watches.setdefault(clause[0], []).append(ci)
            self.watches.setdefault(clause[1], []).append(ci)
        if self._assign(clause[0], type(clause)(tok ^ 1 for tok in clause[1:])):
            self._flush()

    def _drop_local_clauses(self) -> None:
        """Keep the logical learned clauses only and watch them afresh, at
        level 0 before a query or witness poses its assumptions. No learned
        token is assigned at level 0, so the first two tokens of every
        clause are valid watches there."""
        self.learned = [c for c in self.learned if type(c) is list]
        watches = self.watches = {}
        for ci, clause in enumerate(self.learned):
            watches.setdefault(clause[0], []).append(ci)
            watches.setdefault(clause[1], []).append(ci)

    # -- top level ----------------------------------------------------------------

    def _check_time(self) -> None:
        self.nodes += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            bound = None if self.best_snap is None else Weight.finite(self.best_cost)
            raise SolveTimeoutError("search exceeded the time limit", bound)

    def _next_decision(self) -> Optional[int]:
        """Undecided variable with the highest conflict activity; ties fall
        back to the static order, which is ascending. Pops the heap until
        its top is a current entry of an unassigned variable, discarding
        stale entries and those of assigned variables on the way."""
        heap, act, assigned, queued = self.heap, self.act, self.assigned, self.queued
        while heap:
            key, var = heapq.heappop(heap)
            if key == -act[var]:
                queued[var] = 0
                if not assigned[var]:
                    return var
        return None

    def _preferred(self, var: int) -> int:
        """The value in the pinless optimum ``floor_snap``, else the cheaper
        value, ties to false. Level 0 has assigned every variable with a
        forbidden value, so both values are allowed."""
        tok = var * 2
        if self.floor_snap is not None:
            return tok if self.floor_snap[tok] else tok + 1
        return tok if self.cost_of[tok] < self.cost_of[tok + 1] else tok + 1

    def query(self, pins: Sequence[int] = ()):
        """The exact minimum cost under the options' forced features and
        ``pins``, and one optimal snapshot; ``(None, None)`` when no
        completion satisfies them. A snapshot is the ``value`` bytes of the
        reachability and polarity tokens. The first incumbent is the
        cheapest pooled completion that satisfies ``pins``: when it costs
        ``floor`` the query returns it before it backjumps, else it is the
        incumbent of the query's one search. With no such completion, the
        query's incumbents are virtual: it searches in rounds under doubling
        thresholds (module docstring), until a round finds a completion, the
        pins conflict, or a round above ``ceiling`` exhausts. A search
        returns at a completion of cost ``lo``, the floor or the threshold
        of the round before. Raises
        :class:`SolveTimeoutError` once the deadline has passed; its bound
        is the cost of a completion found, never a threshold.
        """
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SolveTimeoutError("search exceeded the time limit", None)
        fits = [e for e in self.pool if all(self.holds(e[1], p) for p in pins)]
        pooled = min(fits, default=(None, None))
        if self.floor is not None and pooled[0] == self.floor:
            return pooled
        if self._assume(pins):
            # The pooled incumbent seeds the bound only; the decisions follow
            # the floor optimum. Following the seeded or each new incumbent's
            # values took (6,1) models 0-5 from 55k to 81-93k nodes and from
            # 2.9 to 5.3-5.6 s of scoring on a 2-core x86-64 host.
            self.best_cost, self.best_snap = pooled
            base = lo = self.offset if self.floor is None else self.floor
            gap = self.excess or (self.cost_of[self.costly[-1]] if self.costly else 0)
            while True:
                threshold = base + 2 * gap + 1
                if self.best_snap is None:
                    self.best_cost = threshold
                self._search(lo)
                if (
                    self.best_snap is not None
                    or threshold > self.ceiling
                    or not self._assume(pins)
                ):
                    break
                lo, gap = threshold, 2 * gap
            if self.best_snap is None:
                self.best_cost = None
            if not pins:
                self.floor, self.floor_snap = self.best_cost, self.best_snap
            elif self.best_cost is not None and self.floor is not None:
                self.excess = max(self.excess, self.best_cost - self.floor)
        return self.best_cost, self.best_snap

    def _assume(self, pins: Sequence[int]) -> bool:
        """Backjump to level 0, drop the query-local clauses, and assert the
        options' forced features and ``pins`` at level 1; False when they
        contradict."""
        self._backjump(0)
        self._drop_local_clauses()
        self.conflict = None
        self.best_cost = self.best_snap = None
        if self.infeasible:
            return False
        self._push_frame()
        return all(self._assign(tok, ()) for tok in (*self.pins, *pins)) and self._flush()

    def witness(self, best: int, cur: bytes) -> bytes:
        """The lexicographically smallest optimum, from ``cur``, an optimal
        snapshot of cost ``best``: every reachability in row-major order,
        then every input triple's polarity, is pinned to its smaller value
        (false, independent) when an optimum under the pins so far allows
        it, else to the other.

        Accepted pins accumulate at level 1. A pin that ``cur`` satisfies
        is asserted there without search. Each other pin is probed at level
        2, the assumption level meanwhile, by a search under the virtual
        incumbent ``best + 1``. Every completion it reaches costs ``best``,
        so it stops at the first, which, optimal under every pin so far,
        enters ``pool`` and becomes ``cur``; then the pin, or its negation
        when there is none, is asserted at level 1. Every probe has the one
        threshold ``best + 1``, so the clauses one probe learns hold in the
        next. Raises :class:`SolveTimeoutError` once the deadline has
        passed, with the assumption level back at 1, and ``RuntimeError``
        when ``best`` is not the minimum: ``cur`` does not cost it, a
        probe's completion costs less, or a pin conflicts at level 1.
        """
        if self.offset + sum(self.cost_of[t] for t in range(self.fact_base) if cur[t]) != best:
            raise RuntimeError(f"the witness start does not cost {best}")
        tab = self.tables
        self._assume(())
        self.root = 2
        try:
            for pin in [var * 2 + 1 for var in tab.lex_vars] + [
                self.pol_base + t * 2 for t in range(len(tab.triples))
            ]:
                if not self.holds(cur, pin):
                    self.best_cost, self.best_snap = best + 1, None
                    self._push_frame()
                    if self._assign(pin, ()) and self._flush():
                        self._search(best)
                    self.conflict = None
                    self._backjump(1)
                    if self.best_snap is None:
                        pin ^= 1
                    elif self.best_cost < best:
                        raise RuntimeError(f"a witness probe costs {self.best_cost}, below {best}")
                    else:
                        cur = self.best_snap
                # cur satisfies the pin and every clause learned so far, so
                # asserting them at level 1 conflicts only when ``best`` is
                # not the minimum
                if not (self._assign(pin, ()) and self._flush()):
                    raise RuntimeError(f"witness pin {pin} conflicts: {best} is not the minimum")
        finally:
            self.root = 1
        return cur

    def _search(self, lo: int) -> None:
        """Search under the incumbent ``best_cost``, real or virtual, down
        to the lower bound ``lo``: return at a completion found at the
        assumption level or of cost ``lo``, or when the search exhausts.
        Each node first hardens, then bound-conflicts once its running cost
        reaches the incumbent's, as does each other completion, the new
        incumbent. Every conflict learns an asserting clause, and no clause
        is deleted within one search, so it terminates."""
        while True:
            self._check_time()
            if self._harden() and self.cost < self.best_cost:
                var = self._next_decision()
                if var is None:
                    self.best_cost = self.cost
                    self.best_snap = bytes(self.value[: self.fact_base])
                    self.pool.append((self.best_cost, self.best_snap))
                    if self.best_cost == lo:
                        return
                else:
                    self._push_frame()
                    if self._assign(self._preferred(var), None) and self._flush():
                        continue
            if self.conflict is None:
                # the running cost reached the incumbent's, a new one's included
                if len(self.frames) == self.root:
                    return
                self.conflict = self._cover(self.best_cost, len(self.trail))
            while self.conflict is not None:
                analyzed = self._analyze()
                if analyzed is None:
                    return
                self.conflict = None
                self._learn(*analyzed)


# ---------------------------------------------------------------------------
# Public API


def solve_min_loss(
    inputs: Sequence,
    n: int,
    options: Optional[SolveOptions] = None,
    build_witness: bool = True,
) -> SolveResult:
    """Exact global minimum of the loss over all consistent joint
    assignments; forced features act as hard constraints.

    The time limit bounds the whole call, compile included. Raises
    :class:`SolveTimeoutError` when it elapses, carrying the best upper
    bound found so far.
    """
    engine = Engine(inputs, n, options)
    best, snap = engine.query()
    if best is None:
        return SolveResult(Weight.hard(), None)
    if not build_witness:
        return SolveResult(Weight.finite(best), None)
    try:
        witness = engine.joint(engine.witness(best, snap))
    except SolveTimeoutError:
        raise SolveTimeoutError(
            "witness reconstruction exceeded the time limit", Weight.finite(best)
        ) from None
    return SolveResult(Weight.finite(best), witness)


def brute_force_min_loss(inputs: Sequence, n: int) -> SolveResult:
    """Independent exhaustive oracle for small instances: every ancestral
    structure crossed with every polarity assignment, filtered by the
    consistency constraints. Same contract as :func:`solve_min_loss`."""
    inputs = list(inputs)
    if n > 4:
        raise ValueError("brute force is limited to n <= 4")
    if len(inputs) > 16:
        raise ValueError("brute force is limited to 16 inputs")
    triples, tri_cost, cost_true, cost_false = _input_costs(inputs, n)
    k = len(triples)

    structures = sorted(enumerate_ancestral_structures(n), key=lambda s: s.key())
    anc_cost: list[Optional[int]] = []
    for s in structures:
        total: Optional[int] = 0
        for x in range(n):
            for y in range(n):
                if x == y or total is None:
                    continue
                c = cost_true[x * n + y] if s.reach(x, y) else cost_false[x * n + y]
                total = None if c is None else total + c
        anc_cost.append(total)

    best = None
    best_joint = None
    for bits in range(1 << k):
        flip = 0
        truth: dict[Triple, object] = {}
        ci_key = []
        feasible = True
        for i, t in enumerate(triples):
            pol = (bits >> (k - 1 - i)) & 1
            c = tri_cost[i][pol]
            if c is None:
                feasible = False
                break
            flip += c
            truth[t] = INDEP if pol == 0 else DEP
            ci_key.append(pol)
        if not feasible:
            continue
        if best is not None and flip > best[0]:
            continue
        g = ground([(t, p) for t, p in truth.items()], n)
        if any((t, p.flipped()) in g.facts for t, p in truth.items()):
            continue
        for s, anc in zip(structures, anc_cost):
            if anc is None:
                continue
            total = flip + anc
            if best is not None and (total, s.key(), ci_key) >= best:
                continue
            if all(clause_holds(c, s) for c in g.clauses):
                best = (total, s.key(), list(ci_key))
                best_joint = JointAssignment(s, CiAssignment(dict(truth)))
    if best is None:
        return SolveResult(Weight.hard(), None)
    return SolveResult(Weight.finite(best[0]), best_joint)
