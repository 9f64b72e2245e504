"""Exact minimization of the weighted-violation loss over joint assignments.

The search is conflict-driven: every propagated assignment carries a
reason, logical conflicts are analyzed to a first-unique-implication-point
clause, and bound prunes and accepted solutions are turned into cost-core
nogoods (the cost-bearing assignments that already force the total to the
threshold), so every dead end backjumps with a recorded clause and is never
re-refuted. Analysis treats every token alike, as textbook first-UIP
analysis does, so learned clauses range over reachability, polarity and
derived-fact tokens: a learned clause may set a fact false, and a
derivation of that fact is then a conflict. Nogoods learned under one
incumbent stay valid as the incumbent tightens, so the minimum is exact.

Reachability, polarity and derived-fact variables share one numbering, so
the assignment state is kept once, in MiniSat's layout (Een & Sorensson
2003): one value byte per token, one level and one reason per variable,
and one trail that undoes them all and, read from one head, queues their
propagation. Each fact has one variable: the two facts of an input triple
are the two values of its polarity variable, and only the facts of other
triples get fact variables of their own.

Propagation interleaves three mechanisms. One table of gated clauses
propagates each clause once all its gate tokens are true: a rule instance
is a clause gated by its premises whose one literal is its conclusion
fact, a structural constraint one over reachability variables, and a
partial-order axiom (antisymmetry, transitivity or one of its two
contrapositives) a one-literal clause gated by reachability tokens, so
that every completion's structure is a partial order. One index finds
them: every trail token, whatever set it, wakes the clauses it can fire
through one list, as MiniSat processes every token the same way. A gate
token wakes the clauses it gates, a reachability token also the clauses
of two or more literals that its value falsifies, and a woken clause
fires once all its gate tokens lie no later on the trail, which the trail
index of each true token tells: the gated clauses keep no counters, and
backjumping restores nothing for them, as Chaff's lazy clause state costs
nothing on backtrack (Moskewicz et al. 2001). A one-literal clause
asserts its literal with its gate as reason when it activates; a longer
one is checked then and again only when one of its literals becomes
false, as Chaff visits a clause. Learned clauses propagate through two
watched tokens, swapped in place as the watches move. One loop runs these
two and makes every assignment they imply itself, with the assignment
state in locals, as MiniSat's propagation loop does. The lower bound is
the running cost alone: compilation pays each reachability variable's
cheaper allowed value into a constant ``offset``, so each value costs only
its excess over that (the unary cost shift of weighted CSP, Cooper &
Schiex 2004), and the running cost, ``offset`` plus the reduced costs
assigned so far, bounds every completion below the node; undecided
polarities are treated optimistically, so the bound is admissible. It also
propagates: under an incumbent, every open token whose reduced cost
reaches the slack, the incumbent's cost less the running cost, is set
false: the hardening of weighted MaxSAT (Ansotegui et al. 2012), applied
at every node. Its reason is the bound cover of the cost-bearing tokens in
front of it on the trail, which is query-local and built only when
conflict analysis resolves it.

Compilation has two layers. The grounding of n variables and a triple set
(fact universe, one gated-clause table and its index) does not depend
on weights or polarities, so it is memoised per (n, triple set) and shared
by every input list over that set, as when many models are scored at one
(n, max order). Each input list adds its costs, its decision order and one
incremental engine. A hard input forbids one value of its variable: the
engine asserts the other value at level 0 and propagates it once there, so
two contradicting hard inputs conflict like any two assignments, and the
forbidden value, never taken, costs 0. The hard tokens lead the level-0
trail in ascending order, so a gate set can fire only from the last of its
tokens there, and each hard token wakes only the entries it closes, a
per-token subset of the index built with it; a token that propagation adds
wakes its full list, so the level-0 trail is the one the full index gives.
A query pin whose negation level 0 holds is answered infeasible at once.

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
becomes the incumbent and enters the pool, which is kept in ascending
``(cost, snapshot)`` order. A completion's cost does not depend on the
pins, so the cheapest pooled completion that satisfies a query's pins, the
first that does, is a feasible incumbent for it, an upper bound on its
minimum. Pins only remove completions, so the pinless query's minimum is a
floor under every later one, and a query stops once its incumbent reaches
it, a pooled one included. A query that no pooled completion satisfies,
the pinless one included, searches instead in rounds under rising
thresholds, as in progression-based MaxSAT (Ignatiev et al. 2014). Each
round's incumbent is virtual, of cost ``base + 2 * gap + 1`` and no
completion, where ``base`` is the floor, or ``offset`` before there is
one, and ``gap`` starts at ``excess``, the largest gap between a finished
pinned minimum and the floor, or while that is 0 at the smallest positive
reduced cost (0 when there is none). Thresholds only fall, so a completion
found under one continues the same search to the minimum. A round that
exhausts proves the minimum at least its threshold, which becomes the next
round's lower bound ``lo``, and ``gap`` doubles. A threshold above
``ceiling``, the cost of the costliest completion, prunes no completion,
so exhausting it proves the query infeasible. On an instance without a
cost-bearing token every completion costs ``offset`` and ``ceiling`` is
``offset``, so its one round, at ``base + 1``, always ends the loop.

Branching is VSIDS (Moskewicz et al. 2001): each decision takes the open
reachability or polarity variable of highest conflict activity, ties to
the lowest index, popped from a binary heap as in MiniSat, so every
completion assigns every such variable. Its value is the pinless
optimum's once there is one, else the cheaper one, ties to false. On an
instance without a cost-bearing token, every completion is optimal and a
pinned search ends at its first, so a decision there takes the value that
no pooled completion has, and the pinless optimum's only once both values
are pooled: each search then tends to end at a completion unlike those
pooled, which answers more of the later pins. The search never restarts.

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
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ancestral.core import AncestralStructure, AncStatement, Ancestry, CiStatement, Weight
from ancestral.rules import DEP, INDEP, CiAssignment, JointAssignment, Triple, ground

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
    """The sorted input triples and ``full[tok]``, the cost of making each
    reachability and polarity token true (see :class:`Engine`): the summed
    weights of the inputs that it violates, ``None`` where a hard input
    forbids it."""
    full: list = [0] * (2 * n * n)
    tri_costs: dict[Triple, list] = {}
    for item in inputs:
        stmt = item.statement
        if isinstance(stmt, CiStatement):
            if stmt.y >= n or stmt.cond >> n:
                raise ValueError(f"statement {stmt} references variables >= n={n}")
            costs = tri_costs.setdefault(stmt.triple, [0, 0])
            tok = 0 if stmt.polarity is DEP else 1
        elif isinstance(stmt, AncStatement):
            if stmt.cause >= n or stmt.effect >= n:
                raise ValueError(f"statement {stmt} references variables >= n={n}")
            costs = full
            tok = 2 * (stmt.cause * n + stmt.effect) + (stmt.polarity is Ancestry.CAUSES)
        else:
            raise TypeError(f"unsupported statement type {type(stmt)!r}")
        if item.weight.is_hard:
            costs[tok] = None
        elif costs[tok] is not None:
            costs[tok] += item.weight.millis
    triples = sorted(tri_costs)
    for t in triples:
        full += tri_costs[t]
    return triples, full


class _Tables:
    """Input-independent grounding for n variables and a sorted triple
    set, all tuples: the fact universe (both polarities of every triple)
    and one table of gated clauses, each active once all its gate tokens
    are true, with its index. A rule instance of :func:`ground` is a
    clause gated by its premises whose one literal is its conclusion
    fact; a structural constraint is one over reachability tokens, of one
    literal or more. The partial-order axioms follow the grounding, for
    each ordered pair x != y in row-major order: antisymmetry, ``x->y``
    gating ``not y->x``, then for each z outside {x, y} in ascending
    order transitivity, ``x->y`` and ``y->z`` gating ``x->z``, and its two
    contrapositives, ``x->y`` and ``not x->z`` gating ``not y->z``, and
    ``y->z`` and ``not x->z`` gating ``not x->y``: one-literal clauses
    gated by reachability tokens. Built once per key by :func:`_tables`
    and shared read-only by every engine. Facts, gates and literals are
    engine tokens (see :class:`Engine`), the two facts of an input triple
    being its two polarity tokens; ``nfacts`` counts the other facts.

    The one index ``wakes[tok]`` lists the ``(h, k, clauses)`` entries
    that token ``tok`` wakes once it is true; they fire when ``h`` and
    ``k`` are true no later on the trail. A gate token, the reachability
    tokens of the axioms included, has one entry per gate set that holds
    it: ``clauses`` is the ascending tuple of every clause gated by that
    set, shared by all its tokens, and ``h`` and ``k`` are the set's other
    tokens, padded with ``tok`` itself. A reachability token also has one
    entry ``(g, h, (clause,))`` per clause of two or more literals that
    contains ``tok ^ 1``, which it can make unit or falsify, with ``g`` and
    ``h`` the clause's gate tokens (equal when it has one), shared by all
    its literals. Raises ``ValueError`` when a clause has no gate token or
    more than the index handles: three, or two for a clause of two or more
    literals.

    ``closes[tok]`` keeps the entries of ``wakes[tok]``, in their order,
    whose ``h`` and ``k`` are at most ``tok``: those that ``tok`` closes,
    being the largest token they need true. While a prefix of the trail
    holds distinct tokens in ascending order, as the hard inputs' tokens
    at level 0 do, an entry of one of them can fire only if it closes it;
    every other entry fires later, from its largest token."""

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
        gated = [(tuple(fact_tok[f] for f in prem), lits) for prem, lits in gated]
        # the partial-order axioms, last, so the grounded clauses keep
        # their indices
        for x, y in itertools.permutations(range(n), 2):
            xy = 2 * (x * n + y)
            gated.append(((xy,), (2 * (y * n + x) + 1,)))
            for z in range(n):
                if z != x and z != y:
                    yz, xz = 2 * (y * n + z), 2 * (x * n + z)
                    gated += [
                        ((xy, yz), (xz,)),
                        ((xy, xz + 1), (yz + 1,)),
                        ((yz, xz + 1), (xy + 1,)),
                    ]
        self.cl_gate_toks = tuple(gate for gate, _ in gated)
        self.cl_lits = tuple(lits for _, lits in gated)
        # the grounding is not needed past here; dropping it first keeps the
        # build's peak memory down
        del g, gated
        # one clause tuple per gate set, shared by the entries of all its
        # gate tokens, and one entry per clause of two or more literals,
        # shared by all its literals, keep the index small
        wakes: list[list[tuple]] = [[] for _ in range(self.fact_base + 2 * self.nfacts)]
        by_gate: dict[tuple[int, ...], list[int]] = {}
        for ci, gate in enumerate(self.cl_gate_toks):
            toks = tuple(sorted(set(gate)))
            lits = self.cl_lits[ci]
            if not 0 < len(toks) <= (3 if len(lits) == 1 else 2):
                raise ValueError(f"gated clause {ci} has {len(toks)} gate tokens")
            by_gate.setdefault(toks, []).append(ci)
            if len(lits) > 1:
                entry = (toks[0], toks[-1], (ci,))
                for tok in set(lits):
                    wakes[tok ^ 1].append(entry)
        for toks, cs in by_gate.items():
            cs = tuple(cs)
            for tok in toks:
                h, k = [t for t in toks if t != tok] + [tok] * (3 - len(toks))
                wakes[tok].append((h, k, cs))
        self.wakes = tuple(map(tuple, wakes))
        self.closes = tuple(
            tuple(e for e in ws if e[0] <= tok and e[1] <= tok) for tok, ws in enumerate(self.wakes)
        )
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
# the ``at`` of a token that is not true: beyond every trail index
_NEVER = sys.maxsize


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
    order, and propagates them once there, each of those tokens waking
    only its ``closes`` entries of the tables; ``infeasible`` is set when
    they contradict there. Level 0 never changes after that. Each
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
    its two polarity tokens, so they are each other's negation. A token
    from ``fact_base`` on is made true by a gated clause that derives its
    fact; a learned clause may assert either value of a fact, and its
    negation wakes no gated clause, so a false fact acts only when a
    derivation of it conflicts. Fact variables are never decided. A pin is
    a reachability or polarity token. ``value`` holds one byte per token,
    set while the token is true; ``level`` and ``reason`` hold one entry
    per variable; ``trail`` is the one undo log of assigned
    tokens and the propagation queue: the tokens in front of ``qhead``
    have been propagated, those behind it wait for :meth:`_flush`, and
    ``at[tok]`` is the trail index of each true token, ``_NEVER`` for the
    others, so a gated clause is active once every gate token of it has
    ``at`` below ``qhead``, and the token at trail index ``p`` fires the
    clauses it wakes whose gate tokens all have ``at`` at most ``p``.
    ``cost`` is the running cost, ``offset`` plus the reduced costs of the
    trail's tokens and the search's only lower bound; bound nogoods read
    its cost-bearing tokens off the trail.

    ``costly`` lists the cost-bearing tokens by ``(-cost_of, token)``, and
    every token in front of ``scanned`` is assigned; each frame saves
    ``scanned``, so a pass of :meth:`_harden` scans only the tokens that
    the slack newly reaches.
    ``pool`` holds the ``(cost, snapshot)`` of every completion that a
    search accepted, in ascending order, and ``covered`` their union as
    one int, bit ``8 * tok`` set when a pooled completion holds token
    ``tok``. ``floor`` and ``floor_snap`` are the pinless query's minimum
    and optimum, whose values later decisions take (see
    :meth:`_preferred`), and ``excess`` the largest ``minimum - floor`` of
    the pinned queries finished so far, a query's first threshold gap
    unless it is 0. ``nodes`` counts the search nodes and ``searches`` the
    calls of :meth:`_search`: progression rounds, searches under a pooled
    incumbent and witness probes.
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

        triples, full = _input_costs(inputs, n)
        self.tables = tab = _tables(n, tuple(triples))
        n2 = n * n
        nvars = n2 + len(triples) + tab.nfacts
        self.pol_base = tab.pol_base
        self.fact_base = tab.fact_base
        # each reachability variable pays its cheaper allowed value into
        # ``offset``, and its tokens keep the excess over that
        shift = [
            min((c for c in full[2 * v : 2 * v + 2] if c is not None), default=0)
            for v in range(n2)
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
        self.at = [_NEVER] * (2 * nvars)
        self.trail: list[int] = []
        self.qhead = 0
        self.frames: list[tuple] = []
        self.cost = self.offset
        self.nodes = 0
        self.searches = 0
        self.conflict = None
        self.learned: list[list[int]] = []
        self.watches: dict[int, list[int]] = {}
        self.act = [0.0] * nvars
        self.act_inc = 1.0
        self.best_cost: Optional[int] = None
        self.best_snap = None
        self.pool: list[tuple[int, bytes]] = []
        self.covered = 0
        self.floor: Optional[int] = None
        self.floor_snap = None
        self.excess = 0
        self.root = 1
        required = [tok ^ 1 for tok, c in enumerate(full) if c is None]
        # the required tokens lead the trail in ascending order, so each
        # fires only the entries it closes (see _Tables)
        wakes = list(tab.wakes)
        for tok in required:
            wakes[tok] = tab.closes[tok]
        self.infeasible = not (all(self._assign(tok, ()) for tok in required) and self._flush(wakes))
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
        self.at[tok] = len(self.trail)
        self.trail.append(tok)
        self.cost += self.cost_of[tok]
        return True

    def _flush(self, wakes=None) -> bool:
        """Propagate the trail from ``qhead`` on, in trail order, as
        MiniSat does, every token the same way, making every implied
        assignment itself. The token at trail index ``p`` wakes the entries
        ``(h, k, clauses)`` of ``wakes[tok]`` with ``at[h]`` and ``at[k]``
        at most ``p``, and settles the clauses they hold in clause order: a
        one-literal clause, a partial-order axiom included, asserts its
        literal with its gate as reason, and a longer one whose literals
        are all false but one asserts that one, its gate and the negated
        false literals its reason; a clause with every literal false is a
        conflict. Last, its negation wakes the learned clauses that watch
        it, each moving that watch to an open token or asserting its other
        watch. Every reason and conflict keeps its clause's kind: a gate
        tuple, a logical list or a query-local :class:`_Local`. False on a
        conflict, with ``qhead`` past the token that met it. ``wakes`` is
        the tables' index unless given: compile's level-0 flush gives a
        copy in which each hard token's list is its ``closes``."""
        trail, value, at, cost_of = self.trail, self.value, self.at, self.cost_of
        level, reason = self.level, self.reason
        watches, learned = self.watches, self.learned
        tab = self.tables
        wakes = tab.wakes if wakes is None else wakes
        cl_lits, cl_gate_toks = tab.cl_lits, tab.cl_gate_toks
        lvl = len(self.frames)
        qhead, cost = self.qhead, self.cost
        while qhead < len(trail):
            p = qhead
            tok = trail[p]
            qhead = p + 1
            fired = []
            for h, k, cs in wakes[tok]:
                if at[h] <= p and at[k] <= p:
                    fired += cs
            fired.sort()
            for c in fired:
                lits = cl_lits[c]
                if len(lits) == 1:
                    lit = lits[0]
                    if value[lit]:
                        continue
                    why = cl_gate_toks[c]
                    if value[lit ^ 1]:
                        self.conflict = why + (lit ^ 1,)
                        self.qhead, self.cost = qhead, cost
                        return False
                else:
                    # the one open literal, unless one is true or two are open
                    lit = why = None
                    for t in lits:
                        if not value[t ^ 1]:
                            if lit is not None or value[t]:
                                break
                            lit = t
                    else:
                        if lit is None:
                            self.conflict = cl_gate_toks[c] + tuple(t ^ 1 for t in lits)
                            self.qhead, self.cost = qhead, cost
                            return False
                        why = cl_gate_toks[c] + tuple(t ^ 1 for t in lits if t != lit)
                    if why is None:
                        continue
                value[lit] = 1
                var = lit >> 1
                level[var] = lvl
                reason[var] = why
                at[lit] = len(trail)
                trail.append(lit)
                cost += cost_of[lit]
            falsified = tok ^ 1
            wl = watches.get(falsified)
            if not wl:
                continue
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
                    t = clause[j]
                    if not value[t ^ 1]:
                        # watch t in place of the falsified token
                        clause[pos], clause[j] = t, falsified
                        watches.setdefault(t, []).append(ci)
                        wl[i] = wl[-1]
                        wl.pop()
                        break
                else:
                    if value[other ^ 1]:
                        self.conflict = type(clause)(t ^ 1 for t in clause)
                        self.qhead, self.cost = qhead, cost
                        return False
                    value[other] = 1
                    var = other >> 1
                    level[var] = lvl
                    reason[var] = type(clause)(t ^ 1 for t in clause if t != other)
                    at[other] = len(trail)
                    trail.append(other)
                    cost += cost_of[other]
                    i += 1
        self.qhead, self.cost = qhead, cost
        return True

    def _cover(self, threshold: int, end: int) -> _Local:
        """Tokens of ``trail[:end]`` whose conjunction forces every
        completion to cost at least ``threshold``: a greedy cover by the
        costliest cost-bearing ones, taken off ``costly`` in its ``(-cost,
        token)`` order. The ``offset`` holds unconditionally and needs no
        tokens. A bound conflict is the cover of the whole trail, a
        hardened token's reason that of the trail in front of it."""
        need = threshold - self.offset
        cost_of, at = self.cost_of, self.at
        total = 0
        out: list[int] = []
        for tok in self.costly:
            if at[tok] < end:
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
        """Undo every level above ``target_level`` in one pass over the
        undone tokens: each one's value and trail index, and the decision
        heap entry of each undone reachability or polarity variable. The
        gated clauses keep no state to restore."""
        if len(self.frames) <= target_level:
            return
        tlen, self.cost, self.scanned = self.frames[target_level]
        del self.frames[target_level:]
        trail = self.trail
        value, at = self.value, self.at
        act, heap, queued, fbase = self.act, self.heap, self.queued, self.fact_base
        for tok in trail[tlen:]:
            value[tok] = 0
            at[tok] = _NEVER
            var = tok >> 1
            if tok < fbase and not queued[var]:
                queued[var] = 1
                heapq.heappush(heap, (-act[var], var))
        del trail[tlen:]
        self.qhead = min(self.qhead, tlen)

    # -- conflict analysis ------------------------------------------------------

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
        """First-UIP analysis of ``self.conflict``, every token alike: the
        unique implication point may be a derived fact's token, and the
        clause may hold fact tokens.

        Returns (clause, assertion_level) with the asserting token first,
        or None when the conflict reduces to the assumption level (the
        query is exhausted). The clause is a :class:`_Local` when the
        conflict or any reason resolved into it is query-local, else a
        list. Every level above the assumption level opens with a
        decision, so the walk back along the trail always meets a unique
        implication point, and the assertion level lies below the conflict
        level.
        """
        local = type(self.conflict) is _Local
        level = self.level
        conflict_level = max((level[tok >> 1] for tok in self.conflict), default=0)
        if conflict_level <= self.root:
            return None
        seen: set[int] = set()
        lower: list[int] = []
        counter = self._collect(self.conflict, seen, lower, conflict_level)
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
            counter += self._collect(reason, seen, lower, conflict_level)
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
        value, ties to false. On an instance without a cost-bearing token,
        where every completion is optimal, the value that no pooled
        completion has comes first: the floor optimum's only when both
        are pooled. Level 0 has assigned every variable with a forbidden
        value, so both values are allowed."""
        tok = var * 2
        if self.floor_snap is None:
            return tok if self.cost_of[tok] < self.cost_of[tok + 1] else tok + 1
        kept = tok if self.floor_snap[tok] else tok + 1
        if not self.costly and not self.covered >> 8 * (kept ^ 1) & 1:
            return kept ^ 1
        return kept

    def query(self, pins: Sequence[int] = ()):
        """The exact minimum cost under the options' forced features and
        ``pins``, and one optimal snapshot; ``(None, None)`` when no
        completion satisfies them. A snapshot is the ``value`` bytes of the
        reachability and polarity tokens. A pin whose negation level 0
        holds gets ``(None, None)`` at once, before the pool scan and the
        backjump: every completion extends level 0, and the next query's
        backjump and clause rebuild are those this one would have made, so
        no later answer or node count moves. The first incumbent is the
        cheapest pooled completion that satisfies ``pins``, ties to the
        smaller snapshot: the first that does in the pool's order. When it costs
        ``floor`` the query returns it before it backjumps, else it is the
        incumbent of the query's one search. With no such completion, the
        query's incumbents are virtual: it searches in rounds under doubling
        thresholds (module docstring), until a round finds a completion, the
        pins conflict, or a round above ``ceiling`` exhausts. A search returns
        at a completion of cost ``lo``, the floor or the threshold of the
        round before. Raises :class:`SolveTimeoutError` once the deadline has
        passed; its bound is the cost of a completion found, never a
        threshold.
        """
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SolveTimeoutError("search exceeded the time limit", None)
        value, level = self.value, self.level
        if any(value[p ^ 1] and level[p >> 1] == 0 for p in pins):
            return None, None
        pooled = next((e for e in self.pool if all(e[1][p] for p in pins)), (None, None))
        if self.floor is not None and pooled[0] == self.floor:
            return pooled
        if self._assume(pins):
            # The pooled incumbent seeds the bound only; the decisions follow
            # the floor optimum (or, without cost-bearing tokens, the pool's
            # gaps: see _preferred). Following the seeded or each new
            # incumbent's values took (6,1) models 0-5 from 55k to 81-93k
            # nodes and from 2.9 to 5.3-5.6 s of scoring on a 2-core x86-64
            # host.
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
        self.searches += 1
        while True:
            self._check_time()
            if self._harden() and self.cost < self.best_cost:
                var = self._next_decision()
                if var is None:
                    self.best_cost = self.cost
                    self.best_snap = bytes(self.value[: self.fact_base])
                    bisect.insort(self.pool, (self.best_cost, self.best_snap))
                    self.covered |= int.from_bytes(self.best_snap, "little")
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
