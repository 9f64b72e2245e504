"""Exact minimization of the weighted-violation loss over joint assignments.

The search is conflict-driven: every propagated assignment carries a
reason, logical conflicts are analyzed to a first-unique-implication-point
clause, and bound prunes and accepted solutions are turned into cost-core
nogoods (the cost-bearing assignments that already force the total to the
threshold), so every dead end backjumps with a recorded clause and is never
re-refuted. Learned clauses range over structure and polarity assignment
tokens only; derived facts are resolved away through the rule instances
that fired them. Nogoods learned under one incumbent stay valid as the
incumbent tightens, so the minimum is exact.

Propagation interleaves four mechanisms: rule instances fire as soon as
all premises are present; gated structural constraints unit-propagate over
reachability variables; transitivity and antisymmetry are kept closed
after every structure assignment; and learned clauses propagate through
two watched tokens. The lower bound is the cost already paid plus the
unavoidable minima of undecided ancestral-cost variables; undecided
polarities are treated optimistically, so the bound is admissible.

Compilation has two layers. The grounding of n variables and a triple set
(fact universe, rule instances, gated clauses and their indexes) does not
depend on weights or polarities, so it is memoised per (n, triple set) and
shared by every input list over that set, as when many models are scored
at one (n, max order). Each input list adds its costs, its decision order
and a level-0 root state in which its hard inputs are asserted and
propagated once. Every search (base solve, forced solve or witness query)
starts from a copy of that root and asserts only its own pins.

Determinism: decision activities, value preferences and all tie-breaks are
deterministic, so identical inputs produce identical results. The reported
witness is the lexicographically smallest optimum (row-major reachability
bits, then polarity bits of the sorted input triples with independent <
dependent), built by pinning variables one at a time with bound-tight
feasibility queries.

``brute_force_min_loss`` is the independent oracle: exhaustive enumeration
of all ancestral structures and polarity assignments filtered through the
consistency constraints.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

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
# Instance compilation: shared tables per (n, triple set), then per input
# list the costs and the propagated root state


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


def _pair_min(a, b):
    if a is None and b is None:
        return None
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class _Tables:
    """Input-independent grounding for n variables and a sorted triple
    set: fact universe (both polarities of every triple), rule instances,
    gated clauses and their indexes, all tuples. Built once per key by
    :func:`_tables` and shared read-only by every instance and search."""

    def __init__(self, n: int, triples: tuple[Triple, ...]):
        self.triples = triples
        self.pol_base = 2 * n * n
        self.fact_base = self.pol_base + 2 * len(triples)

        seeds = [(t, INDEP) for t in triples] + [(t, DEP) for t in triples]
        g = ground(seeds, n)
        facts = sorted(g.facts, key=lambda f: (f[0], _POL_INDEX[f[1]]))
        fact_id = {f: i for i, f in enumerate(facts)}
        self.nfacts = len(facts)
        self.fact_pol = tuple(_POL_INDEX[f[1]] for f in facts)
        tri_index = {t: i for i, t in enumerate(triples)}
        self.fact_tri = tuple(tri_index.get(f[0], -1) for f in facts)
        self.tri_fact = tuple((fact_id[(t, INDEP)], fact_id[(t, DEP)]) for t in triples)

        inst_premises = [tuple(fact_id[p] for p in r.premises) for r in g.derivations]
        self.inst_concl = tuple(fact_id[r.conclusion] for r in g.derivations)
        self.inst_npremises = tuple(len(p) for p in inst_premises)
        self.inst_reason = tuple(
            tuple(self.fact_base + p for p in prem) for prem in inst_premises
        )
        fact_insts: list[list[int]] = [[] for _ in range(self.nfacts)]
        for i, prem in enumerate(inst_premises):
            for f in set(prem):
                fact_insts[f].append(i)
        self.fact_insts = tuple(tuple(v) for v in fact_insts)

        self.cl_lits = tuple(
            tuple((lit[0], lit[1] * n + lit[2]) for lit in c.literals) for c in g.clauses
        )
        self.cl_gate_toks = tuple(
            tuple(self.fact_base + fact_id[f] for f in c.premises) for c in g.clauses
        )
        self.cl_npremises = tuple(len(c.premises) for c in g.clauses)
        fact_clauses: list[list[int]] = [[] for _ in range(self.nfacts)]
        var_clauses: list[list[int]] = [[] for _ in range(n * n)]
        for ci, c in enumerate(g.clauses):
            for f in set(c.premises):
                fact_clauses[fact_id[f]].append(ci)
            for _, var in set(self.cl_lits[ci]):
                var_clauses[var].append(ci)
        self.fact_clauses = tuple(tuple(v) for v in fact_clauses)
        self.var_clauses = tuple(tuple(v) for v in var_clauses)
        self.lex_vars = tuple(x * n + y for x in range(n) for y in range(n) if x != y)


@functools.lru_cache(maxsize=8)
def _tables(n: int, triples: tuple[Triple, ...]) -> _Tables:
    """The grounding of one (n, triple set), memoised: experiments score
    many models per (n, max order) over one triple set, so only the first
    model of a process pays for it."""
    return _Tables(n, triples)


class _RootState(NamedTuple):
    """The level-0 search state of one input list, immutable; a search
    copies it into mutable form."""

    fact_present: bytes
    pol_state: bytes
    reach_state: bytes
    fact_reason: tuple
    pol_reason: tuple
    reach_reason: tuple
    inst_missing: tuple
    cl_missing: tuple
    assign_trail: tuple
    cost_items: tuple
    cost: int
    residual: int


class _Compiled:
    """One input list over the shared tables of its (n, triple set): the
    costs, the decision order and the level-0 root state, in which the hard
    inputs are asserted and propagated once. Every search starts from a
    copy of the root; ``infeasible`` is set when the hard inputs contradict
    at level 0."""

    def __init__(self, inputs, n: int):
        self.n = n
        triples, tri_cost, cost_true, cost_false = _input_costs(inputs, n)
        self.tables = tab = _tables(n, tuple(triples))
        self.tri_cost = tri_cost
        self.cost_true = cost_true
        self.cost_false = cost_false
        self.var_min = [_pair_min(cost_true[v], cost_false[v]) for v in range(n * n)]

        dec_vars = sorted(
            v
            for v in range(n * n)
            if v // n != v % n
            and (tab.var_clauses[v] or cost_true[v] != 0 or cost_false[v] != 0)
        )
        self.order = [(1, v) for v in dec_vars] + [(0, t) for t in range(len(triples))]
        var_min_total = sum(
            self.var_min[x * n + y] or 0
            for x in range(n)
            for y in range(n)
            if x != y and self.var_min[x * n + y] is not None
        )

        # the root starts empty; propagating the hard inputs replaces it
        self.infeasible = False
        self.root = _RootState(
            bytes(tab.nfacts),
            bytes(len(triples)),
            bytes(n * n),
            ((),) * tab.nfacts,
            ((),) * len(triples),
            ((),) * (n * n),
            tab.inst_npremises,
            tab.cl_npremises,
            (),
            (),
            0,
            var_min_total,
        )
        search = _Search(self)
        if search._assert_hard_inputs() and search._flush():
            self.root = search._state()
        else:
            self.infeasible = True

# ---------------------------------------------------------------------------
# Search engine

(
    _KIND_FACT,
    _KIND_POL,
    _KIND_REACH,
    _KIND_INST,
    _KIND_CLAUSE,
) = range(5)
_TIMEOUT_CHECK_INTERVAL = 64
_ACT_DECAY = 1.0 / 0.95
_ACT_RESCALE = 1e100


class _Search:
    """One conflict-driven run over a compiled instance. It starts from a
    copy of the instance's root state, adds its pins at level 0 and runs
    once; the run leaves the state where it ended.

    Token encoding: the assignment reach(var)=val is ``var * 2`` when val
    is true, ``var * 2 + 1`` when false; the polarity assignment (t, pol)
    is ``pol_base + t * 2 + pol``; a present derived fact f is
    ``fact_base + f``. Negating an assignment token flips its low bit;
    fact tokens are never negated and never enter learned clauses.
    """

    def __init__(self, comp: _Compiled, pins=(), deadline=None, phase=None, act0=None):
        self.comp = comp
        self.tab = tab = comp.tables
        self.pins = pins
        self.deadline = deadline
        self.phase = phase
        n2 = comp.n * comp.n
        ntri = len(tab.triples)
        self.pol_base = tab.pol_base
        self.fact_base = tab.fact_base
        root = comp.root
        self.fact_present = bytearray(root.fact_present)
        self.pol_state = bytearray(root.pol_state)
        self.reach_state = bytearray(root.reach_state)
        # every root assignment is at level 0
        self.fact_level = [0] * tab.nfacts
        self.pol_level = [0] * ntri
        self.reach_level = [0] * n2
        self.fact_reason = list(root.fact_reason)
        self.pol_reason = list(root.pol_reason)
        self.reach_reason = list(root.reach_reason)
        self.inst_missing = list(root.inst_missing)
        self.cl_missing = list(root.cl_missing)
        # level-0 entries are never undone, so the trail starts empty
        self.trail: list[tuple] = []
        self.assign_trail = list(root.assign_trail)
        self.frames: list[tuple] = []
        self.decisions: list[int] = []
        self.qf: list[int] = []
        self.qr: list[int] = []
        self.qw: list[int] = []
        self.cost_items: list[tuple[int, int]] = list(root.cost_items)
        self.cost = root.cost
        self.residual = root.residual
        self.nodes = 0
        self.conflict: Optional[list[int]] = None
        self.learned: list[tuple[int, ...]] = []
        self.watches: dict[int, list[int]] = {}
        self.act = list(act0) if act0 is not None else [0.0] * (n2 + ntri)
        self.act_inc = 1.0
        self.best_cost: Optional[int] = None
        self.best_snap = None

    def _state(self) -> _RootState:
        """The current state, taken at level 0 with nothing queued."""
        assert not self.decisions and not (self.qf or self.qr or self.qw)
        return _RootState(
            bytes(self.fact_present),
            bytes(self.pol_state),
            bytes(self.reach_state),
            tuple(self.fact_reason),
            tuple(self.pol_reason),
            tuple(self.reach_reason),
            tuple(self.inst_missing),
            tuple(self.cl_missing),
            tuple(self.assign_trail),
            tuple(self.cost_items),
            self.cost,
            self.residual,
        )

    @property
    def level(self) -> int:
        return len(self.decisions)

    # -- token helpers ------------------------------------------------------

    def _token_level(self, tok: int) -> int:
        if tok >= self.fact_base:
            return self.fact_level[tok - self.fact_base]
        if tok >= self.pol_base:
            return self.pol_level[(tok - self.pol_base) >> 1]
        return self.reach_level[tok >> 1]

    def _token_reason(self, tok: int):
        if tok >= self.fact_base:
            return self.fact_reason[tok - self.fact_base]
        if tok >= self.pol_base:
            return self.pol_reason[(tok - self.pol_base) >> 1]
        return self.reach_reason[tok >> 1]

    # -- state updates (queue consequences; conflicts set self.conflict) ----

    def _set_fact(self, f: int, reason) -> bool:
        if self.fact_present[f]:
            return True
        self.fact_present[f] = 1
        self.fact_level[f] = len(self.decisions)
        self.fact_reason[f] = reason
        self.trail.append((_KIND_FACT, f))
        self.qf.append(f)
        return True

    def _set_pol(self, t: int, pol: int, reason) -> bool:
        st = self.pol_state[t]
        if st:
            if st - 1 == pol:
                return True
            self.conflict = list(reason) + [self.pol_base + t * 2 + (st - 1)]
            return False
        c = self.comp.tri_cost[t][pol]
        if c is None:
            # forbidden by a hard input: level-0 knowledge, reason suffices
            self.conflict = list(reason)
            return False
        self.pol_state[t] = pol + 1
        self.pol_level[t] = len(self.decisions)
        self.pol_reason[t] = reason
        tok = self.pol_base + t * 2 + pol
        self.trail.append((_KIND_POL, t))
        self.assign_trail.append(tok)
        if c:
            self.cost += c
            self.cost_items.append((c, tok))
        self.qw.append(tok ^ 1)
        return self._set_fact(self.tab.tri_fact[t][pol], (tok,))

    def _set_reach(self, var: int, val: bool, reason) -> bool:
        st = self.reach_state[var]
        code = 1 if val else 2
        if st:
            if st == code:
                return True
            self.conflict = list(reason) + [var * 2 + (0 if st == 1 else 1)]
            return False
        c = (self.comp.cost_true if val else self.comp.cost_false)[var]
        if c is None:
            self.conflict = list(reason)
            return False
        self.reach_state[var] = code
        self.reach_level[var] = len(self.decisions)
        self.reach_reason[var] = reason
        tok = var * 2 + (0 if val else 1)
        self.trail.append((_KIND_REACH, var))
        self.assign_trail.append(tok)
        if c:
            self.cost += c
            self.cost_items.append((c, tok))
        m = self.comp.var_min[var]
        if m:
            self.residual -= m
        self.qr.append(var)
        self.qw.append(tok ^ 1)
        return True

    def _assert_token(self, tok: int, reason) -> bool:
        if tok >= self.pol_base:
            t, pol = divmod(tok - self.pol_base, 2)
            return self._set_pol(t, pol, reason)
        var, neg = divmod(tok, 2)
        return self._set_reach(var, neg == 0, reason)

    def _check_clause(self, c: int) -> bool:
        """Evaluate an active gated clause; unit-propagate or conflict."""
        reach_state = self.reach_state
        unknown = None
        count = 0
        lits = self.tab.cl_lits[c]
        for lit in lits:
            st = reach_state[lit[1]]
            if st == 0:
                count += 1
                if count > 1:
                    return True
                unknown = lit
            elif (st == 1) == lit[0]:
                return True
        gate = self.tab.cl_gate_toks[c]
        if count == 0:
            self.conflict = list(gate) + [
                lit[1] * 2 + (1 if lit[0] else 0) for lit in lits
            ]
            return False
        reason = gate + tuple(
            lit[1] * 2 + (1 if lit[0] else 0) for lit in lits if lit is not unknown
        )
        return self._set_reach(unknown[1], unknown[0], reason)

    def _reach_consequences(self, var: int) -> bool:
        n = self.comp.n
        x, y = divmod(var, n)
        reach_state = self.reach_state
        set_reach = self._set_reach
        if reach_state[var] == 1:
            tok = var * 2
            if not set_reach(y * n + x, False, (tok,)):
                return False
            for z in range(n):
                if z == x or z == y:
                    continue
                if reach_state[y * n + z] == 1 and not set_reach(
                    x * n + z, True, (tok, (y * n + z) * 2)
                ):
                    return False
                if reach_state[x * n + z] == 2 and not set_reach(
                    y * n + z, False, (tok, (x * n + z) * 2 + 1)
                ):
                    return False
                if reach_state[z * n + x] == 1 and not set_reach(
                    z * n + y, True, (tok, (z * n + x) * 2)
                ):
                    return False
                if reach_state[z * n + y] == 2 and not set_reach(
                    z * n + x, False, (tok, (z * n + y) * 2 + 1)
                ):
                    return False
        else:
            tok = var * 2 + 1
            for z in range(n):
                if z == x or z == y:
                    continue
                if reach_state[x * n + z] == 1 and not set_reach(
                    z * n + y, False, (tok, (x * n + z) * 2)
                ):
                    return False
                if reach_state[z * n + y] == 1 and not set_reach(
                    x * n + z, False, (tok, (z * n + y) * 2)
                ):
                    return False
        cl_missing = self.cl_missing
        for c in self.tab.var_clauses[var]:
            if cl_missing[c] == 0 and not self._check_clause(c):
                return False
        return True

    def _token_falsified(self, tok: int) -> bool:
        if tok >= self.pol_base:
            st = self.pol_state[(tok - self.pol_base) >> 1]
            return st != 0 and st - 1 != (tok & 1)
        st = self.reach_state[tok >> 1]
        return st != 0 and (st == 1) != (tok & 1 == 0)

    def _propagate_watches(self, falsified: int) -> bool:
        wl = self.watches.get(falsified)
        if not wl:
            return True
        learned = self.learned
        pol_base = self.pol_base
        pol_state = self.pol_state
        reach_state = self.reach_state
        i = 0
        while i < len(wl):
            ci = wl[i]
            clause = learned[ci]
            other = clause[1] if clause[0] == falsified else clause[0]
            # status of `other`: 1 sat, -1 falsified, 0 unassigned
            if other >= pol_base:
                st = pol_state[(other - pol_base) >> 1]
                status = 0 if st == 0 else (1 if st - 1 == (other & 1) else -1)
            else:
                st = reach_state[other >> 1]
                status = 0 if st == 0 else (1 if (st == 1) == (other & 1 == 0) else -1)
            if status == 1:
                i += 1
                continue
            moved = False
            for j in range(2, len(clause)):
                tok = clause[j]
                if tok >= pol_base:
                    st = pol_state[(tok - pol_base) >> 1]
                    falsif = st != 0 and st - 1 != (tok & 1)
                else:
                    st = reach_state[tok >> 1]
                    falsif = st != 0 and (st == 1) != (tok & 1 == 0)
                if not falsif:
                    lst = list(clause)
                    pos = 0 if lst[0] == falsified else 1
                    lst[pos], lst[j] = lst[j], lst[pos]
                    learned[ci] = tuple(lst)
                    self.watches.setdefault(tok, []).append(ci)
                    wl[i] = wl[-1]
                    wl.pop()
                    moved = True
                    break
            if moved:
                continue
            if status == -1:
                self.conflict = [tok ^ 1 for tok in clause]
                return False
            reason = tuple(tok ^ 1 for tok in clause if tok != other)
            if not self._assert_token(other, reason):
                return False
            i += 1
        return True

    def _flush(self) -> bool:
        qf, qr, qw = self.qf, self.qr, self.qw
        tab = self.tab
        while qf or qr or qw:
            while qf:
                f = qf.pop()
                t = tab.fact_tri[f]
                if t >= 0 and not self._set_pol(
                    t, tab.fact_pol[f], (self.fact_base + f,)
                ):
                    return False
                inst_missing = self.inst_missing
                trail = self.trail
                for i in tab.fact_insts[f]:
                    m = inst_missing[i] - 1
                    inst_missing[i] = m
                    trail.append((_KIND_INST, i))
                    if m == 0 and not self._set_fact(
                        tab.inst_concl[i], tab.inst_reason[i]
                    ):
                        return False
                cl_missing = self.cl_missing
                for c in tab.fact_clauses[f]:
                    m = cl_missing[c] - 1
                    cl_missing[c] = m
                    trail.append((_KIND_CLAUSE, c))
                    if m == 0 and not self._check_clause(c):
                        return False
            if qr:
                if not self._reach_consequences(qr.pop()):
                    return False
                continue
            if qw and not self._propagate_watches(qw.pop()):
                return False
        return True

    def _bound_conflict(self, threshold: int) -> list[int]:
        """Assigned tokens whose conjunction forces every completion to
        cost at least ``threshold``: a greedy cover by the costliest
        cost-bearing assignments. The per-variable minima of unassigned
        variables hold unconditionally and need no tokens."""
        need = threshold - self.residual
        total = 0
        out: list[int] = []
        for c, tok in sorted(self.cost_items, key=lambda it: (-it[0], it[1])):
            total += c
            out.append(tok)
            if total >= need:
                break
        return sorted(out)

    # -- frames / backjumping -------------------------------------------------

    def _push_frame(self) -> None:
        self.frames.append(
            (
                len(self.trail),
                len(self.assign_trail),
                len(self.cost_items),
                self.cost,
                self.residual,
            )
        )

    def _pop_frame(self) -> None:
        tlen, alen, clen, cost, residual = self.frames.pop()
        trail = self.trail
        fact_present = self.fact_present
        pol_state = self.pol_state
        reach_state = self.reach_state
        inst_missing = self.inst_missing
        cl_missing = self.cl_missing
        while len(trail) > tlen:
            kind, idx = trail.pop()
            if kind == _KIND_FACT:
                fact_present[idx] = 0
            elif kind == _KIND_POL:
                pol_state[idx] = 0
            elif kind == _KIND_REACH:
                reach_state[idx] = 0
            elif kind == _KIND_INST:
                inst_missing[idx] += 1
            else:
                cl_missing[idx] += 1
        del self.assign_trail[alen:]
        del self.cost_items[clen:]
        self.cost = cost
        self.residual = residual
        self.qf.clear()
        self.qr.clear()
        self.qw.clear()

    def _backjump(self, target_level: int) -> None:
        while len(self.decisions) > target_level:
            self._pop_frame()
            self.decisions.pop()

    # -- conflict analysis ------------------------------------------------------

    def _collect(self, tokens, seen, lower, expanded, conflict_level) -> int:
        """Resolve fact tokens through their reasons; classify assignment
        tokens against the conflict level. Returns new at-level count."""
        fbase = self.fact_base
        added = 0
        stack = list(tokens)
        while stack:
            tok = stack.pop()
            if tok >= fbase:
                if tok not in expanded:
                    expanded.add(tok)
                    stack.extend(self.fact_reason[tok - fbase])
            elif tok not in seen:
                lvl = self._token_level(tok)
                if lvl == 0:
                    continue
                seen.add(tok)
                if lvl >= conflict_level:
                    added += 1
                else:
                    lower.append(tok ^ 1)
        return added

    def _analyze(self):
        """First-UIP analysis of ``self.conflict``.

        Returns (clause, assertion_level, conflict_level) with the
        asserting token first, or None when the conflict reduces to level
        zero (the query is exhausted).
        """
        conflict = self.conflict
        while True:
            fbase = self.fact_base
            expanded: set[int] = set()
            flat: set[int] = set()
            stack = list(conflict)
            while stack:
                tok = stack.pop()
                if tok >= fbase:
                    if tok not in expanded:
                        expanded.add(tok)
                        stack.extend(self.fact_reason[tok - fbase])
                elif self._token_level(tok) > 0:
                    flat.add(tok)
            if not flat:
                return None
            conflict_level = max(self._token_level(tok) for tok in flat)
            seen: set[int] = set()
            lower: list[int] = []
            counter = self._collect(flat, seen, lower, expanded, conflict_level)
            uip = None
            for i in range(len(self.assign_trail) - 1, -1, -1):
                tok = self.assign_trail[i]
                if tok not in seen or self._token_level(tok) < conflict_level:
                    continue
                if counter == 1:
                    uip = tok
                    break
                counter -= 1
                seen.discard(tok)
                counter += self._collect(
                    self._token_reason(tok), seen, lower, expanded, conflict_level
                )
            if uip is not None:
                lower = self._minimize(lower)
                assertion = 0
                for tok in lower:
                    lvl = self._token_level(tok)
                    if lvl > assertion:
                        assertion = lvl
                return (uip ^ 1,) + tuple(lower), assertion, conflict_level
            # everything resolved below the conflict level: restate and retry
            conflict = [tok ^ 1 for tok in lower]

    def _minimize(self, lower: list[int]) -> list[int]:
        """Drop clause literals whose assignment reasons are covered by the
        other clause literals (standard local clause minimization)."""
        if len(lower) < 2:
            return lower
        fbase = self.fact_base
        clause_set = set(lower)
        keep = []
        for tok in lower:
            reason = self._token_reason(tok ^ 1)
            if not reason:
                keep.append(tok)
                continue
            redundant = True
            stack = list(reason)
            expanded: set[int] = set()
            while stack:
                r = stack.pop()
                if r >= fbase:
                    if r not in expanded:
                        expanded.add(r)
                        stack.extend(self.fact_reason[r - fbase])
                elif (r ^ 1) not in clause_set and self._token_level(r) > 0:
                    redundant = False
                    break
            if not redundant:
                keep.append(tok)
        return keep

    def _bump(self, clause) -> None:
        act = self.act
        inc = self.act_inc
        pol_base = self.pol_base
        n2 = self.comp.n * self.comp.n
        for tok in clause:
            if tok >= pol_base:
                act[n2 + ((tok - pol_base) >> 1)] += inc
            else:
                act[tok >> 1] += inc
        self.act_inc = inc * _ACT_DECAY
        if self.act_inc > _ACT_RESCALE:
            scale = 1.0 / _ACT_RESCALE
            self.act = [a * scale for a in act]
            self.act_inc *= scale

    def _learn(self, clause: tuple[int, ...], assertion: int, conflict_level: int) -> bool:
        """Backjump and assert the learned clause's first token."""
        self._bump(clause)
        self._backjump(min(assertion, conflict_level - 1))
        if len(clause) >= 2:
            rest = sorted(clause[1:], key=lambda tok: -self._token_level(tok))
            clause = (clause[0],) + tuple(rest)
            ci = len(self.learned)
            self.learned.append(clause)
            self.watches.setdefault(clause[0], []).append(ci)
            self.watches.setdefault(clause[1], []).append(ci)
            reason = tuple(tok ^ 1 for tok in clause[1:])
        else:
            reason = ()
        return self._assert_token(clause[0], reason) and self._flush()

    # -- top level ----------------------------------------------------------------

    def _assert_hard_inputs(self) -> bool:
        """Assert at level 0 the values that hard inputs leave open."""
        comp = self.comp
        for t, cc in enumerate(comp.tri_cost):
            if cc[0] is None and not self._set_pol(t, 1, ()):
                return False
            if cc[1] is None and not self._set_pol(t, 0, ()):
                return False
        n = comp.n
        for x in range(n):
            for y in range(n):
                if x == y:
                    continue
                var = x * n + y
                if comp.cost_true[var] is None and not self._set_reach(var, False, ()):
                    return False
                if comp.cost_false[var] is None and not self._set_reach(var, True, ()):
                    return False
        return True

    def _root(self) -> bool:
        """Add the pins to the propagated root state at level 0."""
        if self.comp.infeasible:
            return False
        for kind, idx, value in self.pins:
            ok = (
                self._set_pol(idx, value, ())
                if kind == 0
                else self._set_reach(idx, value, ())
            )
            if not ok:
                return False
        return self._flush()

    def _check_time(self) -> None:
        self.nodes += 1
        if self.deadline is not None and self.nodes % _TIMEOUT_CHECK_INTERVAL == 0:
            if time.monotonic() > self.deadline:
                bound = None if self.best_cost is None else Weight.finite(self.best_cost)
                raise SolveTimeoutError("search exceeded the time limit", bound)

    def _next_decision(self):
        """Undecided variable with the highest conflict activity; ties fall
        back to the static order."""
        pol_state = self.pol_state
        reach_state = self.reach_state
        act = self.act
        n2 = self.comp.n * self.comp.n
        best = None
        best_act = -1.0
        for kind, idx in self.comp.order:
            if kind == 0:
                if pol_state[idx]:
                    continue
                a = act[n2 + idx]
            else:
                if reach_state[idx]:
                    continue
                a = act[idx]
            if a > best_act:
                best_act = a
                best = (kind, idx)
        return best

    def _preferred(self, kind: int, idx: int) -> int:
        """Cheapest value first; with a phase hint, follow the hint when
        its value is not hard-forbidden."""
        phase = self.phase
        if kind == 0:
            ci, cd = self.comp.tri_cost[idx]
            if phase is not None:
                st = phase[1][idx]
                if st and (ci, cd)[st - 1] is not None:
                    return self.pol_base + idx * 2 + (st - 1)
            vals = [(c, p) for p, c in ((0, ci), (1, cd)) if c is not None]
            vals.sort(key=lambda vc: (vc[0], vc[1]))
            return self.pol_base + idx * 2 + vals[0][1]
        ct, cf = self.comp.cost_true[idx], self.comp.cost_false[idx]
        if phase is not None:
            want_true = phase[0][idx] == 1
            if (ct if want_true else cf) is not None:
                return idx * 2 + (0 if want_true else 1)
        choices = [(c, b) for b, c in ((1, cf), (0, ct)) if c is not None]
        choices.sort(key=lambda vc: (vc[0], 1 - vc[1]))
        return idx * 2 + choices[0][1]

    def _run(self, decision_bound: Optional[int]) -> None:
        if not self._root():
            return
        conflicts = 0
        restart_budget = 4000.0
        while True:
            self._check_time()
            projected = self.cost + self.residual
            if decision_bound is not None:
                over = projected > decision_bound
            else:
                over = self.best_cost is not None and projected >= self.best_cost
            if over:
                if not self.decisions:
                    break
                threshold = (
                    self.best_cost if decision_bound is None else decision_bound + 1
                )
                self.conflict = self._bound_conflict(threshold)
            else:
                nxt = self._next_decision()
                if nxt is None:
                    self.best_cost = self.cost
                    self.best_snap = (bytes(self.reach_state), bytes(self.pol_state))
                    if decision_bound is not None or not self.decisions:
                        break
                    self.conflict = self._bound_conflict(self.best_cost)
                else:
                    tok = self._preferred(*nxt)
                    self._push_frame()
                    self.decisions.append(tok)
                    if self._assert_token(tok, None) and self._flush():
                        continue
            while self.conflict is not None:
                conflicts += 1
                analyzed = self._analyze()
                if analyzed is None:
                    return
                self.conflict = None
                self._learn(*analyzed)
            if conflicts >= restart_budget and self.decisions:
                # geometric restart, keeping clauses and activities; the
                # growing budget guarantees termination
                conflicts = 0
                restart_budget *= 2.0
                self._backjump(0)

    def run_min(self):
        """Exact minimum cost and one optimal snapshot, or (None, None)."""
        self._run(None)
        return self.best_cost, self.best_snap

    def run_decision(self, bound: int):
        """First completion with cost <= bound, or None."""
        self._run(bound)
        return self.best_snap


# ---------------------------------------------------------------------------
# Public API


def _validate_n(n: int, options: SolveOptions) -> None:
    if not 1 <= n <= 31:
        raise ValueError("n must be in 1..31")
    if n > MAX_DEFAULT_N and not options.allow_large_n:
        raise ValueError(
            f"n={n} exceeds the default search guard ({MAX_DEFAULT_N}); "
            "set allow_large_n to override"
        )


def _feature_pins(n: int, features: Iterable[tuple[AncStatement, bool]]):
    pins = []
    for stmt, hold in features:
        if stmt.cause >= n or stmt.effect >= n:
            raise ValueError("forced feature references variables >= n")
        want_reach = (stmt.polarity is Ancestry.CAUSES) == bool(hold)
        pins.append((1, stmt.cause * n + stmt.effect, want_reach))
    return tuple(pins)


def _joint_from_snap(comp: _Compiled, snap) -> JointAssignment:
    reach_state, pol_state = snap
    n = comp.n
    rows = [1 << x for x in range(n)]
    for x in range(n):
        for y in range(n):
            if x != y and reach_state[x * n + y] == 1:
                rows[x] |= 1 << y
    truth = {
        t: (INDEP if pol_state[i] == 1 else DEP) for i, t in enumerate(comp.tables.triples)
    }
    return JointAssignment(AncestralStructure(n, tuple(rows)), CiAssignment(truth))


def _lex_witness(comp: _Compiled, pins, best: int, deadline) -> JointAssignment:
    pins = list(pins)
    for var in comp.tables.lex_vars:
        snap = _Search(comp, pins + [(1, var, False)], deadline).run_decision(best)
        pins.append((1, var, False) if snap is not None else (1, var, True))
    for t in range(len(comp.tables.triples)):
        snap = _Search(comp, pins + [(0, t, 0)], deadline).run_decision(best)
        pins.append((0, t, 0) if snap is not None else (0, t, 1))
    final = _Search(comp, pins, deadline).run_decision(best)
    assert final is not None
    return _joint_from_snap(comp, final)


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
    options = options or SolveOptions()
    _validate_n(n, options)
    deadline = None
    if options.time_limit is not None:
        deadline = time.monotonic() + options.time_limit
    pins = _feature_pins(n, options.forced_features)
    comp = _Compiled(inputs, n)
    best, _snap = _Search(comp, pins, deadline).run_min()
    if best is None:
        return SolveResult(Weight.hard(), None)
    if not build_witness:
        return SolveResult(Weight.finite(best), None)
    try:
        witness = _lex_witness(comp, pins, best, deadline)
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
