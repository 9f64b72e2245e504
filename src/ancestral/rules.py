"""Reasoning rules and integrity constraints linking an ancestral structure
to a truth assignment over conditional (in)dependence statements.

Facts are canonical triples (x, y, cond_bits) with x < y tagged with a
polarity. Four derivation rules produce new facts from present ones; they
never consult the structure:

  D1  indep(x,y|W) and dep(x,y|W+z)   derive dep(x,z|W) and dep(y,z|W)
  D2  dep(x,y|W) and indep(x,y|W+z)   derive dep(x,z|W) and dep(y,z|W)
  D3  dep(x,y|W), indep(x,y|W+z) and indep(x,z|W+b)  derive indep(x,y|W+b)
      (and the mirror with x, y swapped)
  D4  dep(z,x|W), dep(z,y|W) and indep(x,y|W)  derive dep(x,y|W+z)

Three families of integrity constraints relate facts to the structure:

  R1  dep(x,y|W) and indep(x,y|W+z)  require  z => x or z => y or z => W
  R2  indep(x,y|W) and dep(x,y|W+z)  require  none of those
  R3  indep(x,y|U) requires: x => y only if x => U, and y => x only if y => U

All of z and b range over single variables outside the statement; the
conditioning arithmetic adds exactly one variable at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from ancestral.core import (
    AncestralStructure,
    AncStatement,
    Ancestry,
    CiStatement,
    Polarity,
    Weight,
    WeightedInput,
    iter_bits,
)

Triple = tuple[int, int, int]
Fact = tuple[Triple, Polarity]

INDEP = Polarity.INDEPENDENT
DEP = Polarity.DEPENDENT


def canonical_triple(x: int, y: int, cond: int) -> Triple:
    if x == y:
        raise ValueError("triple endpoints must differ")
    if (cond >> x) & 1 or (cond >> y) & 1:
        raise ValueError("conditioning set must exclude both endpoints")
    return (x, y, cond) if x < y else (y, x, cond)


def _validate_fact(fact: Fact, n: int) -> None:
    (x, y, cond), polarity = fact
    if not isinstance(polarity, Polarity):
        raise TypeError("fact polarity must be a Polarity")
    if not 0 <= x < y < n:
        raise ValueError(f"fact pair ({x}, {y}) is not canonical for n={n}")
    if cond < 0 or cond >> n:
        raise ValueError("conditioning mask out of range")
    if (cond >> x) & 1 or (cond >> y) & 1:
        raise ValueError("conditioning set must exclude both endpoints")


@dataclass(frozen=True)
class CiAssignment:
    """One chosen polarity per input triple."""

    truth: Mapping[Triple, Polarity]

    def facts(self) -> set[Fact]:
        return {(t, p) for t, p in self.truth.items()}


@dataclass(frozen=True)
class JointAssignment:
    structure: AncestralStructure
    ci: CiAssignment


@dataclass(frozen=True)
class RuleInstance:
    premises: tuple[Fact, ...]
    conclusion: Fact


@dataclass(frozen=True)
class GatedClause:
    """When every premise fact is present, the literal disjunction must hold.

    A literal (wants_reach, src, dst) is satisfied when reach(src, dst)
    equals wants_reach.
    """

    premises: tuple[Fact, ...]
    literals: tuple[tuple[bool, int, int], ...]


@dataclass(frozen=True)
class Grounding:
    n: int
    facts: frozenset[Fact]
    derivations: tuple[RuleInstance, ...]
    clauses: tuple[GatedClause, ...]


def ground(seed_facts: Iterable[Fact], n: int) -> Grounding:
    """Close the seed facts under D1-D4 and instantiate every rule and
    constraint whose premises lie in the closure.

    The closure is the least fixpoint: all rules are definite, so the set
    of derivable facts equals the set of possible facts.
    """
    indep_s: set[Triple] = set()
    dep_s: set[Triple] = set()
    for fact in seed_facts:
        _validate_fact(fact, n)
        (indep_s if fact[1] is INDEP else dep_s).add(fact[0])

    derivations: dict[tuple, RuleInstance] = {}
    clauses: dict[tuple, GatedClause] = {}

    def add_deriv(premises: tuple[Fact, ...], conclusion: Fact) -> None:
        key = (premises, conclusion)
        if key not in derivations:
            derivations[key] = RuleInstance(premises, conclusion)

    def add_clause(premises: tuple[Fact, ...], literals: tuple[tuple[bool, int, int], ...]) -> None:
        key = (premises, literals)
        if key not in clauses:
            clauses[key] = GatedClause(premises, literals)

    def scan_once() -> set[Fact]:
        new: set[Fact] = set()

        def emit(premises: tuple[Fact, ...], triple: Triple, polarity: Polarity) -> None:
            add_deriv(premises, (triple, polarity))
            target = indep_s if polarity is INDEP else dep_s
            if triple not in target:
                new.add((triple, polarity))

        for a, b, w in list(dep_s):
            d_lo: Fact = ((a, b, w), DEP)
            rest = ((1 << n) - 1) & ~w & ~(1 << a) & ~(1 << b)
            for z in iter_bits(rest):
                u = w | (1 << z)
                if (a, b, u) not in indep_s:
                    continue
                # minimal independence of (a, b): indep needs z in context w
                i_hi: Fact = ((a, b, u), INDEP)
                emit((d_lo, i_hi), canonical_triple(a, z, w), DEP)
                emit((d_lo, i_hi), canonical_triple(b, z, w), DEP)
                lits = ((True, z, a), (True, z, b)) + tuple(
                    (True, z, m) for m in iter_bits(w)
                )
                add_clause((d_lo, i_hi), lits)
                for bb in iter_bits(rest & ~(1 << z)):
                    aa = w | (1 << bb)
                    for x in (a, b):
                        t3 = canonical_triple(x, z, aa)
                        if t3 in indep_s:
                            emit((d_lo, i_hi, (t3, INDEP)), (a, b, aa), INDEP)

        for a, b, w in list(indep_s):
            i_lo: Fact = ((a, b, w), INDEP)
            rest = ((1 << n) - 1) & ~w & ~(1 << a) & ~(1 << b)
            for z in iter_bits(rest):
                u = w | (1 << z)
                if (a, b, u) in dep_s:
                    # minimal dependence of (a, b): dep needs z in context w
                    d_hi: Fact = ((a, b, u), DEP)
                    emit((i_lo, d_hi), canonical_triple(a, z, w), DEP)
                    emit((i_lo, d_hi), canonical_triple(b, z, w), DEP)
                    add_clause((i_lo, d_hi), ((False, z, a),))
                    add_clause((i_lo, d_hi), ((False, z, b),))
                    for m in iter_bits(w):
                        add_clause((i_lo, d_hi), ((False, z, m),))
                t_za = canonical_triple(z, a, w)
                t_zb = canonical_triple(z, b, w)
                if t_za in dep_s and t_zb in dep_s:
                    emit(((t_za, DEP), (t_zb, DEP), i_lo), (a, b, u), DEP)
            add_clause((i_lo,), ((False, a, b),) + tuple((True, a, m) for m in iter_bits(w)))
            add_clause((i_lo,), ((False, b, a),) + tuple((True, b, m) for m in iter_bits(w)))

        return new

    while True:
        new = scan_once()
        if not new:
            break
        for triple, polarity in new:
            (indep_s if polarity is INDEP else dep_s).add(triple)

    facts = frozenset(
        {(t, INDEP) for t in indep_s} | {(t, DEP) for t in dep_s}
    )

    def fact_key(fact: Fact) -> tuple:
        return (fact[0], 0 if fact[1] is INDEP else 1)

    deriv_list = tuple(
        sorted(
            derivations.values(),
            key=lambda r: (fact_key(r.conclusion), tuple(map(fact_key, r.premises))),
        )
    )
    clause_list = tuple(
        sorted(clauses.values(), key=lambda c: (tuple(map(fact_key, c.premises)), c.literals))
    )
    return Grounding(n, facts, deriv_list, clause_list)


def derive_closure(structure: AncestralStructure, seed_facts: Iterable[Fact]) -> set[Fact]:
    """Least fixpoint of the derivation rules over the seed facts.

    The rules fire on facts alone; only the structure's dimension is used.
    The returned set contains the seeds.
    """
    return set(ground(seed_facts, structure.n).facts)


def clause_holds(clause: GatedClause, structure: AncestralStructure) -> bool:
    for wants_reach, src, dst in clause.literals:
        if structure.reach(src, dst) == wants_reach:
            return True
    return False


def consistent_structures(
    n: int, ci: CiAssignment, structures: Iterable[AncestralStructure]
) -> Iterator[AncestralStructure]:
    """The given structures on n variables that form a consistent joint
    assignment with ``ci``, in the order given: none when the closure of
    the assigned facts derives the flip of an assigned fact, else those
    that satisfy every grounded integrity constraint. The assignment is
    grounded once, and ``structures`` is read lazily, one structure per
    structure yielded or rejected."""
    grounding = ground(ci.facts(), n)
    if any((t, p.flipped()) in grounding.facts for t, p in ci.truth.items()):
        return
    clauses = grounding.clauses
    for structure in structures:
        if all(clause_holds(c, structure) for c in clauses):
            yield structure


def check_consistency(structure: AncestralStructure, ci: CiAssignment) -> bool:
    """True iff the closure of the assigned facts is coherent with the
    choices and every integrity constraint holds against the structure."""
    return next(consistent_structures(structure.n, ci, (structure,)), None) is not None


def loss(joint: JointAssignment, inputs: Iterable[WeightedInput]) -> Weight:
    """Sum of the weights of the inputs violated by the joint assignment.

    A conditional input is violated when its triple was assigned the other
    polarity; an ancestral input is violated when the structure contradicts
    it. Any violated hard input makes the loss hard.
    """
    total = 0
    for item in inputs:
        stmt = item.statement
        if isinstance(stmt, CiStatement):
            try:
                assigned = joint.ci.truth[stmt.triple]
            except KeyError:
                raise ValueError(f"assignment does not cover triple {stmt.triple}") from None
            violated = assigned is not stmt.polarity
        elif isinstance(stmt, AncStatement):
            reached = joint.structure.reach(stmt.cause, stmt.effect)
            violated = reached != (stmt.polarity is Ancestry.CAUSES)
        else:
            raise TypeError(f"unsupported statement type {type(stmt)!r}")
        if violated:
            if item.weight.is_hard:
                return Weight.hard()
            total += item.weight.millis
    return Weight.finite(total)
