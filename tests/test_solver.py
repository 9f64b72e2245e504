import copy
import dataclasses
import functools
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ancestral import solver
from ancestral.core import (
    AncestralStructure,
    Ancestry,
    AncStatement,
    CiStatement,
    Weight,
    WeightedInput,
    causes,
    dep,
    enumerate_ancestral_structures,
    indep,
    is_ancestral_structure,
    not_causes,
)
from ancestral.oracle import brute_force_min_loss
from ancestral.rules import (
    DEP,
    INDEP,
    CiAssignment,
    GatedClause,
    RuleInstance,
    check_consistency,
    consistent_structures,
    ground,
    loss,
)
from ancestral.scoring import BothInfeasibleError, PairScorer, score_all_pairs
from ancestral.simulate import oracle_inputs, random_linear_model, sample_data
from ancestral.solver import (
    Engine,
    SolveOptions,
    SolveTimeoutError,
    _Tables,
    _tables,
    solve_min_loss,
)
from ancestral.stats import CiTestConfig, ci_inputs_from_data

from helpers import (
    dag_oracle_inputs,
    level0_contradictions,
    random_dag,
    random_instance,
    reference_lex_witness,
    shared_triple_inputs,
)

W = Weight.finite


def assert_at_matches_trail(engine):
    """``at`` holds each trail token's index and ``_NEVER`` for every
    token that is not on the trail."""
    want = [solver._NEVER] * len(engine.at)
    for i, tok in enumerate(engine.trail):
        want[tok] = i
    assert engine.at == want


# -- contract examples ---------------------------------------------------------

def test_empty_instance_has_identity_witness():
    r = solve_min_loss([], 2)
    assert r.min_loss == W(0)
    assert r.witness.structure == AncestralStructure.identity(2)


def test_contradictory_ancestral_pair():
    r = solve_min_loss([causes(0, 1, W(3000)), causes(1, 0, W(1000))], 2)
    assert r.min_loss == W(1000)
    assert r.witness.structure.reach(0, 1)
    assert not r.witness.structure.reach(1, 0)


def test_hard_statement_forces_reach():
    r = solve_min_loss([causes(0, 1)], 2)
    assert r.min_loss == W(0)
    assert r.witness.structure.reach(0, 1)


def test_oracle_inputs_are_feasible_at_zero():
    rng = random.Random(3)
    for _ in range(10):
        adj = random_dag(5, 0.4, rng)
        inputs = dag_oracle_inputs(adj, 5, 1)
        r = solve_min_loss(inputs, 5, build_witness=False)
        assert r.min_loss == W(0)


def test_contradictory_hard_inputs_are_infeasible():
    r = solve_min_loss([causes(0, 1), not_causes(0, 1)], 2)
    assert r.min_loss.is_hard
    assert r.witness is None


# -- oracle equivalence ----------------------------------------------------------

def test_matches_brute_force_on_random_instances():
    rng = random.Random(2024)
    for _ in range(40):
        inputs = random_instance(rng)
        fast = solve_min_loss(inputs, 4)
        slow = brute_force_min_loss(inputs, 4)
        assert fast.min_loss == slow.min_loss
        if not fast.min_loss.is_hard:
            assert fast.witness.structure == slow.witness.structure
            assert fast.witness.ci.truth == slow.witness.ci.truth
            assert loss(fast.witness, inputs) == fast.min_loss
            assert check_consistency(fast.witness.structure, fast.witness.ci)


def test_matches_brute_force_with_hard_inputs():
    rng = random.Random(99)
    for _ in range(20):
        inputs = random_instance(rng, max_inputs=7)
        x, y = rng.sample(range(4), 2)
        inputs.append(causes(x, y) if rng.random() < 0.5 else not_causes(x, y))
        fast = solve_min_loss(inputs, 4)
        slow = brute_force_min_loss(inputs, 4)
        assert fast.min_loss == slow.min_loss
        if not fast.min_loss.is_hard:
            assert fast.witness.structure == slow.witness.structure


@st.composite
def forced_instances(draw):
    """At most 4 variables, CI statements up to order 2 (so a pair's
    statements span up to 4 triples), ancestral statements, sometimes a
    soft pair of both polarities on one ordered pair (so the engine's
    ``offset`` is positive), and forced features, hard or soft, 16 inputs
    at most once forced features count."""
    n = draw(st.integers(2, 4))
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    weights = st.one_of(st.just(Weight.hard()), st.integers(0, 5000).map(W))
    inputs = []
    for _ in range(draw(st.integers(0, 8))):
        x, y = draw(st.sampled_from(pairs))
        others = [v for v in range(n) if v not in (x, y)]
        cond = draw(st.lists(st.sampled_from(others), unique=True, max_size=2)) if others else []
        make = draw(st.sampled_from((indep, dep)))
        inputs.append(make(x, y, cond, draw(weights)))
    for _ in range(draw(st.integers(0, 4))):
        x, y = draw(st.sampled_from(pairs))
        make = draw(st.sampled_from((causes, not_causes)))
        inputs.append(make(x, y, draw(weights)))
    if draw(st.booleans()):
        x, y = draw(st.sampled_from(pairs))
        soft = st.integers(1, 5000).map(W)
        inputs += [causes(x, y, draw(soft)), not_causes(x, y, draw(soft))]
    forced = []
    for _ in range(draw(st.integers(0, 2))):
        x, y = draw(st.sampled_from(pairs))
        polarity = draw(st.sampled_from(tuple(Ancestry)))
        forced.append((AncStatement(x, y, polarity), draw(st.booleans())))
    return n, inputs, tuple(forced)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(forced_instances())
def test_matches_brute_force_with_forced_features(case):
    n, inputs, forced = case
    # a forced feature is the hard statement of the feature or of its negation
    hard = [
        WeightedInput(
            stmt if hold else AncStatement(stmt.cause, stmt.effect, stmt.polarity.flipped()),
            Weight.hard(),
        )
        for stmt, hold in forced
    ]
    fast = solve_min_loss(inputs, n, SolveOptions(forced_features=forced))
    slow = brute_force_min_loss(inputs + hard, n)
    assert fast.min_loss == slow.min_loss
    if not fast.min_loss.is_hard:
        assert fast.witness.structure == slow.witness.structure
        assert fast.witness.ci.truth == slow.witness.ci.truth


# -- shared grounding tables -------------------------------------------------------

def _assert_same_result(got, want):
    assert got.min_loss == want.min_loss
    if want.min_loss.is_hard:
        assert got.witness is None
    else:
        assert got.witness.structure == want.witness.structure
        assert got.witness.ci.truth == want.witness.ci.truth


def test_shared_tables_match_brute_force_in_any_call_order():
    rng = random.Random(404)
    cases = [shared_triple_inputs(rng) for _ in range(6)] + level0_contradictions()
    expected = [brute_force_min_loss(inputs, 4) for inputs in cases]
    assert all(r.min_loss.is_hard for r in expected[6:])
    assert not any(r.min_loss.is_hard for r in expected[:6])
    orders = [
        list(range(len(cases))),
        list(reversed(range(len(cases)))),
        rng.sample(range(len(cases)), len(cases)),
    ]
    for k, order in enumerate(orders):
        if k != 1:  # cold, warm, then cold again
            _tables.cache_clear()
        for i in order:
            _assert_same_result(solve_min_loss(cases[i], 4), expected[i])
    info = _tables.cache_info()
    assert info.currsize == 1 and info.hits == len(cases) - 1


def test_level0_contradictions_are_infeasible_with_warm_tables():
    feasible = shared_triple_inputs(random.Random(9), hard_share=0.0)
    before = brute_force_min_loss(feasible, 4)
    for inputs in level0_contradictions():
        assert Engine(inputs, 4).infeasible
        r = solve_min_loss(inputs, 4)
        assert r.min_loss == Weight.hard() and r.witness is None
        _assert_same_result(solve_min_loss(feasible, 4), before)


def test_cached_tables_are_unchanged_by_solves():
    _tables.cache_clear()
    rng = random.Random(7)
    cases = [shared_triple_inputs(rng) for _ in range(4)] + level0_contradictions()
    tab = Engine(cases[0], 4).tables
    key = tab.triples
    before = copy.deepcopy(vars(tab))
    assert before == vars(_Tables(4, key))
    for inputs in cases:
        solve_min_loss(inputs, 4)
        try:
            score_all_pairs(inputs, 4)
        except BothInfeasibleError:
            pass
    assert _tables(4, key) is tab
    assert vars(tab) == before
    # the two facts of an input triple are its polarity tokens; only the
    # other facts get tokens from fact_base on
    seeds = [(t, INDEP) for t in key] + [(t, DEP) for t in key]
    g = ground(seeds, 4)
    assert tab.nfacts == len(g.facts) - 2 * len(key)
    pol_tok = {
        (t, pol): tab.pol_base + 2 * i + (pol is DEP) for i, t in enumerate(key) for pol in (INDEP, DEP)
    }
    gates = [r.premises for r in g.derivations] + [c.premises for c in g.clauses]
    concls = [(r.conclusion,) for r in g.derivations]
    # the grounded clauses come first, the partial-order axioms after them
    assert len(tab.cl_gate_toks) == len(gates) + 4 * 3 * (1 + 3 * 2)
    grounded = tab.cl_gate_toks[: len(gates)]
    for facts, toks in [*zip(gates, grounded, strict=True), *zip(concls, tab.cl_lits)]:
        for f, tok in zip(facts, toks, strict=True):
            assert tok == pol_tok[f] if f in pol_tok else tok >= tab.fact_base


@pytest.mark.parametrize("n", [2, 3, 4])
def test_axiom_rows_admit_exactly_the_ancestral_structures(n):
    """The table's rows gated by reachability tokens alone are the
    partial-order axioms: n(n-1) antisymmetry rows and three rows per
    ordered triple of distinct variables, transitivity and its two
    contrapositives. Over every assignment of the n(n-1) reachability
    variables, none of them is falsified (all gate tokens true, the one
    literal false) exactly when the matrix, its diagonal set, is an
    ancestral structure."""
    tab = _Tables(n, ())
    rows = [
        (gate, lits[0])
        for gate, lits in zip(tab.cl_gate_toks, tab.cl_lits, strict=True)
        if all(tok < tab.pol_base for tok in gate)
    ]
    assert len(rows) == n * (n - 1) + 3 * n * (n - 1) * (n - 2)
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    for bits in range(1 << len(pairs)):
        matrix = [[x == y for y in range(n)] for x in range(n)]
        for i, (x, y) in enumerate(pairs):
            matrix[x][y] = bool(bits >> i & 1)
        true = {2 * (x * n + y) + (not matrix[x][y]) for x, y in pairs}
        falsified = any(true.issuperset(gate) and lit not in true for gate, lit in rows)
        assert falsified is not is_ancestral_structure(matrix), matrix


@pytest.mark.parametrize("extra", ["four-gate rule", "three-gate clause"])
def test_tables_reject_gate_sets_beyond_the_index(monkeypatch, extra):
    """The activation index holds up to three gate tokens per clause, two
    for a clause of two or more literals; a grounding with more raises
    ``ValueError`` when the tables are built."""
    key = Engine(shared_triple_inputs(random.Random(3)), 4).tables.triples
    ground_all = solver.ground

    def widened(seeds, n):
        g = ground_all(seeds, n)
        prem = tuple((t, INDEP) for t in key[:4])
        if extra == "four-gate rule":
            rule = RuleInstance(prem, (key[4], DEP))
            return dataclasses.replace(g, derivations=g.derivations + (rule,))
        clause = GatedClause(prem[:3], ((True, 0, 1), (False, 1, 2)))
        return dataclasses.replace(g, clauses=g.clauses + (clause,))

    monkeypatch.setattr(solver, "ground", widened)
    with pytest.raises(ValueError, match="gate tokens"):
        _Tables(4, key)


def test_level0_polarities_are_the_closure_of_the_hard_inputs():
    """Level 0 of an engine holds exactly the polarities that the rules
    derive from the hard inputs. The inputs are oracle statements of every
    order, about 30% of them hard. Half the cases are noise-free, so their
    closure never contradicts a hard input and their engine is feasible;
    the other half flip some polarities, and an engine whose hard inputs
    contradict under the closure must be infeasible."""
    rng = random.Random(23)
    checked = contradicted = 0
    for case in range(60):
        n = rng.randint(4, 6)
        noise = 0.1 if case % 2 else 0.0
        inputs = []
        for item in dag_oracle_inputs(random_dag(n + 1, 0.3, rng), n, n - 2):
            stmt = item.statement
            pol = stmt.polarity.flipped() if rng.random() < noise else stmt.polarity
            w = Weight.hard() if rng.random() < 0.3 else W(rng.randint(1, 5000))
            inputs.append(WeightedInput(CiStatement(stmt.x, stmt.y, stmt.cond, pol), w))
        seeds = [(i.statement.triple, i.statement.polarity) for i in inputs if i.weight.is_hard]
        closure = ground(seeds, n).facts
        contradiction = any((t, pol.flipped()) in closure for t, pol in seeds)
        engine = Engine(inputs, n)
        if not noise:
            assert not contradiction and not engine.infeasible
        contradicted += contradiction
        if contradiction:
            assert engine.infeasible
            continue
        if engine.infeasible:
            continue
        for i, t in enumerate(engine.tables.triples):
            tok = engine.pol_base + 2 * i
            got = INDEP if engine.value[tok] else DEP if engine.value[tok + 1] else None
            want = INDEP if (t, INDEP) in closure else DEP if (t, DEP) in closure else None
            assert got is want
            checked += got is not None
    assert contradicted > 0 and checked > 0


def test_level0_state_is_restored_after_queries():
    """After base, forced and witness queries, backjumping to level 0
    leaves a state that agrees with its own trail: ``value`` is set on the
    trail's tokens only, ``at`` holds each trail token's index and
    ``_NEVER`` for every other token, and ``cost`` is the trail's."""
    rng = random.Random(41)
    checked = 0
    for _ in range(30):
        n = rng.randint(3, 5)
        inputs = []
        for item in dag_oracle_inputs(random_dag(n + 1, 0.4, rng), n, 1):
            stmt = item.statement
            if rng.random() < 0.2:
                inputs.append(item)
            elif rng.random() < 0.2:
                flipped = CiStatement(stmt.x, stmt.y, stmt.cond, stmt.polarity.flipped())
                inputs.append(WeightedInput(flipped, W(rng.randint(1, 5000))))
            else:
                inputs.append(WeightedInput(stmt, W(rng.randint(1, 5000))))
        for _ in range(rng.randint(0, 3)):
            x, y = rng.sample(range(n), 2)
            make = causes if rng.random() < 0.5 else not_causes
            inputs.append(make(x, y, W(rng.randint(1, 5000))))
        engine = Engine(inputs, n)
        if engine.infeasible:
            continue
        best, snap = engine.query()
        pins = [
            engine.pin(AncStatement(x, y, Ancestry.CAUSES), rng.random() < 0.5)
            for x, y in rng.sample([(x, y) for x in range(n) for y in range(n) if x != y], 3)
        ]
        queries = [lambda pin=pin: engine.query([pin]) for pin in pins]
        queries.append(lambda: engine.witness(best, snap))
        for run in queries:
            run()
            engine._backjump(0)
            value, trail = engine.value, engine.trail
            assert sorted(tok for tok in range(len(value)) if value[tok]) == sorted(trail)
            assert_at_matches_trail(engine)
            assert engine.cost == engine.offset + sum(engine.cost_of[tok] for tok in trail)
            checked += 1
    assert checked > 0


class FullWakeEngine(Engine):
    """An engine whose level-0 flush wakes the full ``wakes`` index of the
    tables for every token, the hard ones included: the reference for the
    closing index."""

    def _flush(self, wakes=None):
        return super()._flush()


def hard_input_instances(rng, count):
    """``count`` seeded instances at n = 3-6 with hard inputs: the oracle
    statements up to order 2 of a random DAG over n + 1 variables (one of
    them latent), each flipped with probability 0.1 in every other
    instance, made hard at a share of 0, 0.2, 0.5 or 1 and soft otherwise,
    and up to three ancestral statements, hard or soft. Each comes with
    forced features for its options. The flipped instances make some
    engines infeasible."""
    out = []
    for case in range(count):
        n = 3 + case % 4
        share = (0.0, 0.2, 0.5, 1.0)[case // 4 % 4]
        noise = 0.1 if case % 2 else 0.0
        inputs = []
        for item in dag_oracle_inputs(random_dag(n + 1, 0.35, rng), n, min(2, n - 2)):
            stmt = item.statement
            pol = stmt.polarity.flipped() if rng.random() < noise else stmt.polarity
            w = Weight.hard() if rng.random() < share else W(rng.randint(1, 5000))
            inputs.append(WeightedInput(CiStatement(stmt.x, stmt.y, stmt.cond, pol), w))
        for _ in range(rng.randint(0, 3)):
            x, y = rng.sample(range(n), 2)
            w = Weight.hard() if rng.random() < 0.5 else W(rng.randint(1, 5000))
            inputs.append((causes if rng.random() < 0.5 else not_causes)(x, y, w))
        x, y = rng.sample(range(n), 2)
        forced = ((AncStatement(x, y, Ancestry.CAUSES), rng.random() < 0.5),)
        out.append((n, inputs, forced if case % 3 == 2 else ()))
    return out


def test_level0_flush_matches_the_full_index():
    """Compile's level-0 flush, where each hard token wakes only the
    entries of ``wakes`` it closes, leaves the state that the full index
    gives: the same trail in order, ``at``, reasons, levels, running cost,
    conflict and ``infeasible``, on feasible and infeasible instances with
    hard CI and ancestral inputs and forced features; up to n = 5 the base
    query then answers alike with the same nodes. The hard tokens skip
    entries."""
    rng = random.Random(43)
    feasible = infeasible = skipped = 0
    for n, inputs, forced in hard_input_instances(rng, 48):
        options = SolveOptions(forced_features=forced)
        got, want = Engine(inputs, n, options), FullWakeEngine(inputs, n, options)
        assert got.trail == want.trail
        assert got.at == want.at and got.value == want.value
        assert got.reason == want.reason and got.level == want.level
        assert (got.cost, got.qhead, got.conflict) == (want.cost, want.qhead, want.conflict)
        assert got.infeasible == want.infeasible
        if n <= 5:
            assert got.query() == want.query() and got.nodes == want.nodes
        infeasible += got.infeasible
        feasible += not got.infeasible
        tab = got.tables
        hard = [tok for tok in got.trail if got.reason[tok >> 1] == ()]
        skipped += sum(len(tab.wakes[tok]) - len(tab.closes[tok]) for tok in hard)
    assert feasible > 0 and infeasible > 0 and skipped > 0


def test_closing_index_keeps_the_entries_each_token_closes():
    """``closes[tok]`` holds, in their order, exactly the entries of
    ``wakes[tok]`` that need no token above ``tok`` true: the gate sets
    whose largest token is ``tok``, and the multi-literal clauses whose
    gate tokens all lie below ``tok``, read off the clause table."""
    rng = random.Random(47)
    checked = set()
    for n, inputs, _ in hard_input_instances(rng, 8):
        tab = Engine(inputs, n).tables
        if id(tab) in checked:
            continue
        checked.add(id(tab))
        assert len(tab.closes) == len(tab.wakes)
        for tok, entries in enumerate(tab.wakes):
            want = [e for e in entries if max({tok, *tab.cl_gate_toks[e[2][0]]}) == tok]
            assert list(tab.closes[tok]) == want, tok
    assert len(checked) >= 4


def test_refuted_pins_are_answered_at_once():
    """Query sequences on hard-input instances at n = 3-5 mix pins refuted
    at level 0, pins that conflict only once level 1 propagates them, and
    pins whose negation holds only on the previous query's trail. Every
    answer is the brute-force minimum under the pin where brute force
    reaches (n <= 4, at most 16 inputs), else a fresh engine's, and a
    refuted pin is answered without a search. Dropping the level-0
    refuted queries from a sequence leaves every other answer and the node
    count after it unchanged."""
    rng = random.Random(53)
    kinds = Counter()
    brute = 0
    for n, inputs, _ in hard_input_instances(rng, 40):
        if n > 5:
            continue
        engine = Engine(inputs, n)
        if engine.infeasible:
            continue

        def reference(pin):
            nonlocal brute
            x, y = divmod(pin >> 1, n)
            hard = (causes if pin & 1 == 0 else not_causes)(x, y)
            if n > 4 or len(inputs) >= 16:
                return Engine(inputs + [hard], n).query()[0]
            brute += 1
            r = brute_force_min_loss(inputs + [hard], n)
            return None if r.min_loss.is_hard else r.min_loss.millis

        pins = [2 * (x * n + y) + b for x in range(n) for y in range(n) if x != y for b in (0, 1)]
        refuted = [p for p in pins if engine.value[p ^ 1]]
        late = []
        for p in pins:
            fresh = Engine(inputs, n)
            if not engine.value[p ^ 1] and not fresh._assume([p]):
                late.append(p)
        engine.query()
        sequence = []
        for _ in range(8):
            kind = rng.choice(("refuted", "late", "previous", "any"))
            if kind == "previous":
                # the negation holds on the trail the previous query left
                # above level 0
                choice = [p for p in pins if engine.value[p ^ 1] and engine.level[p >> 1] > 0]
            else:
                choice = {"refuted": refuted, "late": late, "any": pins}[kind]
            if not choice:
                continue
            pin = rng.choice(choice)
            nodes = engine.nodes
            answer = engine.query([pin])[0]
            assert answer == reference(pin), (kind, pin)
            if pin in refuted:
                assert answer is None and engine.nodes == nodes
            kinds[kind] += 1
            sequence.append((pin, answer, engine.nodes))
        again = Engine(inputs, n)
        again.query()
        for pin, answer, nodes in sequence:
            if pin not in refuted:
                assert (again.query([pin])[0], again.nodes) == (answer, nodes), pin
    assert all(kinds[kind] > 0 for kind in ("refuted", "late", "previous")), kinds
    assert brute > 0


# -- snapshot readers ---------------------------------------------------------------

def test_holds_agrees_with_joint_from_snap():
    rng = random.Random(61)
    unassigned = 0
    for _ in range(40):
        n = rng.randint(3, 4)
        engine = Engine(random_instance(rng, n=n), n)
        snap = engine.query()[1]
        if snap is None:
            continue
        joint = engine.joint(snap)
        for x in range(n):
            for y in range(n):
                if x == y:
                    continue
                tok = (x * n + y) * 2
                reach = joint.structure.reach(x, y)
                assert engine.holds(snap, tok) == reach
                assert engine.holds(snap, tok + 1) == (not reach)
                unassigned += not (snap[tok] or snap[tok + 1])
        for i, t in enumerate(engine.tables.triples):
            tok = engine.pol_base + 2 * i
            indep_holds = joint.ci.truth[t] is INDEP
            assert engine.holds(snap, tok) == indep_holds
            assert engine.holds(snap, tok + 1) == (not indep_holds)
    # every completion assigns every reachability variable, constrained or not
    assert unassigned == 0


def test_forced_queries_reuse_the_pool_exactly():
    """After the base query, one engine answers every forced pin in a
    shuffled order, each query seeded from the completions that the
    queries before it accepted: every minimum is the fresh one, every
    snapshot is an optimum under its pin, and a pin that a pooled
    completion at the base minimum satisfies is answered without search."""
    rng = random.Random(73)
    from_pool = 0
    for case in range(10):
        n = 4 if case < 6 else 5
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        inputs = []
        for _ in range(rng.randint(4, 8)):
            x, y = rng.sample(range(n), 2)
            others = [v for v in range(n) if v not in (x, y)]
            cond = rng.sample(others, rng.randint(0, 2))
            make = indep if rng.random() < 0.5 else dep
            inputs.append(make(x, y, cond, W(rng.randint(1, 5000))))
        for x, y in rng.sample(pairs, rng.randint(1, 3)):
            make = causes if rng.random() < 0.5 else not_causes
            inputs.append(make(x, y, W(rng.randint(1, 5000))))
        if case % 3 == 0:
            x, y = rng.choice(pairs)
            inputs.append((causes if rng.random() < 0.5 else not_causes)(x, y))
        engine = Engine(inputs, n)
        floor = engine.query()[0]
        assert engine.floor == floor
        forced = [(x, y, hold) for x, y in pairs for hold in (True, False)]
        rng.shuffle(forced)
        for x, y, hold in forced:
            feature = AncStatement(x, y, Ancestry.CAUSES)
            pin = engine.pin(feature, hold)
            at_floor = any(c == floor and engine.holds(s, pin) for c, s in engine.pool)
            nodes = engine.nodes
            best, snap = engine.query([pin])
            if n == 4:
                hard = (causes if hold else not_causes)(x, y)
                want = brute_force_min_loss(inputs + [hard], n).min_loss
            else:
                options = SolveOptions(forced_features=((feature, hold),))
                want = solve_min_loss(inputs, n, options, build_witness=False).min_loss
            assert (Weight.hard() if best is None else W(best)) == want
            if best is not None:
                assert engine.holds(snap, pin)
                assert loss(engine.joint(snap), inputs) == W(best)
            if at_floor:
                assert engine.nodes == nodes
                from_pool += 1
    assert from_pool > 0


def test_floor_answers_leave_the_search_state_alone():
    """A forced query that a pooled completion at the base minimum answers
    returns that completion before it backjumps: the trail, the frames,
    the learned clauses and their watches are unchanged, and it adds no
    search node."""
    rng = random.Random(89)
    answered = 0
    for case in range(8):
        n = 4 + case % 2
        inputs = random_instance(rng, n, max_inputs=3 * n, anc_share=0.3)
        engine = Engine(inputs, n)
        floor = engine.query()[0]
        if floor is None:
            continue
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        forced = [(x, y, hold) for x, y in pairs for hold in (True, False)]
        rng.shuffle(forced)
        for x, y, hold in forced:
            pin = engine.pin(AncStatement(x, y, Ancestry.CAUSES), hold)
            pooled = [s for c, s in engine.pool if c == floor and engine.holds(s, pin)]
            state = copy.deepcopy((engine.trail, engine.frames, engine.learned, engine.watches))
            nodes = engine.nodes
            best, snap = engine.query([pin])
            if pooled:
                assert (best, snap) == (floor, min(pooled))
                assert (engine.trail, engine.frames, engine.learned, engine.watches) == state
                assert engine.nodes == nodes
                answered += 1
    assert answered > 0


def test_forced_queries_stop_at_the_base_minimum():
    """A forced query whose minimum is the base minimum stops at its first
    completion of that cost, even when no pooled completion reaches it.
    Each forced query that no pooled completion at the floor answers runs
    on an engine fresh from the base query and on its twin whose floor is
    unset: the answers are equal, and the twins' summed nodes are higher."""
    rng = random.Random(97)
    nodes = {True: 0, False: 0}
    stopped = 0
    for case in range(10):
        n = 4 + case % 2
        inputs = random_instance(rng, n, max_inputs=4 * n, anc_share=0.3)
        base = Engine(inputs, n)
        floor = base.query()[0]
        if floor is None:
            continue
        for x, y in [(x, y) for x in range(n) for y in range(n) if x != y]:
            for hold in (True, False):
                pin = base.pin(AncStatement(x, y, Ancestry.CAUSES), hold)
                if any(c == floor and base.holds(s, pin) for c, s in base.pool):
                    continue
                answers = set()
                for keep_floor in (True, False):
                    engine = Engine(inputs, n)
                    engine.query()
                    if not keep_floor:
                        engine.floor = None
                    before = engine.nodes
                    answers.add(engine.query([pin])[0])
                    nodes[keep_floor] += engine.nodes - before
                assert len(answers) == 1
                stopped += answers == {floor}
    assert stopped > 0
    assert nodes[True] < nodes[False]


# -- progression thresholds ---------------------------------------------------------

class RoundLoggingEngine(Engine):
    """An engine that logs every search as ``(threshold, lo, found,
    nodes)``: the cost of the virtual incumbent it starts under, None when
    it starts under a completion; the cost ``lo`` at which a completion
    ends it; whether it found a completion; and the nodes it took. A
    search under a threshold is one round of a query's progression loop,
    or a witness probe under ``best + 1``. Every search starts under an
    incumbent, real or virtual. No search starts once the log holds
    ``max_searches``, so that a loop that rounds too often fails at once.
    ``completed_at`` is the node count at the last completion reached."""

    def __init__(self, *args):
        self.searches = []
        self.max_searches = math.inf
        self.completed_at = None
        super().__init__(*args)

    def _next_decision(self):
        var = super()._next_decision()
        if var is None:
            self.completed_at = self.nodes
        return var

    def _search(self, lo):
        assert self.best_cost is not None
        assert len(self.searches) < self.max_searches
        threshold = self.best_cost if self.best_snap is None else None
        nodes = self.nodes
        super()._search(lo)
        self.searches.append((threshold, lo, self.best_snap is not None, self.nodes - nodes))


def assert_forced_minimum(engine, inputs, n, forced, best, snap):
    """``(best, snap)`` is brute force's minimum under the forced features
    ``((x, y, hold), ...)`` of ``x`` causes ``y``, and an optimum under them."""
    hard = [(causes if hold else not_causes)(x, y) for x, y, hold in forced]
    want = brute_force_min_loss(inputs + hard, n).min_loss
    assert (Weight.hard() if best is None else W(best)) == want
    if best is not None:
        for x, y, hold in forced:
            assert engine.holds(snap, engine.pin(AncStatement(x, y, Ancestry.CAUSES), hold))
        assert loss(engine.joint(snap), inputs) == W(best)


def all_forced(n):
    """Every forced feature ``(x, y, hold)`` of ``x`` causes ``y`` at n."""
    return [(x, y, hold) for x in range(n) for y in range(n) if x != y for hold in (True, False)]


def forced_pins(engine, forced):
    return [engine.pin(AncStatement(x, y, Ancestry.CAUSES), hold) for x, y, hold in forced]


@st.composite
def pin_sequences(
    draw, weights=st.integers(-1, 5000).map(lambda w: Weight.hard() if w < 0 else W(w))
):
    """An instance at n = 3..4 of at most 12 inputs, CI statements up to
    order 1 and ancestral statements, of ``weights`` (by default a few of
    them hard), and a sequence of queries of 0 to 2 forced features each."""
    n = draw(st.integers(3, 4))
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    inputs = []
    for _ in range(draw(st.integers(1, 12))):
        x, y = draw(st.sampled_from(pairs))
        if draw(st.booleans()):
            make = draw(st.sampled_from((causes, not_causes)))
            inputs.append(make(x, y, draw(weights)))
        else:
            others = [v for v in range(n) if v not in (x, y)]
            cond = draw(st.lists(st.sampled_from(others), unique=True, max_size=1))
            make = draw(st.sampled_from((indep, dep)))
            inputs.append(make(x, y, cond, draw(weights)))
    forced = st.tuples(st.sampled_from(pairs), st.booleans()).map(lambda p: (*p[0], p[1]))
    queries = draw(st.lists(st.lists(forced, max_size=2), min_size=1, max_size=10))
    return n, inputs, queries


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pin_sequences())
def test_guessed_thresholds_match_brute_force(case):
    """One engine answers a random sequence of queries; every forced
    minimum, whether its search started under a guessed threshold or not,
    is brute force's, and every optimum satisfies its pins."""
    n, inputs, queries = case
    engine = Engine(inputs, n)
    for forced in queries:
        best, snap = engine.query(forced_pins(engine, forced))
        assert_forced_minimum(engine, inputs, n, forced, best, snap)


class HardeningCountEngine(Engine):
    """An engine that counts the tokens objective propagation sets false."""

    def __init__(self, *args):
        self.hardened = 0
        super().__init__(*args)

    def _assign(self, tok, reason):
        self.hardened += type(reason) is solver._Hardened
        return super()._assign(tok, reason)


def test_hardened_minima_match_brute_force():
    """One engine answers a random sequence of queries on soft and hard
    inputs, then builds the lex witness from every pooled optimum: every
    minimum, searched with objective propagation under pooled, guessed or
    found incumbents, is brute force's, and so is every witness, whose
    probes propagate under ``best + 1``. Weights of 1 to 3 make a reduced
    cost meet the slack exactly, large ones make covers pick among many
    tokens. Some instances harden tokens."""
    hardened = []
    weights = st.one_of(
        st.just(Weight.hard()),
        st.just(W(1)),
        st.integers(1, 3).map(W),
        st.integers(0, 5000).map(W),
    )

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(pin_sequences(weights))
    def check(case):
        n, inputs, queries = case
        engine = HardeningCountEngine(inputs, n)
        for forced in queries:
            best, snap = engine.query(forced_pins(engine, forced))
            assert_forced_minimum(engine, inputs, n, forced, best, snap)
        best, snap = engine.query()
        assert_forced_minimum(engine, inputs, n, [], best, snap)
        if best is not None:
            want = brute_force_min_loss(inputs, n).witness
            for start in [snap] + [s for c, s in engine.pool if c == best]:
                got = engine.joint(engine.witness(best, start))
                assert (got.structure, got.ci.truth) == (want.structure, want.ci.truth)
        hardened.append(engine.hardened)

    check()
    assert any(hardened)


def test_guessed_thresholds_hold_and_fail():
    """Forced queries on seeded n = 4 instances start under thresholds
    that a completion beats and thresholds that the minimum exceeds, so
    that a later round searches under a higher one; every minimum is brute
    force's either way. A query that no pooled completion serves starts
    under a threshold, whatever ``excess``: every search it runs is a
    round, and it runs one unless its pins contradict."""
    rng = random.Random(11)
    outcomes = {True: 0, False: 0}
    unguided = 0
    for case in range(20):
        inputs = random_instance(rng, 4, max_inputs=10, anc_share=0.4)
        engine = RoundLoggingEngine(inputs, 4)
        if engine.query()[0] is None:
            continue
        assert engine.costly
        forced = all_forced(4)
        rng.shuffle(forced)
        for feature in forced:
            pins = forced_pins(engine, [feature])
            fits = any(all(engine.holds(s, p) for p in pins) for _, s in engine.pool)
            excess, start = engine.excess, len(engine.searches)
            best, snap = engine.query(pins)
            assert_forced_minimum(engine, inputs, 4, [feature], best, snap)
            rounds = engine.searches[start:]
            if not fits:
                assert rounds or best is None
                assert all(threshold is not None for threshold, *_ in rounds)
                unguided += bool(rounds) and excess == 0
            for threshold, _, found, _ in rounds:
                if threshold is not None:
                    outcomes[found] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0 and unguided > 0


def check_rounds(engine, pins, largest):
    """Pose ``pins`` and check the rounds of the query's progression loop
    (see :func:`test_progression_rounds_keep_their_invariants`). Returns
    the query's answer and its number of rounds."""
    fits = any(all(engine.holds(s, p) for p in pins) for _, s in engine.pool)
    base = engine.offset if engine.floor is None else engine.floor
    gap = engine.excess or min(c for c in engine.cost_of if c)
    start = len(engine.searches)
    engine.max_searches = start + math.log2(largest / gap) + 2
    best, snap = engine.query(pins)
    engine.max_searches = math.inf
    rounds = engine.searches[start:]
    if fits:
        assert all(threshold is None for threshold, *_ in rounds)
        return (best, snap), 0
    assert rounds or best is None
    thresholds = [threshold for threshold, *_ in rounds]
    assert None not in thresholds
    assert thresholds == [base + 2 ** (k + 1) * gap + 1 for k in range(len(rounds))]
    assert [lo for _, lo, *_ in rounds] == [base, *thresholds][: len(rounds)]
    assert not any(found for _, _, found, _ in rounds[:-1])
    if best is not None:
        assert all(threshold <= best for threshold in thresholds[:-1])
        assert rounds[-1][2] and best < thresholds[-1]
    return (best, snap), len(rounds)


def test_progression_rounds_keep_their_invariants():
    """Base, forced and lex-witness queries on seeded n = 4..6 instances
    with hard inputs, ancestral costs and forced features, logged round by
    round. A query that no pooled completion serves runs only rounds:
    their thresholds are ``base + 2 ** k * gap + 1`` for k = 1, 2, ...,
    ``base`` being the floor (``offset`` before there is one) and ``gap``
    the first gap below; the first round ends at a completion of the
    floor's cost, or of ``offset`` before there is a floor, and each later
    one at the threshold before it; every exhausted threshold is at most
    the minimum; only the last round finds a completion, and it costs less
    than its threshold; and the rounds number at most log2(largest cost /
    first gap) + 2, the largest cost being the sum of the soft weights and
    the first gap ``excess``, or the smallest positive reduced cost while
    ``excess`` is 0. A query that a pooled completion serves runs no round.
    At n = 4 every minimum is brute force's. Every witness probe is one
    search under ``best + 1`` that ends at ``best``. Half the instances
    have weights below 10, so that a minimum often meets a threshold."""
    rng = random.Random(29)
    rounds = {"base": 0, "forced": 0, "excess": 0, "several": 0, "probes": 0}
    for case in range(24):
        n = 4 + case % 3
        max_weight = 9 if case % 6 < 3 else 5000
        max_inputs = 3 * n if n == 4 else 6 * n
        inputs = random_instance(rng, n, max_inputs=max_inputs, max_weight=max_weight)
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        if case % 2:
            x, y = rng.choice(pairs)
            inputs.append((causes if rng.random() < 0.5 else not_causes)(x, y))
        always = []
        if case % 4 >= 2:
            always = [(*rng.choice(pairs), rng.random() < 0.5)]
        options = SolveOptions(
            forced_features=tuple(
                (AncStatement(x, y, Ancestry.CAUSES), hold) for x, y, hold in always
            )
        )
        engine = RoundLoggingEngine(inputs, n, options)
        if not engine.costly:
            continue
        largest = sum(i.weight.millis for i in inputs if not i.weight.is_hard)
        queries = [[]] + [rng.sample(all_forced(n), rng.randint(1, 2)) for _ in range(6)]
        for i, forced in enumerate(queries):
            excess = engine.excess
            (best, snap), count = check_rounds(engine, forced_pins(engine, forced), largest)
            key = "base" if not forced else "excess" if excess else "forced"
            rounds[key] += count
            rounds["several"] += count > 1
            if n == 4:
                assert_forced_minimum(engine, inputs, n, always + forced, best, snap)
            if i == 0 and best is not None:
                start = len(engine.searches)
                engine.witness(best, snap)
                probes = engine.searches[start:]
                assert all((threshold, lo) == (best + 1, best) for threshold, lo, *_ in probes)
                rounds["probes"] += len(probes)
    assert all(rounds.values()), rounds


def test_progression_rounds_stop_where_their_proofs_end():
    """Base and forced queries on seeded n = 4 instances with soft weights
    of 1 to 9, so that minima often meet thresholds, and hard CI inputs,
    so that some pins fail only in the search. For every query that runs
    rounds: the k-th threshold is ``base + 2 ** k * gap + 1`` from the
    floor (``offset`` before there is one) and the first gap (``excess``,
    or the smallest positive reduced cost while it is 0); no round before
    the last has a threshold above ``ceiling``; and a minimum that equals
    the last round's lower bound, the floor or the threshold of the round
    before, is returned at the completion that meets it, with no node and
    no conflict after it. Some minima meet an exhausted threshold, and
    some queries end above ``ceiling``. Every minimum is brute force's."""
    rng = random.Random(37)
    met = infeasible = 0
    for case in range(40):
        inputs = with_hard_ci(rng, random_instance(rng, 4, max_inputs=14, max_weight=9), 0.3)
        engine = RoundLoggingEngine(inputs, 4)
        if engine.infeasible or not engine.costly:
            continue
        largest = sum(i.weight.millis for i in inputs if not i.weight.is_hard)
        queries = [[]] + [[f] for f in rng.sample(all_forced(4), 8)]
        for forced in queries:
            pins = forced_pins(engine, forced)
            base = engine.offset if engine.floor is None else engine.floor
            gap = engine.excess or min(c for c in engine.cost_of if c)
            start = len(engine.searches)
            engine.max_searches = start + math.log2(largest / gap) + 2
            best, snap = engine.query(pins)
            assert_forced_minimum(engine, inputs, 4, forced, best, snap)
            thresholds = [threshold for threshold, *_ in engine.searches[start:]]
            if None in thresholds or not thresholds:
                continue
            assert thresholds == [base + 2 ** (k + 1) * gap + 1 for k in range(len(thresholds))]
            assert all(threshold <= engine.ceiling for threshold in thresholds[:-1])
            if best is None:
                infeasible += thresholds[-1] > engine.ceiling
            elif best == ([base] + thresholds)[len(thresholds) - 1]:
                assert engine.conflict is None and engine.nodes == engine.completed_at
                met += len(thresholds) > 1
    assert met > 0 and infeasible > 0, (met, infeasible)


def test_timeout_under_a_guess_reports_only_found_completions(monkeypatch):
    """A deadline that passes in any round of a query's progression loop,
    the pinless base query's or a forced query's, raises
    :class:`SolveTimeoutError` whose bound is the cost of the cheapest
    completion that the query found, or None when it found none: never a
    threshold. ``solve_min_loss`` with the matching time limit raises the
    same bound from the base query. The engine then answers the query
    exactly."""
    clock = _Clock()
    monkeypatch.setattr(solver, "time", clock)
    rng = random.Random(31)
    bounds = {True: 0, False: 0}
    later_rounds = {"base": 0, "forced": 0}

    def stops(searches):
        """Nodes at which to stop: the first, the middle and the last, and
        the first of every round after the first."""
        total = sum(nodes for *_, nodes in searches)
        starts = [sum(nodes for *_, nodes in searches[:k]) + 1 for k in range(1, len(searches))]
        return sorted({1, (total + 1) // 2, total, *(s for s in starts if s <= total)}), starts

    for case in range(12):
        n = 4 + case % 2
        inputs = random_instance(rng, n, max_inputs=3 * n, anc_share=0.4)
        reference = RoundLoggingEngine(inputs, n)
        want_base = reference.query()
        if want_base[0] is None:
            continue
        at, starts = stops(reference.searches)
        for stop in at:
            engine = Engine(inputs, n)
            # one clock reading at the query's start, then one per node:
            # the deadline passes at its node ``stop``
            engine.deadline = clock.now + stop
            with pytest.raises(SolveTimeoutError) as exc:
                engine.query()
            found = [c for c, _ in engine.pool]
            assert exc.value.best_bound == (W(min(found)) if found else None)
            # one reading at compile, one at the query's start, one per node
            with pytest.raises(SolveTimeoutError) as timed:
                solve_min_loss(inputs, n, SolveOptions(time_limit=stop))
            assert timed.value.best_bound == exc.value.best_bound
            bounds[bool(found)] += 1
            later_rounds["base"] += stop >= min(starts, default=stop + 1)
            engine.deadline = None
            assert engine.query() == want_base
        pins = forced_pins(reference, rng.sample(all_forced(n), 12))
        for i, pin in enumerate(pins):
            start = len(reference.searches)
            want = reference.query([pin])
            searches = reference.searches[start:]
            if not searches or searches[0][0] is None:
                continue
            at, starts = stops(searches)
            for stop in at:
                engine = Engine(inputs, n)
                for earlier in [(), *([p] for p in pins[:i])]:
                    engine.query(earlier)
                engine.deadline = clock.now + stop
                # the pool is kept sorted, so the query's completions are
                # its multiset difference against a copy from before it
                pooled = Counter(engine.pool)
                with pytest.raises(SolveTimeoutError) as exc:
                    engine.query([pin])
                found = [c for c, _ in (Counter(engine.pool) - pooled).elements()]
                assert exc.value.best_bound == (W(min(found)) if found else None)
                bounds[bool(found)] += 1
                later_rounds["forced"] += stop >= min(starts, default=stop + 1)
                engine.deadline = None
                assert engine.query([pin])[0] == want[0]
    assert bounds[True] > 0 and bounds[False] > 0
    assert all(later_rounds.values()), later_rounds


def test_progression_ends_on_infeasible_and_all_hard_instances():
    """Soft costs with hard inputs that contradict only in the search,
    not at level 0, make the base query exhaust rounds until one's
    threshold exceeds the largest completion cost, ``ceiling``, within the
    round bound of :func:`test_progression_rounds_keep_their_invariants`,
    and return ``(None, None)``; ``solve_min_loss`` returns the hard
    weight, as brute force does. On an all-hard instance every completion
    costs ``offset`` (0), which is also ``ceiling``: its base query and each
    forced query that the pool does not answer search one round, under
    the threshold ``offset + 1`` down to ``offset``, which finds a
    completion when the pins allow one."""
    rng = random.Random(3)
    infeasible = rounds = 0
    while infeasible < 6:
        inputs = []
        for _ in range(rng.randint(3, 8)):
            x, y = rng.sample(range(4), 2)
            cond = rng.sample([v for v in range(4) if v not in (x, y)], rng.randint(0, 1))
            inputs.append((indep if rng.random() < 0.5 else dep)(x, y, cond))
        for _ in range(rng.randint(1, 4)):
            x, y = rng.sample(range(4), 2)
            make = causes if rng.random() < 0.5 else not_causes
            inputs.append(make(x, y, W(rng.randint(1, 5000))))
        engine = RoundLoggingEngine(inputs, 4)
        if engine.infeasible or brute_force_min_loss(inputs, 4).feasible:
            continue
        largest = sum(i.weight.millis for i in inputs if not i.weight.is_hard)
        engine.max_searches = math.log2(largest / min(c for c in engine.cost_of if c)) + 2
        assert engine.query() == (None, None)
        assert solve_min_loss(inputs, 4).min_loss == Weight.hard()
        thresholds = [threshold for threshold, *_ in engine.searches]
        assert None not in thresholds
        assert all(t <= engine.ceiling for t in thresholds[:-1]) and thresholds[-1] > engine.ceiling
        assert engine.floor is None and engine.pool == []
        infeasible += 1
        rounds += len(thresholds)
    assert rounds > infeasible
    forced_rounds = 0
    for case in range(6):
        n = 4 + case % 2
        inputs = dag_oracle_inputs(random_dag(n + 1, 0.4, rng), n, 1)
        engine = RoundLoggingEngine(inputs, n)
        assert not engine.costly and engine.offset == engine.ceiling == 0
        for pins in [[]] + [forced_pins(engine, [f]) for f in rng.sample(all_forced(n), 6)]:
            start = len(engine.searches)
            engine.max_searches = start + 1
            best, _ = engine.query(pins)
            assert best in (None, engine.offset)
            want = (engine.offset + 1, engine.offset, best is not None)
            assert all(search[:3] == want for search in engine.searches[start:])
        assert engine.searches[0][2]  # the base query's one round
        forced_rounds += len(engine.searches) - 1
    assert forced_rounds > 0


# -- lex witness -------------------------------------------------------------------

def witness_cases(rng, count):
    """Seeded instances at n = 4..6 that mix hard inputs, ancestral costs
    and forced features, each with its options; at n = 4 an instance has
    at most 16 inputs once its forced features count."""
    for case in range(count):
        n = 4 + case % 3
        inputs = random_instance(rng, n, max_inputs=3 * n, anc_share=0.3)
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        if case % 2:
            x, y = rng.choice(pairs)
            inputs.append((causes if rng.random() < 0.5 else not_causes)(x, y))
        forced = ()
        if case % 4 >= 2:
            x, y = rng.choice(pairs)
            forced = ((AncStatement(x, y, Ancestry.CAUSES), rng.random() < 0.5),)
        yield n, inputs, SolveOptions(forced_features=forced)


def test_witness_matches_the_per_query_reference():
    """The witness built on one trail is the one that re-posing every pin
    through ``Engine.query`` builds, and at n = 4 brute force's. It leaves
    the assumption level at 1: forced queries after it keep their exact
    minima, and a witness after them, started from any pooled optimum,
    is the same."""
    rng = random.Random(83)
    probed = other_starts = 0
    for n, inputs, options in witness_cases(rng, 24):
        engine = Engine(inputs, n, options)
        best, snap = engine.query()
        if best is None:
            continue
        twin = Engine(inputs, n, options)
        want = reference_lex_witness(twin, *twin.query())
        nodes = engine.nodes
        got = engine.joint(engine.witness(best, snap))
        probed += engine.nodes > nodes
        assert engine.root == 1
        assert (got.structure, got.ci.truth) == (want.structure, want.ci.truth)
        assert loss(got, inputs) == W(best)
        if n == 4:
            hard = [
                (causes if hold else not_causes)(f.cause, f.effect)
                for f, hold in options.forced_features
            ]
            slow = brute_force_min_loss(inputs + hard, n)
            assert slow.min_loss == W(best)
            assert (got.structure, got.ci.truth) == (slow.witness.structure, slow.witness.ci.truth)
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        for x, y in rng.sample(pairs, 3):
            pin = engine.pin(AncStatement(x, y, Ancestry.CAUSES), rng.random() < 0.5)
            assert engine.query([pin])[0] == Engine(inputs, n, options).query([pin])[0]
        # a start that is not the lex-smallest optimum makes probes succeed
        for start in [s for c, s in engine.pool if c == best]:
            begun = engine.joint(start)
            other_starts += (begun.structure, begun.ci.truth) != (got.structure, got.ci.truth)
            again = engine.joint(engine.witness(best, start))
            assert (again.structure, again.ci.truth) == (got.structure, got.ci.truth)
    assert probed > 0 and other_starts > 0


def test_witness_rejects_a_best_that_is_not_the_minimum():
    """A ``best`` one below or above the minimum makes some accepted pin
    conflict at level 1 on some models; the witness then raises
    ``RuntimeError`` under ``python -O`` too, with the assumption level
    back at 1, and the engine still builds the true witness afterwards."""
    tripped = {-1: 0, 1: 0}
    for m in range(12):
        scm = random_linear_model(6, 1, 0.3, seed=[0, m, 0])
        data = sample_data(scm, 500, seed=[0, m, 1])
        inputs = ci_inputs_from_data(data, CiTestConfig(max_order=1))
        engine = Engine(inputs, 6)
        best, snap = engine.query()
        if best == 0:
            continue
        for delta in tripped:
            try:
                engine.witness(best + delta, snap)
            except RuntimeError:
                tripped[delta] += 1
            assert engine.root == 1
        got = engine.joint(engine.witness(best, snap))
        want = solve_min_loss(inputs, 6).witness
        assert (got.structure, got.ci.truth) == (want.structure, want.ci.truth)
    assert tripped[-1] > 0 and tripped[1] > 0


def test_pool_holds_valid_completions():
    """Every completion in ``Engine.pool``, whether a base, forced or
    witness search accepted it, is consistent, costs what the pool records
    and satisfies the options' forced features, so it is a feasible
    incumbent for every later query whose pins it satisfies. It is a full
    assignment: it sets exactly one token of every off-diagonal
    reachability variable and of every polarity variable, also on sparse
    instances where some ordered pairs are in no input."""
    rng = random.Random(61)
    cases = list(witness_cases(rng, 24))
    for n in (5, 6):
        for m in range(6):
            scm = random_linear_model(n, 1, 0.3, seed=[0, m, 0])
            data = sample_data(scm, 500, seed=[0, m, 1])
            cases.append((n, ci_inputs_from_data(data, CiTestConfig(max_order=1)), SolveOptions()))
    for case in range(12):
        n = 4 + case % 3
        cases.append((n, random_instance(rng, n, max_inputs=4, anc_share=0.3), SolveOptions()))
    from_witness = 0
    for n, inputs, options in cases:
        engine = Engine(inputs, n, options)
        best, snap = engine.query()
        if best is None:
            continue
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        for x, y in rng.sample(pairs, 4):
            engine.query([engine.pin(AncStatement(x, y, Ancestry.CAUSES), rng.random() < 0.5)])
        pooled = len(engine.pool)
        engine.witness(best, snap)
        from_witness += len(engine.pool) - pooled
        variables = [*engine.tables.lex_vars, *range(engine.pol_base // 2, engine.fact_base // 2)]
        for cost, completion in engine.pool:
            assert all(completion[2 * v] + completion[2 * v + 1] == 1 for v in variables)
            joint = engine.joint(completion)
            assert check_consistency(joint.structure, joint.ci)
            assert loss(joint, inputs) == W(cost)
            for feature, hold in options.forced_features:
                assert engine.holds(completion, engine.pin(feature, hold))
    assert from_witness > 0


def test_pool_stays_sorted_and_serves_its_cheapest_fit(monkeypatch):
    """``Engine.pool`` is in ascending ``(cost, snapshot)`` order after
    base, forced, timed-out and witness searches, on instances with hard
    and soft inputs and forced features. Whenever a query answers with the
    cost of the cheapest pooled completion that satisfies its pins, before
    or after a search, its answer is that completion as ``min`` over the
    pool picks it, snapshot included. Some queries are answered from the
    pool without search, some by a search, and some time out."""
    clock = _Clock()
    monkeypatch.setattr(solver, "time", clock)
    rng = random.Random(43)
    seen = {"served": 0, "searched": 0, "timed out": 0, "witness": 0}

    def query(engine, pins):
        fits = [e for e in engine.pool if all(engine.holds(e[1], p) for p in pins)]
        want = min(fits, default=(None, None))
        nodes = engine.nodes
        got = engine.query(pins)
        if want[0] is not None and got[0] == want[0]:
            assert got == want, (pins, got, want)
            seen["served"] += engine.nodes == nodes
        seen["searched"] += engine.nodes > nodes
        assert engine.pool == sorted(engine.pool)
        return got

    for n, inputs, options in witness_cases(rng, 24):
        inputs = with_hard_ci(rng, inputs, 0.2 if n % 2 else 0.0)
        engine = Engine(inputs, n, options)
        best, snap = query(engine, [])
        pins = forced_pins(engine, rng.sample(all_forced(n), 8))
        for pin in pins[:4]:
            query(engine, [pin])
        # one clock reading at the query's start, then one per node
        engine.deadline = clock.now + 3
        try:
            engine.query(pins[4:6])
        except SolveTimeoutError:
            seen["timed out"] += 1
        assert engine.pool == sorted(engine.pool)
        engine.deadline = None
        if best is not None:
            # the optimum of the largest snapshot makes the most probes
            pooled = len(engine.pool)
            engine.witness(best, max(s for c, s in engine.pool if c == best))
            seen["witness"] += len(engine.pool) > pooled
            assert engine.pool == sorted(engine.pool)
        for pin in pins[4:]:
            query(engine, [pin])
        query(engine, pins[6:])
    assert all(seen.values()), seen


class _Clock:
    """A monotonic clock that advances one second at each reading."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 1.0
        return self.now


def test_witness_timeout_leaves_a_usable_engine(monkeypatch):
    """A time limit that runs out inside the witness raises
    :class:`SolveTimeoutError` carrying the minimum, and puts the
    assumption level back at 1: the engine's next query has the same
    minimum, and its next witness is the untimed one."""
    # with one clock reading per node, the limit counts readings: one at
    # compile, one at the base query's start, then one per node
    monkeypatch.setattr(solver, "time", _Clock())
    rng = random.Random(89)
    timed_out = 0
    for n, inputs, options in witness_cases(rng, 24):
        engine = Engine(inputs, n, options)
        best, snap = engine.query()
        if best is None:
            continue
        base_nodes = engine.nodes
        want = engine.joint(engine.witness(best, snap))
        probe_nodes = engine.nodes - base_nodes
        if probe_nodes < 2:
            continue
        timed = dataclasses.replace(options, time_limit=1 + base_nodes + probe_nodes // 2)
        with pytest.raises(SolveTimeoutError) as exc:
            solve_min_loss(inputs, n, timed)
        assert exc.value.best_bound == W(best)
        engine = Engine(inputs, n, timed)
        assert engine.query() == (best, snap)
        with pytest.raises(SolveTimeoutError):
            engine.witness(best, snap)
        assert len(engine.frames) >= 2 and engine.root == 1
        engine.deadline = None
        best, snap = engine.query()
        assert best == exc.value.best_bound.millis
        got = engine.joint(engine.witness(best, snap))
        assert (got.structure, got.ci.truth) == (want.structure, want.ci.truth)
        timed_out += 1
    assert timed_out > 0


class ScanCheckedEngine(Engine):
    """An engine whose every heap decision is checked against the linear
    scan it replaces: the unassigned decision variable of highest activity,
    ties to the lowest index. Counts decisions and rescales."""

    def __init__(self, *args):
        self.decisions = self.rescales = 0
        super().__init__(*args)

    def _next_decision(self):
        var = super()._next_decision()
        free = [v for v in self.order if not self.assigned[v]]
        assert var == min(free, key=lambda v: (-self.act[v], v), default=None)
        self.decisions += 1
        return var

    def _bump(self, clause):
        inc = self.act_inc
        super()._bump(clause)
        self.rescales += self.act_inc < inc


@pytest.mark.parametrize("rescale", [None, 10.0])
def test_decision_heap_matches_linear_scan(rescale, monkeypatch):
    """Every decision of base, forced and lex-witness queries, on instances
    with hard inputs, ancestral costs and forced features, is the scan's
    choice; with a low rescale threshold the heap is rebuilt."""
    if rescale is not None:
        monkeypatch.setattr(solver, "_ACT_RESCALE", rescale)
    rng = random.Random(5)
    decisions = rescales = 0
    for case in range(12):
        n = 4 + case % 3
        inputs = random_instance(rng, n, max_inputs=8 * n, anc_share=0.25)
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        if case % 2:
            x, y = rng.choice(pairs)
            inputs.append((causes if rng.random() < 0.5 else not_causes)(x, y))
        forced = ()
        if case % 4 == 3:
            x, y = rng.choice(pairs)
            forced = ((AncStatement(x, y, Ancestry.CAUSES), rng.random() < 0.5),)
        engine = ScanCheckedEngine(inputs, n, SolveOptions(forced_features=forced))
        best, snap = engine.query()
        if best is not None:
            engine.witness(best, snap)
        for x, y in rng.sample(pairs, 4):
            engine.query([engine.pin(AncStatement(x, y, Ancestry.CAUSES), rng.random() < 0.5)])
        decisions += engine.decisions
        rescales += engine.rescales
    assert decisions > 0
    if rescale is not None:
        assert rescales > 0


class HardeningCheckedEngine(Engine):
    """An engine that checks objective propagation after every hardening
    pass and every backjump: every token of ``costly`` in front of
    ``scanned`` is assigned, and the reason of every hardened token on the
    trail, built as conflict analysis builds it, is made of trail tokens in
    front of it whose reduced costs, with that of the token set false,
    reach the incumbent it was hardened under, less ``offset``. Conflict
    analysis builds a cover only as such a reason, from the ``(threshold,
    end)`` that its token recorded. Counts the hardened tokens per
    assumption level, the reasons checked and the lazy reasons analyzed."""

    def __init__(self, *args):
        self.under = {}
        self.hardened = {1: 0, 2: 0}
        self.reasons = 0
        self.analyzed = 0
        self.analyzing = False
        super().__init__(*args)

    def _analyze(self):
        self.analyzing = True
        try:
            return super()._analyze()
        finally:
            self.analyzing = False

    def _cover(self, threshold, end):
        if self.analyzing:
            assert end < len(self.trail) and self.reason[self.trail[end] >> 1] == (threshold, end)
            self.analyzed += 1
        return super()._cover(threshold, end)

    def _assign(self, tok, reason):
        if type(reason) is solver._Hardened:
            self.under[tok >> 1] = self.best_cost
            self.hardened[self.root] += 1
        return super()._assign(tok, reason)

    def _harden(self):
        ok = super()._harden()
        self._check_hardening()
        return ok

    def _backjump(self, target_level):
        super()._backjump(target_level)
        self._check_hardening()

    def _check_hardening(self):
        assert all(self.assigned[tok >> 1] for tok in self.costly[: self.scanned])
        for pos, tok in enumerate(self.trail):
            reason = self.reason[tok >> 1]
            if type(reason) is solver._Hardened:
                cover = self._cover(*reason)
                assert set(cover) <= set(self.trail[:pos])
                total = sum(self.cost_of[t] for t in cover) + self.cost_of[tok ^ 1]
                assert total >= self.under[tok >> 1] - self.offset
                self.reasons += 1


def test_hardening_keeps_its_pointer_and_reasons():
    """Base, forced and lex-witness queries, on instances with hard inputs,
    ancestral costs and forced features, keep the hardening pointer behind
    the assigned prefix of ``costly`` and build every lazy reason from the
    trail in front of its token, in conflict analysis too; tokens harden in
    queries and in witness probes, and analysis resolves lazy reasons. Half
    the instances have weights below 10, so that reduced costs often meet
    the slack exactly."""
    rng = random.Random(7)
    hardened = {1: 0, 2: 0}
    reasons = analyzed = 0
    for case in range(16):
        n = 4 + case % 3
        max_weight = 9 if case % 8 < 4 else 5000
        inputs = random_instance(rng, n, max_inputs=6 * n, max_weight=max_weight, anc_share=0.3)
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        if case % 2:
            x, y = rng.choice(pairs)
            inputs.append((causes if rng.random() < 0.5 else not_causes)(x, y))
        forced = ()
        if case % 4 == 3:
            x, y = rng.choice(pairs)
            forced = ((AncStatement(x, y, Ancestry.CAUSES), rng.random() < 0.5),)
        engine = HardeningCheckedEngine(inputs, n, SolveOptions(forced_features=forced))
        best, snap = engine.query()
        for x, y in rng.sample(pairs, 4):
            engine.query([engine.pin(AncStatement(x, y, Ancestry.CAUSES), rng.random() < 0.5)])
        if best is not None:
            engine.witness(best, snap)
        for root in hardened:
            hardened[root] += engine.hardened[root]
        reasons += engine.reasons
        analyzed += engine.analyzed
    assert hardened[1] > 0 and hardened[2] > 0 and reasons > 0 and analyzed > 0


class TrailQueueCheckedEngine(Engine):
    """An engine that checks the trail queue after every ``_flush`` and
    every ``_backjump``: a flush without conflict leaves ``qhead`` at the
    end of the trail, ``qhead`` never passes the trail's end, and ``at``
    agrees with the trail, each trail token at its index and ``_NEVER``
    for every token not on it. Counts the checks per assumption level,
    the level-0 flushes of compile checked, and the flushes that
    conflicted."""

    def __init__(self, *args):
        self.checks = {1: 0, 2: 0}
        self.level0 = self.conflicts = 0
        super().__init__(*args)

    def _flush(self, wakes=None):
        ok = super()._flush(wakes)
        if ok:
            assert self.qhead == len(self.trail)
        else:
            self.conflicts += 1
        if self.trail and not self.frames:
            self.level0 += 1
        self._check_queue()
        return ok

    def _backjump(self, target_level):
        super()._backjump(target_level)
        self._check_queue()

    def _check_queue(self):
        assert self.qhead <= len(self.trail)
        assert_at_matches_trail(self)
        self.checks[self.root] += 1


def test_trail_queue_keeps_its_head_and_counters():
    """Base, forced and lex-witness queries, on instances with hard inputs,
    ancestral costs and forced features, keep the trail queue's invariant:
    every token in front of ``qhead`` has been propagated, and ``at`` is
    the trail's index of every true token and ``_NEVER`` for the others,
    also after conflicts and backjumps in queries and in witness probes."""
    rng = random.Random(13)
    checks = {1: 0, 2: 0}
    level0 = conflicts = 0
    for case in range(12):
        n = 4 + case % 3
        inputs = random_instance(rng, n, max_inputs=6 * n, anc_share=0.3)
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        if case % 2:
            x, y = rng.choice(pairs)
            inputs.append((causes if rng.random() < 0.5 else not_causes)(x, y))
        forced = ()
        if case % 4 == 3:
            x, y = rng.choice(pairs)
            forced = ((AncStatement(x, y, Ancestry.CAUSES), rng.random() < 0.5),)
        engine = TrailQueueCheckedEngine(inputs, n, SolveOptions(forced_features=forced))
        best, snap = engine.query()
        for x, y in rng.sample(pairs, 4):
            engine.query([engine.pin(AncStatement(x, y, Ancestry.CAUSES), rng.random() < 0.5)])
        if best is not None:
            engine.witness(best, snap)
        for root in checks:
            checks[root] += engine.checks[root]
        level0 += engine.level0
        conflicts += engine.conflicts
    assert checks[1] > 0 and checks[2] > 0 and conflicts > 0
    assert level0 > 0


class GatedClauseCheckedEngine(Engine):
    """An engine that checks gated-clause propagation after every
    ``_flush``. After one that returns True, every gated clause whose gate
    tokens all lie in ``trail[:qhead]`` has a true literal or at least two
    open ones, so no active clause is left falsified or unit. After every
    one, a pass over the trail ties each reason to the clause it came from.
    A plain tuple reason of token ``t`` is empty, an assumption's, or the
    gate of a gated clause that holds ``t``, a partial-order axiom's
    included, with the negated other literals of that clause, in clause
    order; every token of it is true and sits earlier on the trail, so no
    clause fires before all its gate tokens are true. A ``list`` or
    :class:`_Local` reason is the negation of a kept learned clause less
    ``t``, of that clause's type, or empty, a learned unit's, at the
    assumption level or below. ``_flush`` makes these assignments itself,
    so the pass reads them off the trail. Counts the checked flushes per
    assumption level, the level-0 flushes of compile with hard inputs
    among them, the active one-literal and multi-literal clauses checked,
    and the gated and learned reasons checked."""

    def __init__(self, *args):
        self.checks = {1: 0, 2: 0}
        self.active = {1: 0, 2: 0}
        self.level0 = self.reasons = self.learned_reasons = 0
        super().__init__(*args)

    @functools.cached_property
    def gated_reasons(self):
        """The reasons each gated clause can give each of its literals, by
        literal."""
        out = {}
        for gate, lits in zip(self.tables.cl_gate_toks, self.tables.cl_lits):
            for t in lits:
                out.setdefault(t, set()).add(gate + tuple(u ^ 1 for u in lits if u != t))
        return out

    def _flush(self, wakes=None):
        ok = super()._flush(wakes)
        tab = self.tables
        kept = {(frozenset(c), type(c)) for c in self.learned}
        value, at = self.value, self.at
        for pos, tok in enumerate(self.trail):
            reason = self.reason[tok >> 1]
            if type(reason) is tuple:
                assert all(value[t] and at[t] < pos for t in reason), (tok, reason)
                assert not reason or reason in self.gated_reasons.get(tok, ()), (tok, reason)
                self.reasons += 1
            elif type(reason) in (list, solver._Local):
                if reason:
                    clause = frozenset([tok, *(t ^ 1 for t in reason)])
                    assert (clause, type(reason)) in kept, (tok, reason)
                else:
                    assert self.level[tok >> 1] <= self.root, (tok, reason)
                self.learned_reasons += 1
        if ok:
            propagated = set(self.trail[: self.qhead])
            for gate, lits in zip(tab.cl_gate_toks, tab.cl_lits):
                if propagated.issuperset(gate):
                    unset = [tok for tok in lits if not value[tok] and not value[tok ^ 1]]
                    assert any(value[tok] for tok in lits) or len(unset) >= 2, (gate, lits)
                    self.active[min(len(lits), 2)] += 1
            self.checks[self.root] += 1
            if self.trail and not self.frames:
                self.level0 += 1
        return ok


def with_hard_ci(rng, inputs, share):
    """``inputs`` with each CI statement made hard with probability ``share``."""
    return [
        WeightedInput(i.statement, Weight.hard())
        if isinstance(i.statement, CiStatement) and rng.random() < share
        else i
        for i in inputs
    ]


def test_active_gated_clauses_are_propagated():
    """Base, forced and lex-witness queries, on instances with hard and
    soft CI inputs, ancestral costs and forced features, leave no active
    gated clause falsified or unit after a flush without conflict: the
    one-literal rules asserted when they activate and the multi-literal
    clauses checked when a literal of theirs becomes false propagate every
    clause that can fire, at assumption levels 1 and 2; and every clause
    fires on a reason whose tokens are true and earlier on the trail. Every
    reason is its clause's: a gated clause's with its gate, a learned
    clause's of that clause's kind."""
    rng = random.Random(17)
    checks = {1: 0, 2: 0}
    active = {1: 0, 2: 0}
    level0 = reasons = learned_reasons = 0
    for case in range(12):
        n = 4 + case % 3
        inputs = random_instance(rng, n, max_inputs=6 * n, anc_share=0.3)
        inputs = with_hard_ci(rng, inputs, 0.2 if case % 3 else 0.0)
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        if case % 2:
            x, y = rng.choice(pairs)
            inputs.append((causes if rng.random() < 0.5 else not_causes)(x, y))
        forced = ()
        if case % 4 == 3:
            x, y = rng.choice(pairs)
            forced = ((AncStatement(x, y, Ancestry.CAUSES), rng.random() < 0.5),)
        engine = GatedClauseCheckedEngine(inputs, n, SolveOptions(forced_features=forced))
        best, snap = engine.query()
        for x, y in rng.sample(pairs, 4):
            engine.query([engine.pin(AncStatement(x, y, Ancestry.CAUSES), rng.random() < 0.5)])
        if best is not None:
            engine.witness(best, snap)
        for key in checks:
            checks[key] += engine.checks[key]
            active[key] += engine.active[key]
        level0 += engine.level0
        reasons += engine.reasons
        learned_reasons += engine.learned_reasons
    assert checks[1] > 0 and checks[2] > 0 and level0 > 0, (checks, level0)
    assert active[1] > 0 and active[2] > 0, active
    assert reasons > 0 and learned_reasons > 0


def consistent_token_values(engine, inputs, forced):
    """The truth of every engine token in each joint assignment that the
    consistency rule accepts and that meets the hard inputs and the forced
    features: reachability and polarity tokens as the assignment sets
    them, and a derived-fact token by membership of its fact in the closure
    of the assignment's polarities, the fact tokens numbered as
    :class:`solver._Tables` numbers them."""
    tab, n = engine.tables, engine.n
    universe = ground([(t, p) for t in tab.triples for p in (INDEP, DEP)], n).facts
    others = sorted(
        (f for f in universe if f[0] not in tab.triples), key=lambda f: (f[0], f[1] is DEP)
    )
    hard = [i.statement for i in inputs if i.weight.is_hard]
    structures = list(enumerate_ancestral_structures(n))
    out = []
    for pols in itertools.product((INDEP, DEP), repeat=len(tab.triples)):
        ci = CiAssignment(dict(zip(tab.triples, pols)))
        if not all(ci.truth[st.triple] is st.polarity for st in hard if isinstance(st, CiStatement)):
            continue
        closure = ground(ci.facts(), n).facts
        for structure in consistent_structures(n, ci, structures):
            if not all(
                structure.reach(st.cause, st.effect) == (st.polarity is Ancestry.CAUSES)
                for st in hard
                if isinstance(st, AncStatement)
            ) or not all(
                structure.reach(f.cause, f.effect) == ((f.polarity is Ancestry.CAUSES) == hold)
                for f, hold in forced
            ):
                continue
            value = bytearray(2 * len(engine.level))
            for x in range(n):
                for y in range(n):
                    value[2 * (x * n + y) + (not structure.reach(x, y))] = 1
            for i, pol in enumerate(pols):
                value[tab.pol_base + 2 * i + (pol is DEP)] = 1
            for i, fact in enumerate(others):
                value[tab.fact_base + 2 * i + (fact not in closure)] = 1
            out.append(value)
    return out


def test_logical_learned_clauses_hold_on_every_consistent_assignment():
    """Every logical learned clause, checked after the base query, each
    forced query and the lex witness on instances at n = 3-4 with hard and
    soft inputs and forced features, holds on every joint assignment that
    the consistency rule accepts and that meets the hard inputs and the
    forced features, a derived-fact token read as membership of its fact
    in the assignment's closure. Logical clauses outlive their query, so a
    clause that holds only under one query's bound must be query-local.
    Some checked clauses hold fact tokens."""
    rng = random.Random(41)
    checked, with_facts = set(), set()
    for case in range(12):
        n = 4 - (case % 4 == 0)
        inputs = random_instance(rng, n, max_inputs=6 * n, max_weight=50, anc_share=0.25)
        inputs = with_hard_ci(rng, inputs, 0.2 if case % 3 else 0.0)
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        if case % 2:
            x, y = rng.choice(pairs)
            inputs.append((causes if rng.random() < 0.5 else not_causes)(x, y))
        forced = ()
        if case % 4 == 3:
            x, y = rng.choice(pairs)
            forced = ((AncStatement(x, y, Ancestry.CAUSES), rng.random() < 0.5),)
        engine = Engine(inputs, n, SolveOptions(forced_features=forced))
        values = consistent_token_values(engine, inputs, forced)

        def check():
            for clause in engine.learned:
                if type(clause) is list:
                    assert all(any(v[t] for t in clause) for v in values), (case, clause)
                    key = (case, frozenset(clause))
                    checked.add(key)
                    if max(clause) >= engine.fact_base:
                        with_facts.add(key)

        best, snap = engine.query()
        check()
        for x, y in pairs:
            for hold in (True, False):
                engine.query([engine.pin(AncStatement(x, y, Ancestry.CAUSES), hold)])
                check()
        if best is not None:
            engine.witness(best, snap)
            check()
    assert checked and with_facts, (len(checked), len(with_facts))


# -- invariants -------------------------------------------------------------------

def test_uniform_scaling_scales_min_and_keeps_witness():
    rng = random.Random(5)
    for _ in range(10):
        inputs = random_instance(rng)
        scaled = [
            type(w)(w.statement, W(w.weight.millis * 7)) for w in inputs
        ]
        a = solve_min_loss(inputs, 4)
        b = solve_min_loss(scaled, 4)
        assert b.min_loss == W(a.min_loss.millis * 7)
        assert b.witness.structure == a.witness.structure
        assert b.witness.ci.truth == a.witness.ci.truth


def test_adding_satisfied_input_keeps_minimum():
    rng = random.Random(17)
    for _ in range(10):
        inputs = random_instance(rng)
        r = solve_min_loss(inputs, 4)
        s = r.witness.structure
        pair = next(
            ((x, y) for x in range(4) for y in range(4) if x != y), None
        )
        x, y = pair
        extra = causes(x, y, W(12345)) if s.reach(x, y) else not_causes(x, y, W(12345))
        r2 = solve_min_loss(inputs + [extra], 4)
        assert r2.min_loss == r.min_loss


def test_determinism_across_runs():
    rng = random.Random(31)
    inputs = random_instance(rng, max_inputs=10)
    first = solve_min_loss(inputs, 4)
    for _ in range(3):
        again = solve_min_loss(inputs, 4)
        assert again.min_loss == first.min_loss
        assert again.witness.structure == first.witness.structure
        assert again.witness.ci.truth == first.witness.ci.truth


def test_search_trajectory_is_pinned():
    """The summed search nodes of two float-free workloads, pinned exactly:
    scoring every pair of the eight models of the oracle-n7c2 benchmark
    pool (hard d-separation statements up to order 2 at n = 7), and the
    base query and lex witness of 40 random soft instances at n = 5-6.
    No weight comes from floating-point arithmetic: the oracle statements
    are the hard d-separation facts of the seeded models' graphs, and the
    random instances draw integer weights from ``random.Random``, so no
    numerical library's rounding moves these counts; a change to
    propagation, analysis or branching that keeps the search moves none
    of them. A change that moves the trajectory on purpose updates these
    numbers and says so in CHANGES.md."""
    oracle = 0
    for m in range(8):
        scorer = PairScorer(oracle_inputs(random_linear_model(7, 1, 0.3, seed=[0, m, 0]), 2), 7)
        scorer.all_pairs()
        oracle += scorer.engine.nodes
    rng = random.Random(29)
    base = witness = 0
    for i in range(40):
        n = 5 + i % 2
        engine = Engine(random_instance(rng, n, max_inputs=6 * n), n)
        best, snap = engine.query()
        base += engine.nodes
        if best is not None:
            engine.witness(best, snap)
        witness += engine.nodes
    assert (oracle, base, witness - base) == (389, 2233, 443)


# -- options and errors --------------------------------------------------------------

def test_forced_feature_acts_as_hard_constraint():
    inputs = [causes(0, 1, W(3000)), causes(1, 0, W(1000))]
    f = AncStatement(0, 1, Ancestry.CAUSES)
    hold = solve_min_loss(inputs, 2, SolveOptions(forced_features=((f, True),)))
    deny = solve_min_loss(inputs, 2, SolveOptions(forced_features=((f, False),)))
    assert hold.min_loss == W(1000)
    assert hold.witness.structure.reach(0, 1)
    assert deny.min_loss == W(3000)
    assert not deny.witness.structure.reach(0, 1)


def test_large_n_guard():
    with pytest.raises(ValueError):
        solve_min_loss([], 13)
    r = solve_min_loss([], 13, SolveOptions(allow_large_n=True), build_witness=False)
    assert r.min_loss == W(0)


def test_timeout_raises_with_bound():
    rng = random.Random(8)
    inputs = []
    for _ in range(60):
        x, y = rng.sample(range(6), 2)
        others = [v for v in range(6) if v not in (x, y)]
        cond = rng.sample(others, rng.randint(0, 1))
        w = W(rng.randint(1, 4000))
        inputs.append(indep(x, y, cond, w) if rng.random() < 0.5 else dep(x, y, cond, w))
    with pytest.raises(SolveTimeoutError) as exc:
        solve_min_loss(inputs, 6, SolveOptions(time_limit=1e-6))
    assert exc.value.best_bound is None or isinstance(exc.value.best_bound, Weight)


def test_brute_force_guards():
    with pytest.raises(ValueError):
        brute_force_min_loss([], 5)
    with pytest.raises(ValueError):
        brute_force_min_loss([causes(0, 1, W(1))] * 17, 4)


def test_input_validation():
    with pytest.raises(ValueError):
        solve_min_loss([causes(0, 5, W(1))], 3)
    with pytest.raises(ValueError):
        solve_min_loss([indep(0, 4, (), W(1))], 3)
