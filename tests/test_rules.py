import random

import pytest
from hypothesis import given, settings, strategies as st

from ancestral.core import (
    AncestralStructure,
    Weight,
    causes,
    condsets_up_to,
    dep,
    indep,
    not_causes,
    transitive_close,
)
from ancestral.rules import (
    DEP,
    INDEP,
    CiAssignment,
    JointAssignment,
    check_consistency,
    derive_closure,
    ground,
    loss,
)

from helpers import dag_oracle_inputs, random_dag

W = Weight.finite
ID3 = AncestralStructure.identity(3)


def bits(*members):
    out = 0
    for m in members:
        out |= 1 << m
    return out


# -- derivation rules ---------------------------------------------------------

def test_collider_rule_derives_conditional_dependence():
    seeds = {((0, 2, 0), DEP), ((1, 2, 0), DEP), ((0, 1, 0), INDEP)}
    closed = derive_closure(ID3, seeds)
    assert ((0, 1, bits(2)), DEP) in closed


def test_minimal_dependence_derives_marginal_dependence():
    seeds = {((0, 1, 0), INDEP), ((0, 1, bits(2)), DEP)}
    closed = derive_closure(ID3, seeds)
    assert ((0, 2, 0), DEP) in closed
    assert ((1, 2, 0), DEP) in closed


def test_minimal_independence_derives_marginal_dependence():
    seeds = {((0, 1, 0), DEP), ((0, 1, bits(2)), INDEP)}
    closed = derive_closure(ID3, seeds)
    assert ((0, 2, 0), DEP) in closed


def test_separator_exchange():
    # a separator z for (x, y) can be swapped for b when x _|_ z given b
    s4 = AncestralStructure.identity(4)
    seeds = {
        ((0, 1, 0), DEP),
        ((0, 1, bits(2)), INDEP),
        ((0, 2, bits(3)), INDEP),
    }
    closed = derive_closure(s4, seeds)
    assert ((0, 1, bits(3)), INDEP) in closed


def test_empty_seeds_empty_closure():
    assert derive_closure(ID3, set()) == set()


def test_closure_contains_seeds_and_is_idempotent():
    seeds = {((0, 1, 0), INDEP), ((0, 1, bits(2)), DEP)}
    once = derive_closure(ID3, seeds)
    assert seeds <= once
    assert derive_closure(ID3, once) == once


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_closure_monotone(data):
    n = 4
    triples = [
        (x, y, c)
        for x in range(n)
        for y in range(x + 1, n)
        for c in range(1 << n)
        if not ((c >> x) & 1 or (c >> y) & 1) and c.bit_count() <= 1
    ]
    facts = data.draw(
        st.sets(
            st.tuples(st.sampled_from(triples), st.sampled_from([INDEP, DEP])),
            max_size=8,
        )
    )
    ordered = sorted(facts, key=lambda f: (f[0], f[1].value))
    subset = data.draw(
        st.sets(st.sampled_from(ordered), max_size=len(facts)) if facts else st.just(set())
    )
    s = AncestralStructure.identity(n)
    assert derive_closure(s, subset) <= derive_closure(s, facts)


def test_rejects_malformed_seed():
    with pytest.raises(ValueError):
        derive_closure(ID3, {((1, 0, 0), DEP)})
    with pytest.raises(ValueError):
        derive_closure(ID3, {((0, 1, bits(1)), DEP)})


# -- consistency ----------------------------------------------------------------

def test_minimal_independence_needs_separator_ancestry():
    ci = CiAssignment({(0, 1, 0): DEP, (0, 1, bits(2)): INDEP})
    assert check_consistency(transitive_close([(2, 1)], 3), ci)
    assert check_consistency(transitive_close([(2, 0)], 3), ci)
    assert not check_consistency(ID3, ci)


def test_marginal_independence_forbids_causation():
    ci = CiAssignment({(0, 1, 0): INDEP})
    assert not check_consistency(transitive_close([(0, 1)], 3), ci)
    assert not check_consistency(transitive_close([(1, 0)], 3), ci)
    assert check_consistency(ID3, ci)


def test_minimal_dependence_forbids_separator_ancestry():
    ci = CiAssignment({(0, 1, 0): INDEP, (0, 1, bits(2)): DEP})
    assert not check_consistency(transitive_close([(2, 1)], 3), ci)
    assert not check_consistency(transitive_close([(2, 0)], 3), ci)
    assert check_consistency(transitive_close([(0, 2)], 3), ci)


def test_derived_fact_must_match_assigned_polarity():
    # the collider rule derives dep(0,1|{2}), contradicting the choice
    ci = CiAssignment(
        {
            (0, 2, 0): DEP,
            (1, 2, 0): DEP,
            (0, 1, 0): INDEP,
            (0, 1, bits(2)): INDEP,
        }
    )
    for edges in ([], [(2, 0), (2, 1)]):
        assert not check_consistency(transitive_close(edges, 3), ci)


# -- loss --------------------------------------------------------------------------

def test_loss_of_contradictory_pair_counts_the_violated_side():
    joint = JointAssignment(
        AncestralStructure.identity(2), CiAssignment({(0, 1, 0): INDEP})
    )
    inputs = [indep(0, 1, (), W(1000)), dep(0, 1, (), W(500))]
    assert loss(joint, inputs) == W(500)


def test_loss_zero_when_all_satisfied():
    joint = JointAssignment(
        transitive_close([(0, 1)], 2), CiAssignment({(0, 1, 0): DEP})
    )
    inputs = [dep(0, 1, (), W(700)), causes(0, 1, W(900))]
    assert loss(joint, inputs) == W(0)


def test_loss_counts_violated_ancestral_statement():
    joint = JointAssignment(AncestralStructure.identity(2), CiAssignment({}))
    assert loss(joint, [causes(0, 1, W(1609))]) == W(1609)
    assert loss(joint, [not_causes(0, 1, W(1609))]) == W(0)


def test_loss_hard_when_hard_input_violated():
    joint = JointAssignment(AncestralStructure.identity(2), CiAssignment({}))
    assert loss(joint, [causes(0, 1)]).is_hard


def test_loss_requires_coverage():
    joint = JointAssignment(AncestralStructure.identity(2), CiAssignment({}))
    with pytest.raises(ValueError):
        loss(joint, [dep(0, 1, (), W(1))])


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_loss_additive_over_disjoint_lists(data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    n = 4
    truth = {}
    for x in range(n):
        for y in range(x + 1, n):
            truth[(x, y, 0)] = INDEP if rng.random() < 0.5 else DEP
    joint = JointAssignment(AncestralStructure.identity(n), CiAssignment(truth))
    pool = []
    for (x, y, c), _ in truth.items():
        pool.append(indep(x, y, (), W(rng.randint(0, 99))))
        pool.append(dep(x, y, (), W(rng.randint(0, 99))))
        pool.append(causes(x, y, W(rng.randint(0, 99))))
    k = rng.randint(0, len(pool))
    a, b = pool[:k], pool[k:]
    assert loss(joint, a) + loss(joint, b) == loss(joint, pool)


# -- soundness against d-separation ------------------------------------------------

def test_ground_truth_always_consistent_and_lossless():
    rng = random.Random(42)
    for _ in range(25):
        n_obs = rng.randint(3, 5)
        n_lat = rng.randint(0, 2)
        adj = random_dag(n_obs + n_lat, 0.4, rng)
        max_order = min(2, n_obs - 2)
        inputs = dag_oracle_inputs(adj, n_obs, max_order)
        rows = [1 << v for v in range(n_obs)]
        reach = transitive_close(
            [
                (x, y)
                for x in range(n_obs + n_lat)
                for y in range(n_obs + n_lat)
                if adj[x, y]
            ],
            n_obs + n_lat,
        )
        for x in range(n_obs):
            for y in range(n_obs):
                if x != y and reach.reach(x, y):
                    rows[x] |= 1 << y
        truth_struct = AncestralStructure(n_obs, tuple(rows))
        ci = CiAssignment({w.statement.triple: w.statement.polarity for w in inputs})
        assert check_consistency(truth_struct, ci)
        assert loss(JointAssignment(truth_struct, ci), inputs) == W(0)


def test_derived_facts_are_sound_for_dags():
    # everything the rules derive from true d-separation facts is again
    # a true d-separation fact
    from ancestral.simulate import d_separated

    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(3, 5)
        adj = random_dag(n, 0.45, rng)
        inputs = dag_oracle_inputs(adj, n, min(2, n - 2))
        seeds = {(w.statement.triple, w.statement.polarity) for w in inputs}
        closed = derive_closure(AncestralStructure.identity(n), seeds)
        for (x, y, cond), polarity in closed:
            separated = d_separated(adj, x, y, cond)
            assert (polarity is INDEP) == separated


@pytest.mark.parametrize("n, order", [(4, 2), (5, 3), (6, 1), (6, 2), (6, 4), (7, 2)])
def test_ground_repeats_no_premise(n, order):
    """No rule instance or gated clause of ``ground`` names one premise
    twice, with every triple up to ``order`` at ``n`` seeded in both
    polarities, so a clause's premises are its distinct gate tokens, which
    the solver's gate index lists and its premise counters count."""
    triples = [
        (x, y, cond)
        for x in range(n)
        for y in range(x + 1, n)
        for cond in condsets_up_to([v for v in range(n) if v not in (x, y)], order)
    ]
    g = ground([(t, pol) for t in triples for pol in (INDEP, DEP)], n)
    assert g.derivations or order == n - 2
    for item in (*g.derivations, *g.clauses):
        assert len(set(item.premises)) == len(item.premises), item
