import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ancestral.core import (
    Ancestry,
    AncStatement,
    CiStatement,
    Weight,
    WeightedInput,
    canonicalize,
    causes,
    condset_members,
    dep,
    indep,
    not_causes,
)
from ancestral.cli import main
from ancestral.factfile import write_fact_file
from ancestral.oracle import Identifiability, NoConsistentModelError, identifiability_oracle
from ancestral.scoring import (
    BothInfeasibleError,
    PairScorer,
    confidence,
    pair_features,
    score_all_pairs,
)
from ancestral.simulate import random_linear_model, sample_data
from ancestral.solver import SolveOptions, _tables, solve_min_loss
from ancestral.stats import CiTestConfig, ci_inputs_from_data

from helpers import (
    dag_oracle_inputs,
    level0_contradictions,
    random_dag,
    shared_triple_inputs,
)

W = Weight.finite
CHAIN_ORACLE = [
    dep(0, 1),
    dep(0, 1, (2,)),
    dep(1, 2),
    dep(1, 2, (0,)),
    dep(0, 2),
    indep(0, 2, (1,)),
]


def feat(x, y, wanted=True):
    return AncStatement(x, y, Ancestry.CAUSES if wanted else Ancestry.NOT_CAUSES)


# -- confidence ----------------------------------------------------------------

def test_single_supporting_input():
    assert confidence([causes(0, 1, W(2000))], 2, feat(0, 1)) == 2000


def test_contradictory_pair_difference():
    inputs = [causes(0, 1, W(3000)), causes(1, 0, W(1000))]
    assert confidence(inputs, 2, feat(0, 1)) == 2000
    assert confidence(inputs, 2, feat(1, 0)) == -2000


def test_no_inputs_scores_zero():
    assert confidence([], 2, feat(0, 1)) == 0
    assert confidence([], 2, feat(1, 0, wanted=False)) == 0


def test_hard_input_gives_infinite_score():
    assert confidence([causes(0, 1)], 2, feat(0, 1)) == math.inf
    assert confidence([causes(0, 1)], 2, feat(1, 0)) == -math.inf


def test_both_infeasible_raises():
    with pytest.raises(BothInfeasibleError):
        confidence([causes(0, 1), not_causes(0, 1)], 2, feat(0, 1))


def test_antisymmetry_of_scores():
    rng = random.Random(12)
    for _ in range(8):
        inputs = []
        for _ in range(rng.randint(1, 8)):
            x, y = rng.sample(range(4), 2)
            others = [v for v in range(4) if v not in (x, y)]
            cond = rng.sample(others, rng.randint(0, 1))
            w = W(rng.randint(0, 4000))
            inputs.append(
                indep(x, y, cond, w) if rng.random() < 0.5 else dep(x, y, cond, w)
            )
        for x in range(4):
            for y in range(4):
                if x == y:
                    continue
                plus = confidence(inputs, 4, feat(x, y))
                minus = confidence(inputs, 4, feat(x, y, wanted=False))
                assert plus == -minus


@st.composite
def scored_features(draw):
    """At most 4 variables, hard or soft CI statements up to order 2 and
    ancestral statements, and one ordered pair to score."""
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
    return n, inputs, draw(st.sampled_from(pairs))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scored_features())
def test_antisymmetry_property(case):
    n, inputs, (x, y) = case
    try:
        plus = confidence(inputs, n, feat(x, y))
    except BothInfeasibleError:
        with pytest.raises(BothInfeasibleError):
            confidence(inputs, n, feat(x, y, wanted=False))
        return
    minus = confidence(inputs, n, feat(x, y, wanted=False))
    assert plus == -minus
    if math.isinf(plus):
        assert math.copysign(1, plus) == -math.copysign(1, minus)


def test_monotone_evidence():
    rng = random.Random(77)
    for _ in range(6):
        inputs = []
        for _ in range(rng.randint(1, 6)):
            x, y = rng.sample(range(3), 2)
            w = W(rng.randint(0, 3000))
            inputs.append(causes(x, y, w) if rng.random() < 0.5 else not_causes(x, y, w))
        base = confidence(inputs, 3, feat(0, 1))
        w = rng.randint(1, 2500)
        boosted = confidence(inputs + [causes(0, 1, W(w))], 3, feat(0, 1))
        if isinstance(base, int):
            assert boosted == base + w
        else:
            assert boosted == base


# -- score_all_pairs --------------------------------------------------------------

def test_pair_features_row_major():
    assert [(f.cause, f.effect) for f in pair_features(3)] == [
        (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)
    ]
    assert {f.polarity for f in pair_features(3)} == {Ancestry.CAUSES}
    assert pair_features(1) == []


def test_all_pairs_with_no_inputs():
    preds = score_all_pairs([], 3)
    assert len(preds) == 6
    assert all(p.score == 0 for p in preds)


def test_all_pairs_ordering():
    inputs = [causes(0, 1, W(3000)), causes(1, 0, W(1000))]
    preds = score_all_pairs(inputs, 2)
    assert [(p.cause, p.effect, p.score) for p in preds] == [
        (0, 1, 2000),
        (1, 0, -2000),
    ]


def test_chain_oracle_leaves_every_pair_unidentified():
    preds = score_all_pairs(CHAIN_ORACLE, 3)
    assert all(p.score == 0 for p in preds)


def test_all_pairs_insensitive_to_input_order():
    rng = random.Random(5)
    inputs = [
        dep(0, 1, (), W(100)),
        indep(0, 2, (), W(200)),
        dep(1, 2, (), W(300)),
        causes(0, 2, W(400)),
        indep(1, 2, (0,), W(500)),
    ]
    baseline = score_all_pairs(inputs, 3)
    for _ in range(4):
        shuffled = inputs[:]
        rng.shuffle(shuffled)
        assert score_all_pairs(shuffled, 3) == baseline


def test_first_confidence_sets_the_floor():
    """The first confidence solves the base minimum, which sets the
    engine's floor that stops every later forced solve, and every score is
    the one ``score_all_pairs`` gives."""
    rng = random.Random(41)
    for _ in range(6):
        inputs = []
        for _ in range(rng.randint(2, 9)):
            x, y = rng.sample(range(4), 2)
            others = [v for v in range(4) if v not in (x, y)]
            cond = rng.sample(others, rng.randint(0, 1))
            w = W(rng.randint(0, 4000))
            inputs.append(
                indep(x, y, cond, w) if rng.random() < 0.5 else dep(x, y, cond, w)
            )
        shared = score_all_pairs(inputs, 4)
        scorer = PairScorer(inputs, 4)
        first = scorer.confidence(feat(0, 1))
        base = solve_min_loss(inputs, 4, build_witness=False).min_loss
        assert scorer.engine.floor == base.millis
        assert first == next(p.score for p in shared if (p.cause, p.effect) == (0, 1))
        assert scorer.all_pairs() == shared


def test_score_all_pairs_rejects_unshared_bounds():
    """``share_bounds`` admits True only: there is one way of scoring."""
    inputs = [dep(0, 1, (), W(100))]
    assert score_all_pairs(inputs, 2, share_bounds=True) == score_all_pairs(inputs, 2)
    with pytest.raises(ValueError, match="share_bounds"):
        score_all_pairs(inputs, 2, share_bounds=False)


def _scores_or_error(inputs):
    try:
        return score_all_pairs(inputs, 4)
    except BothInfeasibleError:
        return BothInfeasibleError


def test_score_all_pairs_is_identical_in_any_call_order():
    rng = random.Random(505)
    cases = [shared_triple_inputs(rng) for _ in range(6)] + level0_contradictions()
    _tables.cache_clear()
    first = [_scores_or_error(inputs) for inputs in cases]
    assert first[6:] == [BothInfeasibleError] * 3
    assert BothInfeasibleError not in first[:6]
    for i in reversed(range(len(cases))):  # warm tables
        assert _scores_or_error(cases[i]) == first[i]
    _tables.cache_clear()
    for i in rng.sample(range(len(cases)), len(cases)):
        assert _scores_or_error(cases[i]) == first[i]


def test_level0_contradictions_with_warm_tables(tmp_path):
    rng = random.Random(707)
    feasible = shared_triple_inputs(rng, hard_share=0.0)
    expected = score_all_pairs(feasible, 4)
    names = ("A", "B", "C", "D")
    for k, inputs in enumerate(level0_contradictions()):
        assert solve_min_loss(inputs, 4, build_witness=False).min_loss == Weight.hard()
        with pytest.raises(BothInfeasibleError):
            PairScorer(inputs, 4).confidence(feat(0, 1))
        with pytest.raises(BothInfeasibleError):
            score_all_pairs(inputs, 4)
        facts = tmp_path / f"bad{k}.facts"
        write_fact_file(names, inputs, facts)
        assert main(["solve", "--facts", str(facts), "--out", str(tmp_path / "s.csv")]) == 4
        assert score_all_pairs(feasible, 4) == expected


def _fresh_score(inputs, n, feature):
    """The score from two fresh forced solves, one engine each."""
    loss = {
        hold: solve_min_loss(
            inputs, n, SolveOptions(forced_features=((feature, hold),)), build_witness=False
        ).min_loss
        for hold in (True, False)
    }
    assert not (loss[True].is_hard and loss[False].is_hard)
    if loss[False].is_hard:
        return math.inf
    if loss[True].is_hard:
        return -math.inf
    return loss[False].millis - loss[True].millis


@pytest.mark.parametrize(
    "n, m, hard",
    [(5, 0, ()), (5, 1, (causes(0, 1), not_causes(3, 2))), (6, 0, ()), (6, 2, ())],
)
def test_incremental_scores_match_fresh_forced_solves(n, m, hard):
    # One engine answers every query of a scorer and keeps the logical
    # clauses it learns; a clause leaked from a bound or incumbent nogood,
    # or a backjump below the pins, changes some minimum.
    scm = random_linear_model(n, 1, 0.3, seed=[0, m, 0])
    data = sample_data(scm, 500, seed=[0, m, 1])
    inputs = ci_inputs_from_data(data, CiTestConfig(max_order=1)) + list(hard)
    features = [feat(x, y) for x in range(n) for y in range(n) if x != y]
    want = {(f.cause, f.effect): _fresh_score(inputs, n, f) for f in features}
    got = {(p.cause, p.effect): p.score for p in score_all_pairs(inputs, n)}
    assert got == want
    scorer = PairScorer(inputs, n)
    for f in reversed(features):
        assert scorer.confidence(f) == want[(f.cause, f.effect)]


# -- metamorphic relations --------------------------------------------------------

def _relabeled(inputs, perm):
    """The inputs with variable ``v`` renamed ``perm[v]``."""
    out = []
    for item in inputs:
        stmt = item.statement
        if isinstance(stmt, CiStatement):
            cond = sum(1 << perm[v] for v in condset_members(stmt.cond))
            stmt = canonicalize(perm[stmt.x], perm[stmt.y], cond, stmt.polarity)
        else:
            stmt = AncStatement(perm[stmt.cause], perm[stmt.effect], stmt.polarity)
        out.append(WeightedInput(stmt, item.weight))
    return out


def _answers(inputs, n):
    """Every pair's score, the minimum and the lex-smallest witness."""
    scores = {(p.cause, p.effect): p.score for p in score_all_pairs(inputs, n)}
    result = solve_min_loss(inputs, n)
    return scores, result.min_loss, (result.witness.structure, result.witness.ci.truth)


@pytest.mark.parametrize(
    "n, c, m",
    [(5, 1, m) for m in range(6)] + [(5, 2, m) for m in range(3)] + [(6, 1, m) for m in range(3)],
)
def test_metamorphic_relations(n, c, m):
    """Five exact relations on seeded models, one hard and one soft
    ancestral statement added: relabeling the variables permutes every
    score and keeps the minimum; doubling every finite weight doubles every
    finite score and the minimum, keeps +-inf and keeps the lex witness;
    shuffling the input list changes no answer; soft ``causes`` and
    ``notcauses`` of one weight k on one pair, which every completion pays
    once and the engine's ``offset`` carries, raise the minimum by k and
    keep every score and the lex witness; a zero-weight statement on a
    triple outside the inputs, which enlarges the grounding, changes no
    score and not the minimum. Each poses the same problem in another
    token, triple or input order, so the pool, the floor, the guessed
    thresholds and the query-local clauses all meet it from another
    direction."""
    scm = random_linear_model(n, 1, 0.3, seed=[0, m, 0])
    data = sample_data(scm, 500, seed=[0, m, 1])
    inputs = ci_inputs_from_data(data, CiTestConfig(max_order=c))
    inputs += [causes(0, n - 1), not_causes(1, 2, W(1500))]
    scores, best, witness = _answers(inputs, n)
    assert {-math.inf, math.inf} <= set(scores.values())
    rng = random.Random(m)

    perm = list(range(n))
    rng.shuffle(perm)
    got, got_best, _ = _answers(_relabeled(inputs, perm), n)
    assert got == {(perm[x], perm[y]): s for (x, y), s in scores.items()}
    assert got_best == best

    doubled = [
        i if i.weight.is_hard else WeightedInput(i.statement, W(2 * i.weight.millis))
        for i in inputs
    ]
    got, got_best, got_witness = _answers(doubled, n)
    assert got == {k: s if math.isinf(s) else 2 * s for k, s in scores.items()}
    assert got_best == W(2 * best.millis)
    assert got_witness == witness

    shuffled = inputs[:]
    rng.shuffle(shuffled)
    assert _answers(shuffled, n) == (scores, best, witness)

    x, y = rng.sample(range(n), 2)
    k = rng.randint(1, 3000)
    assert _answers(inputs + [causes(x, y, W(k)), not_causes(x, y, W(k))], n) == (
        scores,
        W(best.millis + k),
        witness,
    )

    free = indep(0, 1, range(2, n), W(0))
    assert len(condset_members(free.statement.cond)) > c
    got, got_best, _ = _answers(inputs + [free], n)
    assert (got, got_best) == (scores, best)


@st.composite
def sparse_instances(draw):
    """At n = 5..6, 3 to 15 distinct order-<=1 triples with random
    polarities, plus 0 to 3 ``causes``/``notcauses`` statements, all with
    weights 0..5000, so that ties occur and most ordered pairs are in no
    input; with a relabeling of the variables and an order of the inputs."""
    n = draw(st.sampled_from((5, 6)))
    triples = [
        (x, y, cond)
        for x in range(n)
        for y in range(x + 1, n)
        for cond in [(), *((z,) for z in range(n) if z not in (x, y))]
    ]
    weights = st.integers(0, 5000).map(W)
    chosen = draw(st.lists(st.sampled_from(triples), min_size=3, max_size=15, unique=True))
    inputs = [
        draw(st.sampled_from((indep, dep)))(x, y, cond, draw(weights)) for x, y, cond in chosen
    ]
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    for _ in range(draw(st.integers(0, 3))):
        x, y = draw(st.sampled_from(pairs))
        inputs.append(draw(st.sampled_from((causes, not_causes)))(x, y, draw(weights)))
    perm = draw(st.permutations(range(n)))
    order = draw(st.permutations(range(len(inputs))))
    return n, inputs, perm, order


# variable 4 is in no input, and one statement weighs 0
@settings(max_examples=150, derandomize=True, deadline=None)
@example(
    (
        5,
        [
            indep(0, 1, (), W(0)),
            dep(1, 2, (0,), W(1200)),
            indep(0, 2, (), W(300)),
            causes(2, 3, W(700)),
        ],
        [4, 2, 0, 3, 1],
        [3, 1, 0, 2],
    )
)
@given(sparse_instances())
def test_metamorphic_relations_on_sparse_instances(case):
    """Relabeling, doubling and shuffling on random sparse weighted inputs,
    as in :func:`test_metamorphic_relations`: the inputs that leave
    unconstrained reachability to the search's decisions and that give
    decisions equal costs to tie on."""
    n, inputs, perm, order = case
    scores, best, witness = _answers(inputs, n)

    got, got_best, _ = _answers(_relabeled(inputs, perm), n)
    assert got == {(perm[x], perm[y]): s for (x, y), s in scores.items()}
    assert got_best == best

    doubled = [WeightedInput(i.statement, W(2 * i.weight.millis)) for i in inputs]
    got, got_best, got_witness = _answers(doubled, n)
    assert got == {k: s if math.isinf(s) else 2 * s for k, s in scores.items()}
    assert got_best == W(2 * best.millis)
    assert got_witness == witness

    assert _answers([inputs[i] for i in order], n) == (scores, best, witness)


# -- identifiability oracle -----------------------------------------------------------

def test_chain_oracle_identifies_nothing_pairwise():
    for x in range(3):
        for y in range(3):
            if x != y:
                got = identifiability_oracle(CHAIN_ORACLE, 3, feat(x, y))
                assert got is Identifiability.UNKNOWN


def test_hard_statement_identified():
    assert (
        identifiability_oracle([causes(0, 1)], 2, feat(0, 1)) is Identifiability.TRUE
    )
    assert (
        identifiability_oracle([causes(0, 1)], 2, feat(1, 0)) is Identifiability.FALSE
    )


def test_transitive_consequence_identified():
    got = identifiability_oracle([causes(0, 1), causes(1, 2)], 3, feat(0, 2))
    assert got is Identifiability.TRUE


def test_contradictory_hard_inputs_have_no_model():
    with pytest.raises(NoConsistentModelError):
        identifiability_oracle([causes(0, 1), not_causes(0, 1)], 2, feat(0, 1))


def test_oracle_rejects_soft_inputs():
    with pytest.raises(ValueError):
        identifiability_oracle([causes(0, 1, W(5))], 2, feat(0, 1))


def test_oracle_enumeration_guard():
    with pytest.raises(ValueError):
        identifiability_oracle([causes(0, 1)], 6, feat(0, 1))


def test_soundness_infinite_scores_agree_with_enumeration():
    rng = random.Random(1)
    for _ in range(10):
        adj = random_dag(4 + rng.randint(0, 2), 0.4, rng)
        inputs = dag_oracle_inputs(adj, 4, 1)
        for x in range(4):
            for y in range(4):
                if x == y:
                    continue
                score = confidence(inputs, 4, feat(x, y))
                verdict = identifiability_oracle(inputs, 4, feat(x, y))
                if verdict is Identifiability.TRUE:
                    assert score == math.inf
                elif verdict is Identifiability.FALSE:
                    assert score == -math.inf
                else:
                    assert score == 0
