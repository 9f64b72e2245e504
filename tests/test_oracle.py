"""The exhaustive references of ``ancestral.oracle`` on the paths that
random differential tests reach rarely or never: hard inputs that no joint
assignment satisfies, and optima that tie across polarity assignments."""

import pytest

from ancestral.core import AncestralStructure, AncStatement, Ancestry, Weight, dep, indep
from ancestral.oracle import NoConsistentModelError, brute_force_min_loss, identifiability_oracle
from ancestral.rules import DEP
from ancestral.solver import solve_min_loss

FEATURE = AncStatement(0, 1, Ancestry.CAUSES)


@pytest.mark.parametrize(
    "inputs",
    [
        # D1: indep(0, 1) and dep(0, 1 | 2) derive dep(0, 2), the flip of a
        # hard input; every integrity constraint holds in the identity
        # structure, so only the flipped-fact check rejects it
        [indep(0, 1), dep(0, 1, [2]), indep(0, 2)],
        # a hard input on each polarity of one triple
        [indep(0, 1, [2]), dep(0, 1, [2])],
    ],
)
def test_hard_inputs_without_a_model(inputs):
    with pytest.raises(NoConsistentModelError):
        identifiability_oracle(inputs, 3, FEATURE)
    assert brute_force_min_loss(inputs, 3).min_loss == Weight.hard()
    assert solve_min_loss(inputs, 3).min_loss == Weight.hard()


def test_an_assignment_that_ties_the_best_loss_can_hold_the_lex_witness():
    # (dep, indep) costs 2 but needs 1 => 0 or 1 => 2 (rule R1); the later
    # (dep, dep) ties it in the identity structure, whose key is smaller
    inputs = [indep(0, 2, [1], Weight(2)), dep(0, 2, [1], Weight(2)), dep(0, 2, [], Weight(3))]
    want = (AncestralStructure.identity(3), {(0, 2, 0): DEP, (0, 2, 0b10): DEP})
    for result in (brute_force_min_loss(inputs, 3), solve_min_loss(inputs, 3)):
        assert result.min_loss == Weight(2)
        assert (result.witness.structure, result.witness.ci.truth) == want


@pytest.mark.parametrize(
    "feature", [AncStatement(0, 3, Ancestry.CAUSES), AncStatement(3, 0, Ancestry.CAUSES)]
)
def test_identifiability_oracle_rejects_a_feature_beyond_n(feature):
    with pytest.raises(ValueError, match="feature references variables >= n"):
        identifiability_oracle([], 2, feature)
