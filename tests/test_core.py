import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ancestral.core import (
    AncestralStructure,
    CycleError,
    Polarity,
    Weight,
    canonicalize,
    condset,
    condset_members,
    count_ancestral_structures,
    enumerate_ancestral_structures,
    is_ancestral_structure,
    transitive_close,
)

from helpers import all_structure_matrices


# -- canonicalization --------------------------------------------------------

def test_canonicalize_swaps_pair():
    s = canonicalize(3, 1, condset([0]), Polarity.INDEPENDENT)
    assert (s.x, s.y, s.cond, s.polarity) == (1, 3, 1, Polarity.INDEPENDENT)


def test_canonicalize_keeps_canonical_pair():
    s = canonicalize(0, 2, 0, Polarity.DEPENDENT)
    assert (s.x, s.y, s.cond, s.polarity) == (0, 2, 0, Polarity.DEPENDENT)


def test_canonicalize_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        canonicalize(1, 1, 0, Polarity.DEPENDENT)


def test_canonicalize_rejects_endpoint_in_cond():
    with pytest.raises(ValueError):
        canonicalize(0, 2, condset([2]), Polarity.DEPENDENT)


@given(
    st.integers(0, 7),
    st.integers(0, 7),
    st.sets(st.integers(0, 7), max_size=4),
    st.sampled_from(list(Polarity)),
)
@settings(max_examples=80)
def test_canonicalize_idempotent_and_polarity_preserving(x, y, cond, polarity):
    if x == y or x in cond or y in cond:
        with pytest.raises(ValueError):
            canonicalize(x, y, condset(cond), polarity)
        return
    s = canonicalize(x, y, condset(cond), polarity)
    again = canonicalize(s.x, s.y, s.cond, s.polarity)
    assert again == s
    assert s.polarity is polarity
    assert s.x < s.y and {s.x, s.y} == {x, y}


# -- axioms -------------------------------------------------------------------

def test_identity_is_structure():
    assert is_ancestral_structure([[x == y for y in range(3)] for x in range(3)])


def test_transitivity_violation_detected():
    m = [[True, True, False], [False, True, True], [False, False, True]]
    assert not is_ancestral_structure(m)


def test_antisymmetry_violation_detected():
    m = [[True, True, False], [True, True, False], [False, False, True]]
    assert not is_ancestral_structure(m)


def test_missing_diagonal_detected():
    m = [[False, False], [False, True]]
    assert not is_ancestral_structure(m)


# -- transitive closure --------------------------------------------------------

def test_close_adds_transitive_edge():
    s = transitive_close([(0, 1), (1, 2)], 3)
    assert s.reach(0, 2)
    assert is_ancestral_structure(s.matrix())


def test_close_of_nothing_is_identity():
    assert transitive_close([], 3) == AncestralStructure.identity(3)


def test_close_detects_cycle():
    with pytest.raises(CycleError):
        transitive_close([(0, 1), (1, 0)], 2)


@given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8))
@settings(max_examples=80)
def test_close_idempotent(edges):
    try:
        s = transitive_close(edges, 5)
    except CycleError:
        return
    again = transitive_close(s.pairs(), 5)
    assert again == s


# -- enumeration and counting ---------------------------------------------------

@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 3), (3, 19), (4, 219), (5, 4231)])
def test_known_partial_order_counts(n, count):
    assert count_ancestral_structures(n) == count
    assert sum(1 for _ in enumerate_ancestral_structures(n)) == count


def test_enumeration_matches_matrix_filter():
    for n in (2, 3, 4):
        enumerated = {s.rows for s in enumerate_ancestral_structures(n)}
        brute = {
            AncestralStructure.from_matrix(m).rows for m in all_structure_matrices(n)
        }
        assert enumerated == brute


def test_enumeration_yields_valid_unique_structures():
    seen = set()
    for s in enumerate_ancestral_structures(4):
        assert is_ancestral_structure(s.matrix())
        assert s.rows not in seen
        seen.add(s.rows)


def test_enumeration_n2_contents():
    rows = sorted(s.rows for s in enumerate_ancestral_structures(2))
    assert rows == [(1, 2), (1, 3), (3, 2)]


def test_count_six_matches_enumeration():
    assert count_ancestral_structures(6) == sum(1 for _ in enumerate_ancestral_structures(6))


def test_enumeration_guard():
    with pytest.raises(ValueError):
        list(enumerate_ancestral_structures(7))
    with pytest.raises(ValueError):
        count_ancestral_structures(8)


# -- weights ---------------------------------------------------------------------

def test_weight_ordering_and_addition():
    assert Weight.finite(3) < Weight.finite(5) < Weight.hard()
    assert Weight.finite(2) + Weight.finite(5) == Weight.finite(7)
    assert (Weight.finite(2) + Weight.hard()).is_hard


def test_weight_rejects_negative():
    with pytest.raises(ValueError):
        Weight.finite(-1)


def test_weight_finite_takes_integers_only():
    """``Weight.finite`` takes numpy integers and, like the constructor,
    rejects a float rather than truncating it."""
    assert Weight.finite(np.int64(7)) == Weight(7)
    assert type(Weight.finite(np.int64(7)).millis) is int
    for bad in (2.7, 2.0, np.float64(3.0)):
        with pytest.raises(TypeError):
            Weight.finite(bad)
        with pytest.raises(TypeError):
            Weight(bad)


def test_condset_roundtrip():
    assert condset_members(condset([4, 1])) == (1, 4)
