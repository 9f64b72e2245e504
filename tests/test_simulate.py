import math
import random
from itertools import combinations

import numpy as np
import pytest

from ancestral.core import AncestralStructure, Polarity, is_ancestral_structure
from ancestral.simulate import (
    Scm,
    d_separated,
    dump_scm,
    oracle_inputs,
    random_linear_model,
    sample_data,
    true_ancestral_structure,
    write_scm,
)
from ancestral.solver import solve_min_loss

from helpers import path_d_separated, random_dag


def chain_scm():
    adj = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=bool)
    return Scm(3, 0, adj, adj.astype(float), np.ones(3), (0, 1, 2))


def collider_scm():
    adj = np.array([[0, 1, 0], [0, 0, 0], [0, 1, 0]], dtype=bool)
    return Scm(3, 0, adj, adj.astype(float), np.ones(3), (0, 2, 1))


# -- model generation ---------------------------------------------------------

def test_same_seed_same_model():
    a = random_linear_model(4, 2, 0.4, seed=42)
    b = random_linear_model(4, 2, 0.4, seed=42)
    assert np.array_equal(a.adj, b.adj)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.topo_order == b.topo_order


def test_zero_edge_probability_is_empty():
    scm = random_linear_model(3, 1, 0.0, seed=1)
    assert not scm.adj.any()
    assert true_ancestral_structure(scm) == AncestralStructure.identity(3)


def test_full_edge_probability_is_total_order():
    scm = random_linear_model(3, 0, 1.0, seed=1)
    truth = true_ancestral_structure(scm)
    assert sum(truth.reach(x, y) for x in range(3) for y in range(3) if x != y) == 3


def test_model_sizes_are_validated():
    with pytest.raises(ValueError, match="n_obs must be positive"):
        random_linear_model(0, 1, 0.3, seed=0)
    with pytest.raises(ValueError, match="n_latent must be nonnegative"):
        random_linear_model(3, -1, 0.3, seed=0)
    assert random_linear_model(1, 0, 0.3, seed=0).n_total == 1


def test_model_is_acyclic_and_coefficients_in_range():
    rng = random.Random(0)
    for seed in range(10):
        scm = random_linear_model(5, 2, 0.5, seed=seed)
        order_pos = {v: i for i, v in enumerate(scm.topo_order)}
        for src in range(scm.n_total):
            for dst in range(scm.n_total):
                if scm.adj[src, dst]:
                    assert order_pos[src] < order_pos[dst]
                    assert 0.5 <= abs(scm.coefficients[src, dst]) <= 2.0


# -- sampling --------------------------------------------------------------------

def test_sampling_is_deterministic():
    scm = random_linear_model(4, 1, 0.4, seed=3)
    a = sample_data(scm, 100, seed=9)
    b = sample_data(scm, 100, seed=9)
    assert np.array_equal(a.values, b.values)
    assert a.values.shape == (100, 4)


def test_empty_graph_samples_are_uncorrelated():
    scm = random_linear_model(3, 0, 0.0, seed=4)
    data = sample_data(scm, 50000, seed=5)
    corr = np.corrcoef(data.values, rowvar=False)
    off = corr[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off) < 0.05)


def test_unit_chain_correlation():
    adj = np.array([[0, 1], [0, 0]], dtype=bool)
    scm = Scm(2, 0, adj, adj.astype(float), np.ones(2), (0, 1))
    data = sample_data(scm, 200000, seed=6)
    corr = np.corrcoef(data.values, rowvar=False)[0, 1]
    assert corr == pytest.approx(1 / math.sqrt(2), abs=0.01)


def test_latent_columns_dropped():
    scm = random_linear_model(3, 2, 0.5, seed=7)
    data = sample_data(scm, 20, seed=8)
    assert data.n_vars == 3
    assert data.names == ("X0", "X1", "X2")


# -- d-separation -------------------------------------------------------------------

def test_chain_textbook_cases():
    adj = chain_scm().adj
    assert d_separated(adj, 0, 2, {1})
    assert not d_separated(adj, 0, 2, set())


def test_collider_textbook_cases():
    adj = collider_scm().adj
    assert d_separated(adj, 0, 2, set())
    assert not d_separated(adj, 0, 2, {1})


def test_symmetry():
    rng = random.Random(11)
    for _ in range(10):
        adj = random_dag(5, 0.4, rng)
        x, y = rng.sample(range(5), 2)
        cond = set(rng.sample([v for v in range(5) if v not in (x, y)], 2))
        assert d_separated(adj, x, y, cond) == d_separated(adj, y, x, cond)


def test_agrees_with_path_enumeration():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(3, 6)
        adj = random_dag(n, 0.45, rng)
        for x in range(n):
            for y in range(x + 1, n):
                others = [v for v in range(n) if v not in (x, y)]
                conds = [set()]
                for k in range(1, min(2, len(others)) + 1):
                    conds.extend(set(c) for c in combinations(others, k))
                for cond in conds:
                    assert d_separated(adj, x, y, cond) == path_d_separated(
                        adj, x, y, cond
                    ), (adj, x, y, cond)


def test_guards():
    adj = chain_scm().adj
    with pytest.raises(ValueError):
        d_separated(adj, 0, 0, set())
    with pytest.raises(ValueError):
        d_separated(adj, 0, 2, {0})


# -- ground truth --------------------------------------------------------------------

def test_latent_path_projects_to_reach():
    # X0 -> L -> X1 with L latent
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 2] = True
    adj[2, 1] = True
    scm = Scm(2, 1, adj, adj.astype(float), np.ones(3), (0, 2, 1))
    truth = true_ancestral_structure(scm)
    assert truth.reach(0, 1)
    assert not truth.reach(1, 0)


def test_truth_is_always_a_valid_structure():
    for seed in range(15):
        scm = random_linear_model(5, 2, 0.5, seed=seed)
        truth = true_ancestral_structure(scm)
        assert is_ancestral_structure(truth.matrix())


def test_truth_equals_projected_closure():
    from ancestral.core import transitive_close

    for seed in range(10):
        scm = random_linear_model(4, 2, 0.5, seed=seed)
        total = scm.n_total
        full = transitive_close(
            [(x, y) for x in range(total) for y in range(total) if scm.adj[x, y]],
            total,
        )
        rows = []
        for x in range(4):
            mask = 1 << x
            for y in range(4):
                if y != x and full.reach(x, y):
                    mask |= 1 << y
            rows.append(mask)
        assert true_ancestral_structure(scm) == AncestralStructure(4, tuple(rows))


# -- oracle inputs ----------------------------------------------------------------------

def test_chain_oracle_contents():
    scm = chain_scm()
    inputs = oracle_inputs(scm, 1)
    stmts = {
        (w.statement.x, w.statement.y, w.statement.cond): w.statement.polarity
        for w in inputs
    }
    assert stmts[(0, 2, 0b10)] is Polarity.INDEPENDENT
    assert stmts[(0, 2, 0)] is Polarity.DEPENDENT
    assert all(w.weight.is_hard for w in inputs)


def test_oracle_statement_count():
    scm = random_linear_model(5, 1, 0.4, seed=20)
    for c in (0, 1, 2):
        inputs = oracle_inputs(scm, c)
        expected = 10 * sum(math.comb(3, k) for k in range(c + 1))
        assert len(inputs) == expected


def test_oracle_rejects_negative_order():
    scm = random_linear_model(5, 1, 0.4, seed=20)
    with pytest.raises(ValueError, match="nonnegative"):
        oracle_inputs(scm, -1)


def test_oracle_instances_solve_to_zero():
    for seed in range(5):
        scm = random_linear_model(4, 1, 0.4, seed=seed)
        inputs = oracle_inputs(scm, 2)
        r = solve_min_loss(inputs, 4, build_witness=False)
        assert r.min_loss.millis == 0


def test_oracle_order_guard():
    scm = random_linear_model(3, 0, 0.4, seed=0)
    with pytest.raises(ValueError):
        oracle_inputs(scm, 2)


# -- dump -----------------------------------------------------------------------------------

def test_scm_dump_format(tmp_path):
    scm = chain_scm()
    text = dump_scm(scm)
    lines = text.splitlines()
    assert lines[0] == "obs 3"
    assert lines[1] == "latent 0"
    assert lines[2] == "0 -> 1 : 1"
    write_scm(scm, tmp_path / "m.txt")
    assert (tmp_path / "m.txt").read_text() == text
