"""Synthetic ground truth: random linear acyclic Gaussian models with
latent variables, ancestral sampling, a d-separation oracle and hard
oracle input construction.

Observed variables are indices 0..n_obs-1, latents follow; the topological
order is a random permutation over all nodes, so observed variables sit
anywhere in the causal order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from ancestral.core import (
    AncestralStructure,
    Weight,
    WeightedInput,
    canonicalize,
    condset_members,
    condsets_up_to,
    Polarity,
)
from ancestral.stats import Dataset

Seed = Union[int, Sequence[int]]

DEFAULT_EDGE_PROB = 0.3
DEFAULT_N_LATENT = 1
COEF_LOW, COEF_HIGH = 0.5, 2.0


@dataclass(frozen=True)
class Scm:
    """Linear acyclic structural model over observed plus latent nodes."""

    n_obs: int
    n_latent: int
    adj: np.ndarray            # bool, adj[i, j] means i -> j
    coefficients: np.ndarray   # float, aligned with adj
    noise_std: np.ndarray
    topo_order: tuple[int, ...]

    @property
    def n_total(self) -> int:
        return self.n_obs + self.n_latent


def random_linear_model(
    n_obs: int,
    n_latent: int = DEFAULT_N_LATENT,
    edge_prob: float = DEFAULT_EDGE_PROB,
    seed: Seed = 0,
) -> Scm:
    """Random DAG on a random topological order; each forward pair gets an
    edge with probability ``edge_prob`` and a coefficient drawn uniformly
    from +-[0.5, 2.0]. Unit noise everywhere. Deterministic per seed."""
    if n_obs < 1:
        raise ValueError("n_obs must be positive")
    if n_latent < 0:
        raise ValueError("n_latent must be nonnegative")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must lie in [0, 1]")
    total = n_obs + n_latent
    rng = np.random.default_rng(seed)
    order = tuple(int(v) for v in rng.permutation(total))
    adj = np.zeros((total, total), dtype=bool)
    coef = np.zeros((total, total), dtype=np.float64)
    for i in range(total):
        for j in range(i + 1, total):
            if rng.random() < edge_prob:
                src, dst = order[i], order[j]
                adj[src, dst] = True
                magnitude = rng.uniform(COEF_LOW, COEF_HIGH)
                sign = 1.0 if rng.random() < 0.5 else -1.0
                coef[src, dst] = sign * magnitude
    return Scm(n_obs, n_latent, adj, coef, np.ones(total), order)


def sample_data(scm: Scm, n_samples: int, seed: Seed = 0) -> Dataset:
    """Ancestral sampling in topological order; latent columns are dropped
    from the returned dataset."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    values = np.zeros((n_samples, scm.n_total))
    for node in scm.topo_order:
        parents = np.flatnonzero(scm.adj[:, node])
        noise = rng.normal(0.0, scm.noise_std[node], n_samples)
        if parents.size:
            values[:, node] = values[:, parents] @ scm.coefficients[parents, node] + noise
        else:
            values[:, node] = noise
    names = tuple(f"X{i}" for i in range(scm.n_obs))
    return Dataset(names, values[:, : scm.n_obs])


def d_separated(adj: np.ndarray, x: int, y: int, cond: Union[int, Iterable[int]]) -> bool:
    """Standard d-separation on a DAG adjacency matrix: true iff every path
    between x and y is blocked by the conditioning set."""
    cond_set = set(condset_members(cond)) if isinstance(cond, int) else set(cond)
    if x == y:
        raise ValueError("x and y must differ")
    if x in cond_set or y in cond_set:
        raise ValueError("endpoints may not be conditioned on")
    total = adj.shape[0]
    parents = [list(np.flatnonzero(adj[:, v])) for v in range(total)]
    children = [list(np.flatnonzero(adj[v, :])) for v in range(total)]

    ancestors = set()
    frontier = list(cond_set)
    while frontier:
        v = frontier.pop()
        if v in ancestors:
            continue
        ancestors.add(v)
        frontier.extend(parents[v])

    # walk (node, direction) states; 'up' means the trail arrived from a child
    visited = set()
    frontier = [(x, True)]
    while frontier:
        node, up = frontier.pop()
        if (node, up) in visited:
            continue
        visited.add((node, up))
        if node == y:
            return False
        if up:
            if node not in cond_set:
                frontier.extend((p, True) for p in parents[node])
                frontier.extend((c, False) for c in children[node])
        else:
            if node not in cond_set:
                frontier.extend((c, False) for c in children[node])
            if node in ancestors:
                frontier.extend((p, True) for p in parents[node])
    return True


def true_ancestral_structure(scm: Scm) -> AncestralStructure:
    """Reachability among observed variables, through latents if needed."""
    total = scm.n_total
    rows = [1 << v for v in range(total)]
    order = scm.topo_order
    for i in range(total - 1, -1, -1):
        src = order[i]
        for dst in np.flatnonzero(scm.adj[src, :]):
            rows[src] |= rows[dst]
    obs_rows = []
    for x in range(scm.n_obs):
        mask = 1 << x
        for y in range(scm.n_obs):
            if y != x and (rows[x] >> y) & 1:
                mask |= 1 << y
        obs_rows.append(mask)
    return AncestralStructure(scm.n_obs, tuple(obs_rows))


def oracle_inputs(scm: Scm, max_order: int) -> list[WeightedInput]:
    """Hard (in)dependence statements read off the graph's d-separations,
    for every canonical observed triple up to the given order."""
    n = scm.n_obs
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    if max_order > n - 2:
        raise ValueError("max_order may not exceed n_obs - 2")
    out = []
    for x in range(n):
        for y in range(x + 1, n):
            others = [v for v in range(n) if v != x and v != y]
            for cond in condsets_up_to(others, max_order):
                polarity = (
                    Polarity.INDEPENDENT
                    if d_separated(scm.adj, x, y, cond)
                    else Polarity.DEPENDENT
                )
                out.append(
                    WeightedInput(canonicalize(x, y, cond, polarity), Weight.hard())
                )
    return out


def dump_scm(scm: Scm) -> str:
    """Text dump: `obs <k>` / `latent <k>` headers, then one edge per line
    as `src -> dst : coeff`."""
    lines = [f"obs {scm.n_obs}", f"latent {scm.n_latent}"]
    for src in range(scm.n_total):
        for dst in np.flatnonzero(scm.adj[src, :]):
            lines.append(f"{src} -> {int(dst)} : {scm.coefficients[src, dst]:.17g}")
    return "\n".join(lines) + "\n"


def write_scm(scm: Scm, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_scm(scm))
