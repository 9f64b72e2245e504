"""Core domain types: variables, condition sets, statements, weights and
ancestral structures (non-strict partial orders over variable indices).

Variables are integer indices 0..n-1 with n <= 31, so a conditioning set
fits in a single machine word as a bitmask. Weights are integers in
milli-log-units (natural log times 1000) or the distinguished hard
(infinite) sentinel; hard is never approximated by a large finite value.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Iterator, Sequence, Union

MAX_VARS = 31
ENUMERATION_LIMIT = 6
COUNT_LIMIT = 7


class CycleError(ValueError):
    """Raised when requested edges imply x => y => x for distinct x, y."""


class Polarity(Enum):
    INDEPENDENT = "indep"
    DEPENDENT = "dep"

    def flipped(self) -> "Polarity":
        if self is Polarity.INDEPENDENT:
            return Polarity.DEPENDENT
        return Polarity.INDEPENDENT


class Ancestry(Enum):
    CAUSES = "causes"
    NOT_CAUSES = "notcauses"

    def flipped(self) -> "Ancestry":
        if self is Ancestry.CAUSES:
            return Ancestry.NOT_CAUSES
        return Ancestry.CAUSES


# ---------------------------------------------------------------------------
# Condition sets as bitmasks


def condset(members: Iterable[int] = ()) -> int:
    """Bitmask for a set of variable indices."""
    bits = 0
    for m in members:
        if not 0 <= m < MAX_VARS:
            raise ValueError(f"variable index {m} out of range")
        bits |= 1 << m
    return bits


def condset_members(bits: int) -> tuple[int, ...]:
    return tuple(iter_bits(bits))


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def condsets_up_to(items: Sequence[int], max_order: int) -> list[int]:
    """Bitmasks of every subset of ``items`` with at most ``max_order``
    members: by size, then ascending within a size."""
    masks = [0]
    for k in range(1, max_order + 1):
        masks.extend(sorted(condset(c) for c in combinations(items, k)))
    return masks


# ---------------------------------------------------------------------------
# Weights


@dataclass(frozen=True)
class Weight:
    """Nonnegative integer weight in milli-log-units, or the hard sentinel.

    ``millis is None`` encodes the hard (infinite) weight used for oracle
    facts and background knowledge that must never be violated.
    """

    millis: Union[int, None]

    def __post_init__(self) -> None:
        if self.millis is not None:
            if not isinstance(self.millis, int):
                raise TypeError("finite weight must be an integer milli value")
            if self.millis < 0:
                raise ValueError("finite weight must be nonnegative")

    @classmethod
    def finite(cls, millis: int) -> "Weight":
        """A finite weight from any integer, a numpy integer included; a
        float raises ``TypeError`` as the constructor does."""
        return cls(operator.index(millis))

    @classmethod
    def hard(cls) -> "Weight":
        return cls(None)

    @property
    def is_hard(self) -> bool:
        return self.millis is None

    def _key(self) -> tuple[int, int]:
        return (1, 0) if self.millis is None else (0, self.millis)

    def __lt__(self, other: "Weight") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Weight") -> bool:
        return self._key() <= other._key()

    def __add__(self, other: "Weight") -> "Weight":
        if self.millis is None or other.millis is None:
            return Weight(None)
        return Weight(self.millis + other.millis)

    def __repr__(self) -> str:
        return "Weight(hard)" if self.millis is None else f"Weight({self.millis})"


HARD = Weight.hard()


# ---------------------------------------------------------------------------
# Statements


@dataclass(frozen=True)
class CiStatement:
    """Canonical conditional (in)dependence statement on a pair given a set.

    Canonical means x < y and neither endpoint occurs in the conditioning
    bitmask; build via :func:`canonicalize` when the pair may be unordered.
    """

    x: int
    y: int
    cond: int
    polarity: Polarity

    def __post_init__(self) -> None:
        if not 0 <= self.x < self.y < MAX_VARS:
            raise ValueError(f"non-canonical pair ({self.x}, {self.y})")
        if self.cond < 0 or self.cond >> MAX_VARS:
            raise ValueError("conditioning mask out of range")
        if (self.cond >> self.x) & 1 or (self.cond >> self.y) & 1:
            raise ValueError("conditioning set must exclude both endpoints")

    @property
    def order(self) -> int:
        return self.cond.bit_count()

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.cond)


def canonicalize(x: int, y: int, cond: int, polarity: Polarity) -> CiStatement:
    """Order the pair as (min, max); the semantic content is unchanged."""
    if x == y:
        raise ValueError("a statement needs two distinct variables")
    if x > y:
        x, y = y, x
    return CiStatement(x, y, cond, polarity)


@dataclass(frozen=True)
class AncStatement:
    """Ordered ancestral claim: cause does (or does not) reach effect."""

    cause: int
    effect: int
    polarity: Ancestry

    def __post_init__(self) -> None:
        if self.cause == self.effect:
            raise ValueError("cause and effect must differ")
        if not (0 <= self.cause < MAX_VARS and 0 <= self.effect < MAX_VARS):
            raise ValueError("variable index out of range")


Statement = Union[CiStatement, AncStatement]


@dataclass(frozen=True)
class WeightedInput:
    statement: Statement
    weight: Weight


def indep(x: int, y: int, cond: Iterable[int] = (), weight: Weight = HARD) -> WeightedInput:
    return WeightedInput(canonicalize(x, y, condset(cond), Polarity.INDEPENDENT), weight)


def dep(x: int, y: int, cond: Iterable[int] = (), weight: Weight = HARD) -> WeightedInput:
    return WeightedInput(canonicalize(x, y, condset(cond), Polarity.DEPENDENT), weight)


def causes(x: int, y: int, weight: Weight = HARD) -> WeightedInput:
    return WeightedInput(AncStatement(x, y, Ancestry.CAUSES), weight)


def not_causes(x: int, y: int, weight: Weight = HARD) -> WeightedInput:
    return WeightedInput(AncStatement(x, y, Ancestry.NOT_CAUSES), weight)


# ---------------------------------------------------------------------------
# Ancestral structures


@dataclass(frozen=True)
class AncestralStructure:
    """Reflexive, transitive, antisymmetric reachability over n variables.

    ``rows[x]`` is the bitmask of all y with x => y; the diagonal is stored
    explicitly so the axioms hold verbatim on the matrix.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.n:
            raise ValueError("row count must equal n")
        if any(row >> self.n for row in self.rows):
            raise ValueError("row has bits outside 0..n-1")
        broken = _broken_axiom(self.rows)
        if broken:
            raise ValueError(broken)

    @classmethod
    def identity(cls, n: int) -> "AncestralStructure":
        return cls(n, tuple(1 << x for x in range(n)))

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence[object]]) -> "AncestralStructure":
        """The structure of a square truth matrix; ``ValueError`` names
        the axiom that it breaks."""
        rows = _matrix_rows(matrix)
        return cls(len(rows), rows)

    def reach(self, x: int, y: int) -> bool:
        return bool((self.rows[x] >> y) & 1)

    def matrix(self) -> list[list[bool]]:
        return [[self.reach(x, y) for y in range(self.n)] for x in range(self.n)]

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Off-diagonal reach pairs (x, y) with x => y."""
        out = []
        for x in range(self.n):
            for y in iter_bits(self.rows[x] & ~(1 << x)):
                out.append((x, y))
        return tuple(out)

    def key(self) -> int:
        """Row-major bit key used for lexicographic comparisons."""
        k = 0
        for x in range(self.n):
            for y in range(self.n):
                k = (k << 1) | ((self.rows[x] >> y) & 1)
        return k


def _broken_axiom(rows: Sequence[int]) -> Union[str, None]:
    """The first partial-order axiom (reflexivity, transitivity,
    antisymmetry) that reachability rows over ``range(len(rows))`` break,
    as an error message, or None when they break none."""
    for x, row in enumerate(rows):
        if not (row >> x) & 1:
            return "diagonal must be set (reflexivity)"
        for y in iter_bits(row):
            if rows[y] & ~row:
                return "reachability must be transitively closed"
            if y != x and (rows[y] >> x) & 1:
                return "reachability must be antisymmetric"
    return None


def _matrix_rows(matrix: Sequence[Sequence[object]]) -> tuple[int, ...]:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    return tuple(sum(1 << y for y, v in enumerate(row) if v) for row in matrix)


def is_ancestral_structure(matrix: Sequence[Sequence[object]]) -> bool:
    """Check reflexivity, transitivity and antisymmetry of a square matrix."""
    return _broken_axiom(_matrix_rows(matrix)) is None


def transitive_close(edges: Iterable[tuple[int, int]], n: int) -> AncestralStructure:
    """Minimal reflexive-transitive structure containing the given edges."""
    rows = [1 << x for x in range(n)]
    for src, dst in edges:
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"edge ({src}, {dst}) out of range")
        rows[src] |= 1 << dst
    for k in range(n):
        for x in range(n):
            if (rows[x] >> k) & 1:
                rows[x] |= rows[k]
    for x in range(n):
        for y in iter_bits(rows[x]):
            if y != x and (rows[y] >> x) & 1:
                raise CycleError(f"edges imply a cycle through {x} and {y}")
    return AncestralStructure(n, tuple(rows))


def _down_up_sets(rows: Sequence[int], m: int) -> tuple[list[int], list[int]]:
    # Down-sets are closed under predecessors, up-sets under successors.
    preds = [0] * m
    succs = [0] * m
    for x in range(m):
        succs[x] = rows[x] & ~(1 << x)
        for y in iter_bits(succs[x]):
            preds[y] |= 1 << x
    downs, ups = [], []
    for s in range(1 << m):
        okd = oku = True
        t = s
        while t and (okd or oku):
            low = t & -t
            i = low.bit_length() - 1
            t ^= low
            if preds[i] & ~s:
                okd = False
            if succs[i] & ~s:
                oku = False
        if okd:
            downs.append(s)
        if oku:
            ups.append(s)
    return downs, ups


def _extensions_of(rows: tuple[int, ...], m: int) -> Iterator[tuple[int, ...]]:
    # All ways to add element m below a down-set D and above an up-set U.
    downs, ups = _down_up_sets(rows, m)
    bit = 1 << m
    full = bit - 1
    for d_set in downs:
        allowed = full & ~d_set
        for x in iter_bits(d_set):
            allowed &= rows[x]
        for u_set in ups:
            if u_set & ~allowed:
                continue
            yield tuple(
                (r | bit) if (d_set >> i) & 1 else r for i, r in enumerate(rows)
            ) + (bit | u_set,)


def enumerate_ancestral_structures(n: int) -> Iterator[AncestralStructure]:
    """Yield every ancestral structure on n variables exactly once.

    Structures are generated by adding one element at a time, choosing the
    sets below and above it; the order is deterministic.
    """
    if not 0 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"enumeration is limited to n <= {ENUMERATION_LIMIT}")

    def rec(rows: tuple[int, ...], m: int) -> Iterator[AncestralStructure]:
        if m == n:
            yield AncestralStructure(n, rows)
            return
        for ext in _extensions_of(rows, m):
            yield from rec(ext, m + 1)

    yield from rec((), 0)


def count_ancestral_structures(n: int) -> int:
    """Exact number of partial orders on n labelled elements."""
    if not 0 <= n <= COUNT_LIMIT:
        raise ValueError(f"counting is limited to n <= {COUNT_LIMIT}")
    if n == 0:
        return 1

    def count_pairs(rows: tuple[int, ...], m: int) -> int:
        downs, ups = _down_up_sets(rows, m)
        size = 1 << m
        # f[mask] = number of up-sets contained in mask (subset-sum table)
        f = [0] * size
        for u_set in ups:
            f[u_set] = 1
        for b in range(m):
            bit = 1 << b
            for mask in range(size):
                if mask & bit:
                    f[mask] += f[mask ^ bit]
        total = 0
        full = size - 1
        for d_set in downs:
            allowed = full & ~d_set
            for x in iter_bits(d_set):
                allowed &= rows[x]
            total += f[allowed]
        return total

    def rec(rows: tuple[int, ...], m: int) -> int:
        if m == n - 1:
            return count_pairs(rows, m)
        return sum(rec(ext, m + 1) for ext in _extensions_of(rows, m))

    return rec((), 0)
