"""Data model: finite towers of rational pseudometric spaces.

A tower is a strictly increasing chain of prefixes of one finite ground
set, with one exact-rational pseudometric per level.  Distances enter and
leave as ``fractions.Fraction``; inside, each table is also held as Python
ints over one common denominator, on which the kernels compute.  No
floating point is used anywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Iterable, Sequence

from .errors import (
    IndexOutOfRange,
    LevelMismatch,
    NestingViolation,
    NotUniform,
    SubspaceViolation,
    TriangleViolation,
    ValidationError,
)


def _over_common_denominator(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """The lcm ``den`` of the entries' denominators and the entries as int
    numerators over it: ``rows[i][j] == Fraction(numer[i][j], den)``."""
    den = math.lcm(*{v.denominator for row in rows for v in row})
    return den, [[v.numerator * (den // v.denominator) for v in row] for row in rows]


def closure_in_place(d: list[list[int]]) -> list[list[int]]:
    """Floyd-Warshall on a square int matrix with a zero diagonal,
    relaxing ``d`` in place; returns ``d``."""
    n = len(d)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            di = d[i]
            # the new row is built in full before it is written back, so
            # row k relaxes against its old values, as an entry-by-entry
            # update would
            di[:] = map(min, di, map(di[k].__add__, dk))
    return d


def shortest_path_closure(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Largest pseudometric dominated by a symmetric nonnegative matrix.

    Floyd-Warshall on the int numerators over the entries' common
    denominator, which is exact; the input must have a zero diagonal and be
    symmetric.
    """
    den, d = _over_common_denominator(matrix)
    closure_in_place(d)
    as_fraction = {v: Fraction(v, den) for v in {v for row in d for v in row}}
    return [[as_fraction[v] for v in row] for row in d]


class Pseudometric:
    """A symmetric square table of nonnegative rationals with zero diagonal
    satisfying the triangle inequality.

    ``dist`` holds the values as ``Fraction``s.  ``numer`` holds the same
    values as ints over the common denominator ``den``, the lcm of their
    denominators: ``dist[i][j] == Fraction(numer[i][j], den)``.
    """

    __slots__ = ("size", "dist", "den", "numer")

    def __init__(self, dist: Sequence[Sequence[Fraction]]):
        self.dist: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(v if isinstance(v, Fraction) else Fraction(v) for v in row) for row in dist
        )
        self.size = len(self.dist)
        self.den, numer = _over_common_denominator(self.dist)
        self.numer: tuple[tuple[int, ...], ...] = tuple(map(tuple, numer))

    @classmethod
    def _from_numer(cls, den: int, numer: Sequence[Sequence[int]]) -> "Pseudometric":
        """The table ``numer`` over ``den``, held as ``Pseudometric`` of the
        same values as ``Fraction``s would hold it: ``den`` and ``numer`` are
        divided by their gcd, so ``den`` is the lcm of the reduced
        denominators.  Not validated."""
        g = math.gcd(den, *(v for row in numer for v in row))
        if g != 1:
            den //= g
            numer = [[v // g for v in row] for row in numer]
        as_fraction = {v: Fraction(v, den) for v in {v for row in numer for v in row}}
        d = object.__new__(cls)
        d.dist = tuple(tuple(as_fraction[v] for v in row) for row in numer)
        d.size = len(d.dist)
        d.den = den
        d.numer = tuple(map(tuple, numer))
        return d

    @classmethod
    def from_lower_triangular(cls, rows: Sequence[Sequence]) -> "Pseudometric":
        """Build from rows ``[d(i,0), ..., d(i,i-1)]`` for i = 0..n-1."""
        n = len(rows)
        dist = [[Fraction(0)] * n for _ in range(n)]
        for i, row in enumerate(rows):
            if len(row) != i:
                raise ValidationError(f"lower-triangular row {i} has length {len(row)}")
            for j, v in enumerate(row):
                dist[i][j] = dist[j][i] = v
        return cls(dist)

    @classmethod
    def zero(cls, size: int) -> "Pseudometric":
        return cls([[Fraction(0)] * size for _ in range(size)])

    def validate(self, level: int = 0, labels: Sequence[str] | None = None) -> None:
        n = self.size
        name = (lambda i: labels[i]) if labels else str
        d = self.numer
        for i in range(n):
            if len(d[i]) != n:
                raise ValidationError(f"distance table row {i} is not square")
            if d[i][i] != 0:
                raise ValidationError(f"nonzero diagonal at {name(i)}")
        for i in range(n):
            for j in range(i):
                if d[i][j] != d[j][i]:
                    raise ValidationError(f"asymmetric pair ({name(i)},{name(j)})")
                if d[i][j] < 0:
                    raise ValidationError(f"negative distance ({name(i)},{name(j)})")
        # d(i,k) <= d(i,j) + d(j,k) for every k iff max_k d(i,k) - d(j,k)
        # <= d(i,j); with d symmetric, the pairs (i, j) and (j, i) together
        # ask max_k |d(i,k) - d(j,k)| <= d(i,j), so j < i covers them all
        for i, di in enumerate(d):
            for j in range(i):
                if max(map(abs, map(sub, di, d[j]))) > di[j]:
                    # name the first failing (a, b, c) in (a, b, c) order
                    first = next(
                        (a, b, c)
                        for a, b, c in itertools.product(range(n), repeat=3)
                        if d[a][c] > d[a][b] + d[b][c]
                    )
                    raise TriangleViolation(level, *map(name, first))

    def __call__(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def restrict(self, size: int) -> "Pseudometric":
        return Pseudometric([row[:size] for row in self.dist[:size]])

    def scale(self, factor) -> "Pseudometric":
        c = Fraction(factor)
        p = c.numerator
        return Pseudometric._from_numer(
            self.den * c.denominator, [[p * v for v in row] for row in self.numer]
        )

    def positive_values(self) -> list[Fraction]:
        den = self.den
        return [Fraction(v, den) for v in sorted({v for row in self.numer for v in row if v > 0})]

    def max_value(self) -> Fraction:
        return Fraction(max(v for row in self.numer for v in row), self.den)

    def zero_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (i, j) for i, row in enumerate(self.numer) for j, v in enumerate(row) if v == 0
        )

    def sublevel_pairs(self, eps: Fraction) -> frozenset[tuple[int, int]]:
        """The strict sublevel relation {d < eps}."""
        q, bound = eps.denominator, eps.numerator * self.den
        return frozenset(
            (i, j) for i, row in enumerate(self.numer) for j, v in enumerate(row) if v * q < bound
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Pseudometric) and self.dist == other.dist

    def __hash__(self) -> int:
        return hash(self.dist)

    def __repr__(self) -> str:
        return f"Pseudometric(size={self.size})"


class Tower:
    """Nested prefixes of a finite ground set with one pseudometric per level.

    Element i belongs to level n iff ``i < level_sizes[n]``.  Consecutive
    levels must agree on zero-pairs (the finite-scale uniform-subspace
    condition); in strict mode the higher metric must restrict exactly.
    A tower is not modified after construction, so the heights, and each
    level's zero-relation and grid entourages once asked for, are kept.
    """

    def __init__(
        self,
        labels: Sequence[str],
        level_sizes: Sequence[int],
        level_metrics: Sequence[Pseudometric],
        strict: bool = False,
    ):
        self.labels = tuple(labels)
        self.level_sizes = tuple(level_sizes)
        self.level_metrics = tuple(level_metrics)
        self.strict = strict
        self.validate()
        heights: list[int] = []
        for n, m in enumerate(self.level_sizes):
            heights += [n] * (m - len(heights))
        self._heights = tuple(heights)
        self._zero_relations: list[Entourage | None] = [None] * self.num_levels
        self._grids: list[tuple[Entourage, ...] | None] = [None] * self.num_levels

    # -- structure ---------------------------------------------------------

    @property
    def num_levels(self) -> int:
        return len(self.level_sizes)

    @property
    def top_level(self) -> int:
        return len(self.level_sizes) - 1

    @property
    def ground_size(self) -> int:
        return self.level_sizes[-1]

    def level_size(self, n: int) -> int:
        if not 0 <= n < self.num_levels:
            raise IndexOutOfRange(f"level {n} out of range")
        return self.level_sizes[n]

    def metric(self, n: int) -> Pseudometric:
        if not 0 <= n < self.num_levels:
            raise IndexOutOfRange(f"level {n} out of range")
        return self.level_metrics[n]

    def validate(self) -> None:
        if not self.level_sizes:
            raise NestingViolation("tower has no levels")
        if len(self.labels) != self.level_sizes[-1]:
            raise NestingViolation(
                f"{len(self.labels)} labels for top size {self.level_sizes[-1]}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("duplicate labels")
        prev = 0
        for m in self.level_sizes:
            if m <= prev:
                raise NestingViolation(f"level sizes not strictly increasing: {self.level_sizes}")
            prev = m
        if len(self.level_metrics) != self.num_levels:
            raise NestingViolation("one pseudometric per level required")
        for n, d in enumerate(self.level_metrics):
            if d.size != self.level_sizes[n]:
                raise NestingViolation(
                    f"metric at level {n} has size {d.size}, expected {self.level_sizes[n]}"
                )
            d.validate(n, self.labels)
        for n in range(self.num_levels - 1):
            lo, hi = self.level_metrics[n], self.level_metrics[n + 1]
            m = self.level_sizes[n]
            for i in range(m):
                for j in range(m):
                    if (lo.numer[i][j] == 0) != (hi.numer[i][j] == 0):
                        raise SubspaceViolation(n, self.labels[i], self.labels[j])
                    if self.strict and lo.dist[i][j] != hi.dist[i][j]:
                        raise SubspaceViolation(n, self.labels[i], self.labels[j])

    # -- heights -----------------------------------------------------------

    def height(self, x: int) -> int:
        """First level index at which element x appears."""
        if not 0 <= x < self.ground_size:
            raise IndexOutOfRange(f"element index {x}")
        return self._heights[x]

    def pair_height(self, x: int, y: int) -> int:
        return max(self.height(x), self.height(y))

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise IndexOutOfRange(f"unknown label {label!r}") from None

    # -- entourage bases ----------------------------------------------------

    def zero_relation(self, level: int) -> "Entourage":
        """Smallest entourage of the level's uniformity: {d = 0}."""
        d = self.metric(level)
        z = self._zero_relations[level]
        if z is None:
            z = self._zero_relations[level] = Entourage(level, d.size, d.zero_pairs())
        return z

    def grid_scale(self, level: int) -> "GridScale":
        return GridScale.for_metric(level, self.metric(level))

    def grid_entourages(self, level: int) -> tuple["Entourage", ...]:
        """Sublevel entourages {d < eps} over the level's grid; a finite
        base of the level's uniformity, smallest first.

        Built in one pass over the table: each pair goes into the layer of
        its value's rank among the level's distinct values, and the sublevel
        below the (r+1)-th threshold is the OR of layers 0..r (the rank-0
        value is 0, so layer 0 is the zero-relation and the last OR is the
        full square, the sublevel below the top threshold).
        """
        d = self.metric(level)
        grids = self._grids[level]
        if grids is None:
            rank = {v: r for r, v in enumerate(sorted({v for row in d.numer for v in row}))}
            layers = [[0] * d.size for _ in rank]
            for i, row in enumerate(d.numer):
                for j, v in enumerate(row):
                    layers[rank[v]][i] |= 1 << j
            acc = [0] * d.size
            out = []
            for layer in layers:
                acc = [a | b for a, b in zip(acc, layer)]
                e = Entourage._from_rows(level, acc)
                # a sublevel of a symmetric table is symmetric: its columns
                # are its rows
                e._cols = e.rows
                out.append(e)
            grids = self._grids[level] = tuple(out)
        return grids

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tower)
            and self.labels == other.labels
            and self.level_sizes == other.level_sizes
            and self.level_metrics == other.level_metrics
            and self.strict == other.strict
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.level_sizes, self.level_metrics, self.strict))

    def __repr__(self) -> str:
        return f"Tower(sizes={list(self.level_sizes)})"


@dataclass(frozen=True)
class GridScale:
    """Distinct positive values of a level metric plus one value above the
    maximum; the sublevels at these thresholds form a base of the level's
    uniformity."""

    level: int
    thresholds: tuple[Fraction, ...]

    @classmethod
    def for_metric(cls, level: int, d: Pseudometric) -> "GridScale":
        values = d.positive_values()
        top = (values[-1] if values else Fraction(0)) + 1
        return cls(level, tuple(values) + (top,))

    def __post_init__(self):
        if not self.thresholds:
            raise ValidationError("empty grid scale")
        if list(self.thresholds) != sorted(set(self.thresholds)):
            raise ValidationError("grid thresholds must be strictly increasing")


class Entourage:
    """A reflexive relation on the square of one level's ground set.

    Pairs are stored as per-point bitmask rows: bit j of ``rows[i]`` is set
    iff (i, j) is in the relation.  Symmetry is not required (composition
    destroys it); reflexivity is.
    """

    __slots__ = ("level", "size", "rows", "_cols", "_closure")

    def __init__(self, level: int, size: int, pairs: Iterable[tuple[int, int]]):
        rows = [0] * size
        for i, j in pairs:
            if not (0 <= i < size and 0 <= j < size):
                raise IndexOutOfRange(f"pair ({i},{j}) outside level of size {size}")
            rows[i] |= 1 << j
        for i in range(size):
            if not rows[i] >> i & 1:
                raise ValidationError(f"entourage not reflexive: ({i},{i}) missing")
        self.level = level
        self.size = size
        self.rows = tuple(rows)

    @classmethod
    def _from_rows(cls, level: int, rows: Sequence[int]) -> "Entourage":
        e = object.__new__(cls)
        e.level = level
        e.size = len(rows)
        e.rows = tuple(rows)
        return e

    @classmethod
    def diagonal(cls, level: int, size: int) -> "Entourage":
        return cls._from_rows(level, [1 << i for i in range(size)])

    @classmethod
    def full(cls, level: int, size: int) -> "Entourage":
        return cls._from_rows(level, [(1 << size) - 1] * size)

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (i, j) for i in range(self.size) for j in range(self.size) if self.rows[i] >> j & 1
        )

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)

    def contains(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def is_symmetric(self) -> bool:
        return all(
            (self.rows[i] >> j & 1) == (self.rows[j] >> i & 1)
            for i in range(self.size)
            for j in range(i)
        )

    def symmetrize(self) -> "Entourage":
        """Intersection with the transpose: the largest symmetric subrelation."""
        rows = list(self.rows)
        for i in range(self.size):
            for j in range(self.size):
                if rows[i] >> j & 1 and not self.rows[j] >> i & 1:
                    rows[i] &= ~(1 << j)
        return Entourage._from_rows(self.level, rows)

    def transpose(self) -> "Entourage":
        rows = [0] * self.size
        for i in range(self.size):
            r = self.rows[i]
            while r:
                j = (r & -r).bit_length() - 1
                rows[j] |= 1 << i
                r &= r - 1
        return Entourage._from_rows(self.level, rows)

    def union(self, other: "Entourage") -> "Entourage":
        if (self.level, self.size) != (other.level, other.size):
            raise LevelMismatch(
                f"levels {self.level} (size {self.size}) and {other.level} (size {other.size})"
            )
        return Entourage._from_rows(self.level, [a | b for a, b in zip(self.rows, other.rows)])

    def promote(self, level: int, size: int) -> "Entourage":
        """Embed into a larger level: keep the pairs, take the diagonal of
        the larger ground set."""
        if level < self.level or size < self.size:
            raise IndexOutOfRange("promotion must not shrink the level")
        rows = list(self.rows) + [0] * (size - self.size)
        for i in range(size):
            rows[i] |= 1 << i
        return Entourage._from_rows(level, rows)

    def issubset(self, other: "Entourage") -> bool:
        if self.size != other.size:
            return False
        return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    def columns(self) -> tuple[int, ...]:
        """Per point x, the bitmask of first coordinates paired with x: the
        ball B(x; self)."""
        try:
            return self._cols
        except AttributeError:
            pass
        cols = [0] * self.size
        for i in range(self.size):
            r = self.rows[i]
            while r:
                j = (r & -r).bit_length() - 1
                cols[j] |= 1 << i
                r &= r - 1
        self._cols = tuple(cols)
        return self._cols

    def closure(self) -> "Entourage":
        """The reflexive-transitive closure, the union of all k-fold sums
        k*U, by Warshall's algorithm on the bitmask rows: for each k, every
        row holding k takes in row k.  Directed, so it needs no symmetry."""
        try:
            return self._closure
        except AttributeError:
            pass
        rows = [r | 1 << i for i, r in enumerate(self.rows)]
        for k in range(self.size):
            rk, bit = rows[k], 1 << k
            rows = [r | rk if r & bit else r for r in rows]
        c = Entourage._from_rows(self.level, rows)
        if self.columns() == self.rows:
            # the closure of a symmetric relation is symmetric
            c._cols = c.rows
        c._closure = c
        self._closure = c
        return c

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Entourage)
            and self.level == other.level
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.level, self.rows))

    def __repr__(self) -> str:
        off_diag = sorted((i, j) for i, j in self.pairs if i != j)
        return f"Entourage(level={self.level}, size={self.size}, off_diagonal={off_diag})"


class MonotonePseudometricSequence:
    """Per-level uniform pseudometrics with d_n <= d_{n+1} on the lower square."""

    def __init__(self, tower: Tower, metrics: Sequence[Pseudometric]):
        self.tower = tower
        self.metrics = tuple(metrics)
        self.validate()

    def validate(self) -> None:
        t = self.tower
        if len(self.metrics) != t.num_levels:
            raise NestingViolation("one pseudometric per level required")
        for n, d in enumerate(self.metrics):
            if d.size != t.level_sizes[n]:
                raise NestingViolation(f"sequence metric at level {n} has wrong size")
            d.validate(n, t.labels)
            level = t.level_metrics[n]
            for i in range(d.size):
                for j in range(d.size):
                    if level.numer[i][j] == 0 and d.numer[i][j] != 0:
                        raise NotUniform(
                            f"d_{n} positive on zero-pair "
                            f"({t.labels[i]},{t.labels[j]}) of level {n}"
                        )
        for n in range(t.num_levels - 1):
            lo, hi = self.metrics[n], self.metrics[n + 1]
            for i in range(lo.size):
                for j in range(lo.size):
                    if lo.numer[i][j] * hi.den > hi.numer[i][j] * lo.den:
                        raise ValidationError(
                            f"monotonicity fails at level {n} on pair "
                            f"({t.labels[i]},{t.labels[j]})"
                        )

    def __getitem__(self, n: int) -> Pseudometric:
        return self.metrics[n]

    def __len__(self) -> int:
        return len(self.metrics)
