"""Data model: finite towers of rational pseudometric spaces.

A tower is a strictly increasing chain of prefixes of one finite ground
set, with one exact-rational pseudometric per level.  Distances enter and
leave as ``fractions.Fraction``; inside, each table is held as Python ints
over one common denominator, on which the kernels compute, and its
``Fraction`` form is built on first access.  ``Pseudometric._from_numer``
holds every table, ``_from_lower`` fills each lower-triangular one.  The
triangle check and the shortest-path closure run on packed rows, one int
per row with a field per entry, all packed by ``_packed``, which says why
no field carries into the next.  No floating point is used anywhere.

Point sets (balls, neighborhoods, relation rows) are int bitmasks, bit i
set iff point i is in the set.  Outside the chain oracle of ``verify``,
``bits`` and ``members`` are the only code that lists a mask's points.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import lshift
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError, _shown


def bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first: the lowest
    set bit is ``mask & -mask`` (Warren, Hacker's Delight, 2-1)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def members(mask: int) -> frozenset[int]:
    """The point set of a bitmask."""
    return frozenset(bits(mask))


def _over_common_denominator(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """The lcm ``den`` of the entries' denominators and the entries as int
    numerators over it: ``rows[i][j] == Fraction(numer[i][j], den)``."""
    den = math.lcm(*{v.denominator for row in rows for v in row})
    return den, [[v.numerator * (den // v.denominator) for v in row] for row in rows]


def _packed(rows: Sequence[Sequence[int]]) -> tuple[range, list[int], int, int]:
    """The square table ``rows`` of nonnegative ints packed (SWAR): returns
    ``(shifts, packed, ones, h)``, where row i is one int P_i with entry j
    in the w-bit field at ``shifts[j]``, ONES has a 1 and H the top bit in
    every field.  w = bit_length(2*max) + 1, so 2*max < 2^(w-1): a field
    that a sum of whole rows leaves at 2^(w-1) + x, with |x| <= 2*max, lies
    in [1, 2^w), so no field carries into or borrows from the next, and its
    top bit is set iff x >= 0 (Lamport 1975, CACM 18(8))."""
    w = (2 * max(map(max, rows), default=0)).bit_length() + 1
    shifts = range(0, len(rows) * w, w)
    # 1 + 2^w + ... + 2^((n-1)w) = (2^(nw) - 1) / (2^w - 1)
    ones = ((1 << len(rows) * w) - 1) // ((1 << w) - 1)
    return shifts, [sum(map(lshift, row, shifts)) for row in rows], ones, ones << w - 1


def closure_in_place(d: list[list[int]]) -> list[list[int]]:
    """Floyd-Warshall on a square matrix of nonnegative ints, relaxing
    ``d`` in place; returns ``d``.  Raises ``ValidationError`` on a
    negative entry.

    Runs on the rows as ``_packed`` packs them.  Relaxing row i through k
    is d(i,j) <- min(d(i,j), d(i,k) + d(k,j)) for every j at once: field j
    of s = d(i,k)*ONES + P_k is d(i,k) + d(k,j), field j of t = P_i + H - s
    is 2^(w-1) + d(i,j) - d(i,k) - d(k,j), whose top bit is set iff s's
    entry is not larger, and subtracting t's low w-1 bits in exactly those
    fields writes s's entry there.  Entries only decrease, so every value
    stays in [0, max] and d(i,j) - d(i,k) - d(k,j) in [-2 max, max].

    P_k is read afresh for each i, so a row relaxes through row k as
    updated earlier in the same pass, as an entry-by-entry update would.
    """
    if min(map(min, d), default=0) < 0:
        raise ValidationError("shortest-path closure of a table with a negative entry")
    shifts, packed, ones, h = _packed(d)
    top_bit = shifts.step - 1
    field = (1 << shifts.step) - 1
    # field k of P_i is d(i,k), so t = P_i + H - field*ONES - P_k
    for k, sk in enumerate(shifts):
        for i, pi in enumerate(packed):
            t = pi + h - (pi >> sk & field) * ones - packed[k]
            m = t & h
            packed[i] = pi - (t & (m - (m >> top_bit)))
    for row, p in zip(d, packed):
        row[:] = [p >> s & field for s in shifts]
    return d


def shortest_path_closure(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Largest pseudometric dominated by a symmetric nonnegative matrix.

    Floyd-Warshall on the int numerators over the entries' common
    denominator, which is exact; the input must have a zero diagonal and be
    symmetric, and a negative entry raises ``ValidationError``.
    """
    den, d = _over_common_denominator(matrix)
    return list(map(list, Pseudometric._from_numer(den, closure_in_place(d)).dist))


class Pseudometric:
    """A symmetric square table of nonnegative rationals with zero diagonal
    satisfying the triangle inequality.

    The table is ``numer``, ints over the common denominator ``den``, the
    lcm of the values' reduced denominators; the pair is canonical, so it
    decides equality, and ``_from_numer`` holds it.  ``dist`` holds the same
    values as ``Fraction``s, ``dist[i][j] == Fraction(numer[i][j], den)``,
    built on first access; ``_from_lower`` fills lower-triangular rows.
    """

    __slots__ = ("size", "den", "numer", "_dist", "_classes")

    def __init__(self, dist: Sequence[Sequence[Fraction]]):
        self.den, numer = _over_common_denominator([[Fraction(v) for v in row] for row in dist])
        self.size = len(numer)
        self.numer: tuple[tuple[int, ...], ...] = tuple(map(tuple, numer))

    @classmethod
    def _from_numer(cls, den: int, numer: Sequence[Sequence[int]]) -> "Pseudometric":
        """The table ``numer`` over ``den``, held as ``Pseudometric`` of the
        same values as ``Fraction``s would hold it: ``den`` and ``numer`` are
        divided by their gcd, so ``den`` is the lcm of the reduced
        denominators.  Not validated."""
        g = math.gcd(den, *itertools.starmap(math.gcd, numer))
        if g != 1:
            den //= g
            numer = [[v // g for v in row] for row in numer]
        d = object.__new__(cls)
        d.size = len(numer)
        d.den = den
        d.numer = tuple(map(tuple, numer))
        return d

    @classmethod
    def _from_lower(cls, den: int, rows: Sequence[Sequence], numer_of) -> "Pseudometric":
        """The symmetric table of lower-triangular ``rows``, entry v read as
        the numerator ``numer_of[v]`` over ``den``."""
        numer = [[0] * len(rows) for _ in rows]
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                numer[i][j] = numer[j][i] = numer_of[v]
        return cls._from_numer(den, numer)

    @property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The table as ``Fraction``s, one object per distinct value."""
        try:
            return self._dist
        except AttributeError:
            pass
        den = self.den
        as_fraction = {v: Fraction(v, den) for v in set().union(*self.numer)}
        self._dist = tuple(tuple(map(as_fraction.__getitem__, row)) for row in self.numer)
        return self._dist

    @property
    def zero_classes(self) -> tuple[int, ...]:
        """Per point, the bitmask of its class of equal rows, built on first
        access; its lowest bit is the class's lowest member.  Rows i and j of
        a pseudometric are equal iff d(i, j) = 0, so these are {d = 0}."""
        try:
            return self._classes
        except AttributeError:
            pass
        # each row is hashed once: numbered by its first occurrence
        number: dict[tuple[int, ...], int] = {}
        ids = [number.setdefault(row, len(number)) for row in self.numer]
        masks = [0] * len(number)
        for i, k in enumerate(ids):
            masks[k] |= 1 << i
        self._classes = tuple(map(masks.__getitem__, ids))
        return self._classes

    @classmethod
    def from_lower_triangular(cls, rows: Sequence[Sequence]) -> "Pseudometric":
        """Build from rows ``[d(i,0), ..., d(i,i-1)]`` for i = 0..n-1."""
        for i, row in enumerate(rows):
            if len(row) != i:
                raise ValidationError(f"lower-triangular row {i} has length {len(row)}")
        values = list(set().union(*rows))
        den, (numer,) = _over_common_denominator([[Fraction(v) for v in values]])
        return cls._from_lower(den, rows, dict(zip(values, numer)))

    @classmethod
    def zero(cls, size: int) -> "Pseudometric":
        return cls._from_numer(1, [[0] * size for _ in range(size)])

    def validate(self, level: int = 0, labels: Sequence[str] | None = None) -> None:
        n = self.size
        name = (lambda i: labels[i]) if labels else str
        d = self.numer
        for i in range(n):
            if len(d[i]) != n:
                raise ValidationError(f"distance table row {i} is not square")
            if d[i][i] != 0:
                raise ValidationError(f"nonzero diagonal at {name(i)}")
        for i, di in enumerate(d):
            for j in range(i):
                v = di[j]
                if v != d[j][i]:
                    raise ValidationError(f"asymmetric pair ({name(i)},{name(j)})")
                if v < 0:
                    raise ValidationError(f"negative distance ({name(i)},{name(j)})")
        # The table is symmetric, so swapping a point for one with an equal
        # row changes no side of any triangle: the triangle inequality holds
        # iff it holds on the lowest point of each class of equal rows, read
        # at those points' columns (q below), one pass per zero class.
        # d(i,k) <= d(i,j) + d(j,k) for every k iff max_k d(i,k) - d(j,k)
        # <= d(i,j); with d symmetric, the pairs (i, j) and (j, i) together
        # ask max_k |d(i,k) - d(j,k)| <= d(i,j), so j < i covers them all.
        # Both sides are checked on the rows as ``_packed`` packs them:
        # field k of P_j + d(i,j)*ONES + H - P_i is 2^(w-1) + d(j,k) +
        # d(i,j) - d(i,k), with d(j,k) + d(i,j) - d(i,k) in [-max, 2*max],
        # so its top bit is set iff d(i,k) <= d(i,j) + d(j,k).  On a failure,
        # the first (a, b) whose sum has a clear top bit, c its lowest clear
        # field, is q's first failing triple; read through ``reps``, the lowest
        # point of each class, in order, it is the full table's first as well.
        reps = [i for i, c in enumerate(self.zero_classes) if c & -c == 1 << i]
        q = d if len(reps) == n else [[row[b] for b in reps] for row in map(d.__getitem__, reps)]
        shifts, packed, ones, h = _packed(q)
        lifted = [p + h for p in packed]
        for i, di in enumerate(q):
            pi, li = packed[i], lifted[i]
            for j in range(i):
                dij = di[j] * ones
                if (lifted[j] + dij - pi) & h != h or (li + dij - packed[j]) & h != h:
                    for a, b in itertools.product(range(len(q)), repeat=2):
                        if bad := ~(lifted[b] + q[a][b] * ones - packed[a]) & h:
                            break
                    c = ((bad & -bad).bit_length() - 1) // shifts.step
                    a, b, c = (name(reps[x]) for x in (a, b, c))
                    raise ValidationError(
                        f"triangle inequality fails at level {level}: "
                        f"d({a},{c}) > d({a},{b}) + d({b},{c})"
                    )

    def __call__(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def restrict(self, size: int) -> "Pseudometric":
        return Pseudometric._from_numer(self.den, [row[:size] for row in self.numer[:size]])

    def scale(self, factor) -> "Pseudometric":
        """The table times ``factor``; a positive factor keeps every zero and
        every equality of rows, so zero classes already built are handed on."""
        c = Fraction(factor)
        p = c.numerator
        d = Pseudometric._from_numer(
            self.den * c.denominator, [[p * v for v in row] for row in self.numer]
        )
        if p > 0 and hasattr(self, "_classes"):
            d._classes = self._classes
        return d

    def positive_values(self) -> list[Fraction]:
        den = self.den
        return [Fraction(v, den) for v in sorted({v for row in self.numer for v in row if v > 0})]

    def sublevel(self, level: int, eps: Fraction) -> "Entourage":
        """The strict sublevel entourage {d < eps} of ``level``; refused with
        ``ValidationError`` for eps <= 0, whose sublevel misses the diagonal."""
        if eps.numerator <= 0:
            raise ValidationError(f"sublevel {{d < {eps}}} is not reflexive")
        # v / den < p / q iff v < ceil(p * den / q), for an int v
        limit = -(-eps.numerator * self.den // eps.denominator)
        return Entourage._symmetric(
            level, [sum(1 << j for j, v in enumerate(row) if v < limit) for row in self.numer]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Pseudometric) and (
            (self.den, self.numer) == (other.den, other.numer)
        )

    def __hash__(self) -> int:
        return hash((self.den, self.numer))

    def __repr__(self) -> str:
        return f"Pseudometric(size={self.size})"


class Tower:
    """Nested prefixes of a finite ground set with one pseudometric per level.

    Element i belongs to level n iff ``i < level_sizes[n]``.  Consecutive
    levels must agree on zero-pairs (the finite-scale uniform-subspace
    condition); in strict mode the higher metric must restrict exactly.
    A tower is not modified after construction, so what is derived from it
    is kept: the heights, each level's zero-relation and grid entourages
    once asked for, and the limit topology, which ``topology.ulim_topology``
    builds into ``_ulim``.  Nothing else is: the grid-ball oracle keeps its
    memo in a dict its caller owns.
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
        self._init_caches()

    @classmethod
    def _derived(
        cls,
        labels: Sequence[str],
        level_sizes: Sequence[int],
        level_metrics: Sequence[Pseudometric],
    ) -> "Tower":
        """A tower whose tables a construction has already certified: shape,
        labels and nesting are checked, the triangle and zero-pair passes
        are not.  Only for levels that are, by a checked construction,
        pseudometrics agreeing on zero-pairs level to level."""
        t = object.__new__(cls)
        t.labels = tuple(labels)
        t.level_sizes = tuple(level_sizes)
        t.level_metrics = tuple(level_metrics)
        t.strict = False
        t._validate_shape()
        t._init_caches()
        return t

    def _init_caches(self) -> None:
        heights: list[int] = []
        for n, m in enumerate(self.level_sizes):
            heights += [n] * (m - len(heights))
        self._heights = tuple(heights)
        self._zeros: list[Entourage | None] = [None] * self.num_levels
        self._grids: list[tuple[Entourage, ...] | None] = [None] * self.num_levels
        self._ulim = None

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

    def metric(self, n: int) -> Pseudometric:
        if not 0 <= n < self.num_levels:
            raise ValidationError(f"level {n} out of range")
        return self.level_metrics[n]

    def validate(self) -> None:
        self._validate_shape()
        for n, d in enumerate(self.level_metrics):
            d.validate(n, self.labels)
        # both tables are symmetric, so the first failing pair in row-major
        # order is the lowest failing bit of the first failing row
        for n, (lo, hi) in enumerate(zip(self.level_metrics, self.level_metrics[1:])):
            below = (1 << lo.size) - 1
            for i, (z, hi_z) in enumerate(zip(lo.zero_classes, hi.zero_classes)):
                bad = z ^ hi_z & below
                if self.strict:
                    pairs = enumerate(zip(lo.numer[i], hi.numer[i]))
                    bad |= sum(1 << j for j, (a, b) in pairs if a * hi.den != b * lo.den)
                if bad:
                    a, b = self.labels[i], self.labels[next(bits(bad))]
                    raise ValidationError(
                        f"zero-pair mismatch between levels {n} and {n + 1} on pair ({a},{b})"
                    )

    def _validate_shape(self) -> None:
        """Labels one per point and unique, level sizes strictly
        increasing, one table per level of the level's size."""
        if not self.level_sizes:
            raise ValidationError("level_sizes: no levels")
        if len(self.labels) != self.level_sizes[-1]:
            raise ValidationError(
                f"labels: {len(self.labels)} for a top level of {self.level_sizes[-1]} points"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("labels: not unique")
        prev = 0
        for m in self.level_sizes:
            if m <= prev:
                raise ValidationError(f"level sizes not strictly increasing: {self.level_sizes}")
            prev = m
        if (k := len(self.level_metrics)) != self.num_levels:
            raise ValidationError(f"metrics: {k} for {self.num_levels} levels")
        for n, d in enumerate(self.level_metrics):
            if d.size != self.level_sizes[n]:
                raise ValidationError(f"metrics[{n}]: {d.size} points, not {self.level_sizes[n]}")

    def _check_uniform(self, level: int, d: Pseudometric, name: str) -> None:
        """Raise ``ValidationError`` unless ``d``, a table of the level's size,
        vanishes on the level's zero-pairs, the finite-scale meaning of
        "uniform on the level", naming the first failing pair in row-major
        order.  Both tables are symmetric with a zero diagonal, so that
        pair has j > i, a bit of row i's level zero class."""
        for i, (z, d_i) in enumerate(zip(self.level_metrics[level].zero_classes, d.numer)):
            for j in bits(z >> i + 1 << i + 1):
                if d_i[j] != 0:
                    raise ValidationError(
                        f"{name} positive on zero-pair "
                        f"({self.labels[i]},{self.labels[j]}) of level {level}"
                    )

    # -- heights -----------------------------------------------------------

    def height(self, x: int) -> int:
        """First level index at which element x appears."""
        if not 0 <= x < self.ground_size:
            raise ValidationError(f"element index {x}")
        return self._heights[x]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(f"unknown label {_shown(label)}") from None

    # -- entourage bases ----------------------------------------------------

    def zero_relation(self, level: int) -> "Entourage":
        """Smallest entourage of the level's uniformity: {d = 0}."""
        d = self.metric(level)  # refuses a level out of range, -1 too
        z = self._zeros[level]
        if z is None:
            z = self._zeros[level] = Entourage._symmetric(level, d.zero_classes)
        return z

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
            sums = itertools.accumulate(layers, lambda acc, lay: [a | b for a, b in zip(acc, lay)])
            grids = self._grids[level] = tuple(Entourage._symmetric(level, r) for r in sums)
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


class Entourage:
    """A reflexive relation on the square of one level's ground set.

    Pairs are stored as per-point bitmask rows: bit j of ``rows[i]`` is set
    iff (i, j) is in the relation.  Symmetry is not required (composition
    destroys it); reflexivity is.  Relations read off a symmetric table are
    built by ``_symmetric``; pair sets are read only at the JSON edge.
    """

    __slots__ = ("level", "size", "rows", "_cols", "_comps")

    def __init__(self, level: int, size: int, pairs: Iterable[tuple[int, int]]):
        rows = [0] * size
        for i, j in pairs:
            if not (0 <= i < size and 0 <= j < size):
                raise ValidationError(f"pair ({i},{j}) outside level of size {size}")
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
    def _symmetric(cls, level: int, rows: Sequence[int]) -> "Entourage":
        """A symmetric relation, such as {d = 0}, {d < eps} or a relation's
        components: its rows are its columns.  Not validated."""
        e = cls._from_rows(level, rows)
        e._cols = e.rows
        return e

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i, r in enumerate(self.rows) for j in bits(r))

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)

    def promote(self, level: int, size: int) -> "Entourage":
        """Embed into a larger level: keep the pairs, take the diagonal of
        the larger ground set."""
        if level < self.level or size < self.size:
            raise ValidationError("promotion must not shrink the level")
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
        for i, r in enumerate(self.rows):
            for j in bits(r):
                cols[j] |= 1 << i
        self._cols = tuple(cols)
        return self._cols

    def components(self) -> "Entourage":
        """The reflexive-transitive closure of a symmetric relation: each
        point is related to every point of its connected component
        (Hopcroft & Tarjan 1973).  A component grows from its lowest point,
        each round ORing in the rows of the points the last round reached,
        so every row is read once.  Raises ``ValidationError`` when the
        relation is not symmetric; for a directed relation the closure is
        the (size-1)-fold sum ``relations.multiple(u, size - 1)``.  Built on
        the first call and kept, as ``columns`` keeps its result."""
        try:
            return self._comps
        except AttributeError:
            pass
        rows = self.rows
        if self.columns() != rows:
            raise ValidationError("components of a relation that is not symmetric")
        out = [0] * self.size
        unseen = (1 << self.size) - 1
        while unseen:
            seed = unseen & -unseen
            comp = rows[seed.bit_length() - 1] | seed
            ring = comp ^ seed
            while ring:
                reached = 0
                for y in bits(ring):
                    reached |= rows[y]
                ring = reached & ~comp
                comp |= ring
            for y in bits(comp):
                out[y] = comp
            unseen &= ~comp
        self._comps = Entourage._symmetric(self.level, out)
        return self._comps

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
    """Per-level uniform pseudometrics with d_n <= d_{n+1} on the lower square.

    A sequence is not modified after construction, so its link table and
    its limit, which ``limitmetric`` builds into ``_links`` and ``_limit``,
    are kept once asked for, as a tower keeps what is derived from it."""

    def __init__(self, tower: Tower, metrics: Sequence[Pseudometric]):
        self.tower = tower
        self.metrics = tuple(metrics)
        self.validate()
        self._links = self._limit = None

    def validate(self) -> None:
        t = self.tower
        if len(self.metrics) != t.num_levels:
            raise ValidationError(f"metrics: {len(self.metrics)} for {t.num_levels} levels")
        for n, d in enumerate(self.metrics):
            if d.size != t.level_sizes[n]:
                raise ValidationError(f"metrics[{n}]: {d.size} points, not {t.level_sizes[n]}")
            d.validate(n, t.labels)
            # d is now a pseudometric, whose zero classes are {d = 0}: it is
            # uniform iff they hold the level's; the scan names the pair
            if any(z & ~c for z, c in zip(t.level_metrics[n].zero_classes, d.zero_classes)):
                t._check_uniform(n, d, f"d_{n}")
        for n in range(t.num_levels - 1):
            lo, hi = self.metrics[n], self.metrics[n + 1]
            lo_den, hi_den = lo.den, hi.den
            for i in range(lo.size):
                lo_i, hi_i = lo.numer[i], hi.numer[i]
                for j in range(i + 1, lo.size):
                    if lo_i[j] * hi_den > hi_i[j] * lo_den:
                        raise ValidationError(
                            f"monotonicity fails at level {n} on pair "
                            f"({t.labels[i]},{t.labels[j]})"
                        )

    def __getitem__(self, n: int) -> Pseudometric:
        return self.metrics[n]

    def __len__(self) -> int:
        return len(self.metrics)
