"""Seeded random instances for the verification runners.

Everything is driven by ``random.Random(seed)`` with a fixed call order,
the field order of ``Instance``, so a seed always yields the same
instance, byte for byte once serialized.  Every random table is grown by
``_grow``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Sequence

from .constructions import GroupTower, PointedSpace, coordinate_tuples
from .core import Entourage, MonotonePseudometricSequence, Pseudometric, Tower, closure_in_place
from .core import _over_common_denominator
from .errors import ValidationError
from .limitmetric import adequate_sequence, sum_of_extensions
from .regularity import SpaceMap

MAX_TOP_SIZE = 12

DEFAULT_POOL = (
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
)


class Profile:
    __slots__ = ("levels", "max_size")

    def __init__(self, levels: int = 3, max_size: int = 6):
        self.levels, self.max_size = levels, max_size
        if levels < 1 or max_size < levels:
            raise ValidationError(f"levels={levels}, max_size={max_size}")
        if max_size > MAX_TOP_SIZE:
            raise ValidationError(f"top size {max_size} exceeds {MAX_TOP_SIZE}")


def _grow(
    rng: random.Random, prev: list[list[int]], size: int, pool: Sequence[int], zero_prob: float
) -> list[list[int]]:
    """The int table ``prev`` extended to ``size`` points and closed by
    shortest paths.  A new point's distance to an old point is drawn from
    the pool; between two new points it is 0 with probability ``zero_prob``
    and drawn from the pool otherwise."""
    k = len(prev)
    d = [row + [0] * (size - k) for row in prev] + [[0] * size for _ in range(k, size)]
    for i in range(k, size):
        for j in range(i):
            if j < k:
                v = rng.choice(pool)
            else:
                v = 0 if rng.random() < zero_prob else rng.choice(pool)
            d[i][j] = d[j][i] = v
    return closure_in_place(d)


def random_tower(rng: random.Random, profile: Profile) -> Tower:
    """Tower with strictly increasing level sizes; zero-pairs between a new
    point and an older one are avoided so that closure at a higher level
    never collapses a pair that a lower level keeps apart.  Each level
    grows the level below, which stays its corner; the tables are ints
    over the pool's common denominator."""
    sizes = sorted(rng.sample(range(1, profile.max_size + 1), profile.levels))
    den, (pool,) = _over_common_denominator([DEFAULT_POOL])
    tables: list[list[list[int]]] = [[]]
    for m in sizes:
        tables.append(_grow(rng, tables[-1], m, pool, 0.2))
    labels = [f"x{i}" for i in range(sizes[-1])]
    return Tower(labels, sizes, [Pseudometric._from_numer(den, t) for t in tables[1:]])


def random_monotone_sequence(
    rng: random.Random, tower: Tower
) -> MonotonePseudometricSequence:
    """Monotone by construction: d_n is the sum over k <= n of a random
    uniform pseudometric born at level k and extended up to level n."""
    pieces = [
        tower.metric(k).scale(Fraction(rng.choice(DEFAULT_POOL)))
        for k in range(tower.num_levels)
    ]
    return sum_of_extensions(tower, pieces)


def random_space_map(rng: random.Random, source: Tower, target: Tower) -> SpaceMap:
    values = tuple(rng.randrange(target.ground_size) for _ in range(source.ground_size))
    return SpaceMap(source, target, values)


def random_target_entourages(rng: random.Random, tower: Tower) -> tuple[Entourage, ...]:
    """One grid entourage per level; each automatically contains the
    level's zero-relation."""
    return tuple(rng.choice(tower.grid_entourages(n)) for n in range(tower.num_levels))


class GenerationInstance(NamedTuple):
    """Inputs for the quantitative generation check: a target entourage U
    on the top level, the ladder below it, and an adequate sequence."""

    u: Entourage
    ladder: tuple[Entourage, ...]
    seq: MonotonePseudometricSequence


def random_generation_instance(rng: random.Random, tower: Tower) -> GenerationInstance:
    top = tower.top_level
    d = tower.metric(top)
    values = d.positive_values()
    delta = Fraction(rng.choice(values)) if values else Fraction(1)
    u = d.sublevel(top, delta)
    ladder = tuple(d.sublevel(top, delta / (5 * 2**n)) for n in range(tower.num_levels))
    seq = adequate_sequence(tower, [tower.zero_relation(n) for n in range(tower.num_levels)])
    return GenerationInstance(u, ladder, seq)


def cyclic_group_tower(
    orders: Sequence[int], weights: Sequence[Fraction]
) -> GroupTower:
    """Product of cyclic groups Z_orders[0] x ... with the weighted Hamming
    metric; level n is the subgroup supported on the first n+1 coordinates."""
    depth = len(orders)
    if depth != len(weights):
        raise ValidationError("one weight per cyclic factor required")
    if not orders or min(orders) < 1:
        raise ValidationError(f"need cyclic factors of order at least 1, got orders {list(orders)}")

    tuples, labels, sizes = coordinate_tuples(orders, [0] * depth)
    index = {t: k for k, t in enumerate(tuples)}
    if sizes[-1] > MAX_TOP_SIZE:
        raise ValidationError(f"group of order {sizes[-1]} exceeds {MAX_TOP_SIZE}")

    # the weighted Hamming table of the top level, as ints over the
    # weights' common denominator; level n is its corner
    den, (numer,) = _over_common_denominator([list(map(Fraction, weights))])
    top = [
        [sum(w for w, a, b in zip(numer, t1, t2) if a != b) for t2 in tuples]
        for t1 in tuples
    ]
    metrics = [Pseudometric._from_numer(den, [row[:m] for row in top[:m]]) for m in sizes]
    tower = Tower(labels, sizes, metrics)

    op = tuple(
        tuple(
            index[tuple((a + b) % k for a, b, k in zip(t1, t2, orders))]
            for t2 in tuples
        )
        for t1 in tuples
    )
    neg = tuple(index[tuple((-a) % k for a, k in zip(t, orders))] for t in tuples)
    return GroupTower(tower, op, neg)


def random_group_tower(rng: random.Random) -> GroupTower:
    choices = [
        (2, 2),
        (2, 3),
        (3, 2),
        (2, 2, 2),
        (2, 2, 3),
        (2, 3, 2),
        (3, 2, 2),
    ]
    orders = rng.choice(choices)
    pool = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2))
    weights = tuple(Fraction(rng.choice(pool)) for _ in orders)
    return cyclic_group_tower(orders, weights)


def random_factors(rng: random.Random) -> tuple[PointedSpace, ...]:
    """Three pointed spaces of 2 or 3 points, each a table grown from
    nothing."""
    den, (pool,) = _over_common_denominator([DEFAULT_POOL])
    return tuple(
        PointedSpace(Pseudometric._from_numer(den, _grow(rng, [], rng.randrange(2, 4), pool, 0.25)))
        for _ in range(3)
    )


class Instance(NamedTuple):
    """Everything the verification runners consume for one seed, in the
    order ``generate_instance`` draws it."""

    seed: int
    tower: Tower
    second_tower: Tower
    seq: MonotonePseudometricSequence
    space_map: SpaceMap
    targets: tuple[Entourage, ...]
    generation: GenerationInstance
    group: GroupTower
    factors: tuple[PointedSpace, ...]

    @property
    def instance_id(self) -> str:
        return f"seed{self.seed}"


def generate_instance(seed: int) -> Instance:
    """The instance of ``seed``: its parts drawn from one RNG in field
    order, each argument below evaluated left to right."""
    rng = random.Random(seed)
    tower, second = random_tower(rng, Profile()), random_tower(rng, Profile())
    return Instance(
        seed,
        tower,
        second,
        random_monotone_sequence(rng, tower),
        random_space_map(rng, tower, second),
        random_target_entourages(rng, tower),
        random_generation_instance(rng, tower),
        random_group_tower(rng),
        random_factors(rng),
    )
