"""Seeded random instances for the verification runners.

Everything is driven by ``random.Random(seed)`` with a fixed call order,
so a (seed, profile) pair always yields the same instance, byte for byte
once serialized.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .constructions import GroupTower, PointedSpace, coordinate_tuples
from .core import Entourage, MonotonePseudometricSequence, Pseudometric, Tower, shortest_path_closure
from .errors import ProfileTooLarge
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


@dataclass(frozen=True)
class Profile:
    levels: int = 3
    max_size: int = 6
    value_pool: tuple[Fraction, ...] = DEFAULT_POOL

    def __post_init__(self):
        if self.levels < 1 or self.max_size < self.levels:
            raise ProfileTooLarge(f"levels={self.levels}, max_size={self.max_size}")
        if self.max_size > MAX_TOP_SIZE:
            raise ProfileTooLarge(f"top size {self.max_size} exceeds {MAX_TOP_SIZE}")
        if not self.value_pool or any(Fraction(v) <= 0 for v in self.value_pool):
            raise ProfileTooLarge("value pool must be nonempty and positive")


def _random_metric(
    rng: random.Random, size: int, pool: Sequence[Fraction], zero_prob: float
) -> Pseudometric:
    """Random symmetric matrix over the pool, repaired into a pseudometric
    by shortest-path closure."""
    dist = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i):
            v = Fraction(0) if rng.random() < zero_prob else Fraction(rng.choice(pool))
            dist[i][j] = dist[j][i] = v
    return Pseudometric(shortest_path_closure(dist))


def random_tower(rng: random.Random, profile: Profile) -> Tower:
    """Tower with strictly increasing level sizes; zero-pairs between a new
    point and an older one are avoided so that closure at a higher level
    never collapses a pair that a lower level keeps apart."""
    sizes = sorted(rng.sample(range(1, profile.max_size + 1), profile.levels))
    pool = profile.value_pool
    metrics = [_random_metric(rng, sizes[0], pool, 0.2)]
    for n in range(1, profile.levels):
        prev = metrics[-1]
        m = sizes[n]
        dist = [[Fraction(0)] * m for _ in range(m)]
        for i in range(prev.size):
            for j in range(prev.size):
                dist[i][j] = prev.dist[i][j]
        for i in range(prev.size, m):
            for j in range(i):
                if j < prev.size:
                    v = Fraction(rng.choice(pool))
                else:
                    v = Fraction(0) if rng.random() < 0.2 else Fraction(rng.choice(pool))
                dist[i][j] = dist[j][i] = v
        metrics.append(Pseudometric(shortest_path_closure(dist)))
    labels = [f"x{i}" for i in range(sizes[-1])]
    return Tower(labels, sizes, metrics)


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


def random_target_entourages(rng: random.Random, tower: Tower) -> list[Entourage]:
    """One grid entourage per level; each automatically contains the
    level's zero-relation."""
    return [rng.choice(tower.grid_entourages(n)) for n in range(tower.num_levels)]


@dataclass(frozen=True)
class GenerationInstance:
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
    size = tower.ground_size
    u = Entourage(top, size, d.sublevel_pairs(delta))
    ladder = tuple(
        Entourage(top, size, d.sublevel_pairs(delta / (5 * 2**n)))
        for n in range(tower.num_levels)
    )
    seq = adequate_sequence(tower, [tower.zero_relation(n) for n in range(tower.num_levels)])
    return GenerationInstance(u, ladder, seq)


def cyclic_group_tower(
    orders: Sequence[int], weights: Sequence[Fraction]
) -> GroupTower:
    """Product of cyclic groups Z_orders[0] x ... with the weighted Hamming
    metric; level n is the subgroup supported on the first n+1 coordinates."""
    depth = len(orders)
    if depth != len(weights):
        raise ProfileTooLarge("one weight per cyclic factor required")

    tuples, labels, sizes = coordinate_tuples(orders, [0] * depth)
    index = {t: k for k, t in enumerate(tuples)}
    if sizes[-1] > MAX_TOP_SIZE:
        raise ProfileTooLarge(f"group of order {sizes[-1]} exceeds {MAX_TOP_SIZE}")

    weights = [Fraction(w) for w in weights]
    metrics = []
    for n in range(depth):
        pts = tuples[: sizes[n]]
        dist = [
            [
                sum(
                    (w for w, a, b in zip(weights, t1, t2) if a != b),
                    Fraction(0),
                )
                for t2 in pts
            ]
            for t1 in pts
        ]
        metrics.append(Pseudometric(dist))
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


def random_factors(rng: random.Random, count: int = 3) -> list[PointedSpace]:
    out = []
    for _ in range(count):
        size = rng.randrange(2, 4)
        out.append(PointedSpace(_random_metric(rng, size, DEFAULT_POOL, 0.25), 0))
    return out


@dataclass(frozen=True)
class Instance:
    """Everything the verification runners consume for one seed."""

    seed: int
    profile: Profile
    tower: Tower
    seq: MonotonePseudometricSequence
    space_map: SpaceMap
    targets: tuple[Entourage, ...]
    generation: GenerationInstance
    group: GroupTower
    factors: tuple[PointedSpace, ...]
    second_tower: Tower = field(compare=False, default=None)  # type: ignore[assignment]

    @property
    def instance_id(self) -> str:
        return f"seed{self.seed}"


def generate_instance(seed: int, profile: Profile | None = None) -> Instance:
    profile = profile or Profile()
    rng = random.Random(seed)
    tower = random_tower(rng, profile)
    second = random_tower(rng, profile)
    seq = random_monotone_sequence(rng, tower)
    space_map = random_space_map(rng, tower, second)
    targets = tuple(random_target_entourages(rng, tower))
    generation = random_generation_instance(rng, tower)
    group = random_group_tower(rng)
    factors = tuple(random_factors(rng))
    return Instance(
        seed, profile, tower, seq, space_map, targets, generation, group, factors,
        second_tower=second,
    )
