"""The three benchmark workloads: their seeded inputs, their ops and the
checks each op's output must pass.

Each op is a single call into ``unilim`` made by one closed-loop client.
``call`` runs inside the op's deadline window; ``check`` runs outside it and
compares the output with a reference the benchmark computes itself, from its
own copy of the inputs.  ``deadline_s`` and ``op_s``, the nominal cost of an
op that sets how many ops a run makes, are in reference seconds (see
refspeed.py); a run makes whole passes of ``pass_ops`` ops.
"""

from __future__ import annotations

import contextlib
import io as _io
import itertools
import json
import os
import random
from fractions import Fraction

from spans import THEOREM_IDS


class CheckFailed(Exception):
    """The op completed but its output is wrong."""


def _capture(argv):
    """Run ``unilim.cli.main`` with stdout and stderr captured."""
    import unilim.cli

    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = unilim.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# -- seeded towers for the CLI workloads ---------------------------------------
#
# The CLI workloads write their own tower files, with the recipe of
# unilim.generate.random_tower (values from the default pool, zero pairs
# only between points born at the same level, shortest-path repair) but in
# integer quarters.  The inputs therefore stay byte-identical when the
# library's generator changes, and a run can afford hundreds of towers.

POOL_QUARTERS = (1, 2, 3, 4, 6, 8)  # the default value pool 1/4 .. 2
ZERO_PROB = 0.2


def _closure(d):
    n = len(d)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik, di = d[i][k], d[i]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


def random_tower_quarters(rng: random.Random, sizes) -> list[list[list[int]]]:
    """Level metrics, in quarters, of a tower with the given level sizes."""
    levels = []
    prev: list[list[int]] = []
    for m in sizes:
        p = len(prev)
        d = [row[:] + [0] * (m - p) for row in prev] + [[0] * m for _ in range(m - p)]
        for i in range(p, m):
            for j in range(i):
                zero = j >= p and rng.random() < ZERO_PROB
                d[i][j] = d[j][i] = 0 if zero else rng.choice(POOL_QUARTERS)
        levels.append(_closure(d))
        prev = levels[-1]
    return levels


def rational_json(value: Fraction):
    return value.numerator if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def lower_rows(d, denominator: int):
    return [[rational_json(Fraction(d[i][j], denominator)) for j in range(i)] for i in range(len(d))]


def tower_doc(sizes, levels) -> dict:
    return {
        "labels": [f"x{i}" for i in range(sizes[-1])],
        "level_sizes": list(sizes),
        "metrics": [lower_rows(d, 4) for d in levels],
    }


def write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def parse_rational(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise CheckFailed(f"not a rational: {value!r}")
    return Fraction(value)


# -- verify-all -----------------------------------------------------------------


class VerifyAll:
    """``verify.run_theorem(tid, inst)`` for every theorem id over a fixed
    instance set, the one ``unilim verify --all --seeds 0..INSTANCES`` checks.

    The set is the same for every --seed, so that the report digest can be
    compared across runs; the seed shuffles the op order.  A pass runs every
    op once, and a run measures whole passes only, so every run measures the
    same ops however fast the machine is.  Each later pass runs on freshly
    generated instances, so that nothing cached on them carries over.
    """

    name = "verify-all"
    deadline_s = 15.0
    INSTANCES = 20
    pass_ops = INSTANCES * len(THEOREM_IDS)
    op_s = 0.04

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.instances = []

    def setup(self) -> None:
        from unilim.generate import generate_instance

        self.instances = [generate_instance(s) for s in range(self.INSTANCES)]

    def passes(self):
        """Yields (pass number, ops); an op is (instance index, theorem id)."""
        order = [(i, tid) for i in range(self.INSTANCES) for tid in THEOREM_IDS]
        random.Random(self.seed).shuffle(order)
        number = 0
        while True:
            yield number, order
            number += 1
            self.setup()

    def call(self, op):
        import unilim.verify

        i, tid = op
        return unilim.verify.run_theorem(tid, self.instances[i])

    def check(self, op, report) -> str:
        import unilim.io

        if not report.verdict:
            raise CheckFailed(f"verdict fail: {report.certificate!r}")
        return unilim.io.dumps(report.to_json())

    def digest_lines(self, lines: dict) -> list[str]:
        """All report lines in verify_suite order: per theorem id, sorted,
        the fixture reports and then the instances by seed."""
        import unilim.io
        import unilim.verify

        out = []
        for tid in sorted(THEOREM_IDS):
            out.extend(unilim.io.dumps(r.to_json()) for r in unilim.verify.fixture_reports(tid))
            out.extend(lines[(i, tid)] for i in range(self.INSTANCES))
        return out

    def repro(self, op) -> str:
        i, tid = op
        return f"unilim verify --targets {tid} --seeds {i}"


# -- product-check ---------------------------------------------------------------


class ProductCheck:
    """``unilim product A B --check`` on seeded pairs of 3-level towers.

    Every factor has level sizes (2, 4, 6), so every product tower has 36
    points at the top: the largest product verify's T2 meets, on every op.
    Fixed sizes state the input size and keep the op cost steady."""

    name = "product-check"
    deadline_s = 30.0
    pass_ops = 1
    op_s = 0.9
    SIZES = (2, 4, 6)
    PAIRS = 40

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.pairs = []

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.pairs = []
        for k in range(self.PAIRS):
            a = random_tower_quarters(rng, self.SIZES)
            b = random_tower_quarters(rng, self.SIZES)
            paths = []
            for tag, levels in (("a", a), ("b", b)):
                path = os.path.join(self.workdir, f"{k}{tag}.json")
                write_json(path, tower_doc(self.SIZES, levels))
                paths.append(path)
            self.pairs.append((paths, a, b))

    def passes(self):
        ops = list(range(self.PAIRS))
        number = 0
        while True:
            yield number, ops
            number += 1

    def args(self, op):
        return ["product", *self.pairs[op][0], "--check"]

    def call(self, op):
        return _capture(self.args(op))

    def check(self, op, result):
        rc, out, err = result
        if rc != 0:
            raise CheckFailed(f"exit code {rc}: {err.strip()}")
        lines = out.splitlines()
        if len(lines) != 2 or json.loads(lines[1]) != {"comparison": "equal"}:
            raise CheckFailed(f"comparison line: {lines[1:]!r}")
        doc = json.loads(lines[0])
        _, a, b = self.pairs[op]
        sizes = [len(da) * len(db) for da, db in zip(a, b)]
        if doc["level_sizes"] != sizes:
            raise CheckFailed(f"level sizes {doc['level_sizes']} != {sizes}")
        pairs = []
        for label in doc["labels"]:
            left, right = label[1:-1].split(",")
            pairs.append((int(left[1:]), int(right[1:])))
        for n, rows in enumerate(doc["metrics"]):
            m = sizes[n]
            if sorted(pairs[:m]) != [(i, j) for i in range(len(a[n])) for j in range(len(b[n]))]:
                raise CheckFailed(f"level {n} does not hold the product of the factor levels")
            da, db = a[n], b[n]
            for p in range(m):
                i1, j1 = pairs[p]
                for q in range(p):
                    i2, j2 = pairs[q]
                    want = Fraction(max(da[i1][i2], db[j1][j2]), 4)
                    if parse_rational(rows[p][q]) != want:
                        raise CheckFailed(
                            f"level {n} d({doc['labels'][p]},{doc['labels'][q]}) is "
                            f"{rows[p][q]}, coordinate max is {want}"
                        )
        return None

    def repro(self, op) -> str:
        return "unilim " + " ".join(self.args(op))


# -- limit-chain -----------------------------------------------------------------


class LimitChain:
    """``unilim limit --tower T --seq S --witness X Y`` on 12-point, 4-level
    towers, one tower per op, with a monotone sequence and a pair drawn from
    all labels.

    The towers, sequences and pairs are a fixed corpus, drawn from
    CORPUS_SEED; ``--seed`` shuffles the op order.  About a third of the
    pairs hit the ``witness_chain`` cycle, and a seeded corpus would move
    that share, and with it every time metric, by several percent from seed
    to seed; a fixed corpus fails the same ops in every run.  A pass runs
    every op once, and a run measures whole passes only.

    Lower level sizes are a seeded sorted sample of 1..11.  The sequence is
    d_n = c_n times the top metric restricted to level n, with c_n a running
    sum of pool values: nondecreasing c_n makes it monotone, and the tower's
    levels share zero pairs, so each d_n is uniform on its level.
    """

    name = "limit-chain"
    deadline_s = 0.3
    CORPUS_SEED = 0
    LEVELS = 4
    TOP = 12
    TOWERS = 180
    pass_ops = TOWERS
    op_s = 0.127

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.ops = []

    def setup(self) -> None:
        rng = random.Random(self.CORPUS_SEED)
        self.ops = []
        for k in range(self.TOWERS):
            sizes = sorted(rng.sample(range(1, self.TOP), self.LEVELS - 1)) + [self.TOP]
            levels = random_tower_quarters(rng, sizes)
            top = levels[-1]
            scale, scales = 0, []
            for _ in sizes:
                scale += rng.choice(POOL_QUARTERS)
                scales.append(scale)
            tower_path = os.path.join(self.workdir, f"t{k}.json")
            seq_path = os.path.join(self.workdir, f"s{k}.json")
            write_json(tower_path, tower_doc(sizes, levels))
            write_json(seq_path, {"metrics": [
                lower_rows([[c * v for v in row[:m]] for row in top[:m]], 16)
                for m, c in zip(sizes, scales)
            ]})
            height = [next(n for n, m in enumerate(sizes) if x < m) for x in range(self.TOP)]
            weights = [
                [Fraction(scales[max(height[x], height[y])] * top[x][y], 16) for y in range(self.TOP)]
                for x in range(self.TOP)
            ]
            x, y = rng.randrange(self.TOP), rng.randrange(self.TOP)
            self.ops.append((tower_path, seq_path, x, y, weights))

    def passes(self):
        """Every pass runs the corpus in the order ``--seed`` shuffles."""
        order = list(range(self.TOWERS))
        random.Random(self.seed).shuffle(order)
        return ((number, order) for number in itertools.count())

    def args(self, op):
        tower_path, seq_path, x, y, _ = self.ops[op]
        return ["limit", "--tower", tower_path, "--seq", seq_path, "--witness", f"x{x}", f"x{y}"]

    def call(self, op):
        return _capture(self.args(op))

    def check(self, op, result):
        """The printed matrix is a pseudometric below the pair-height link
        weights, so it is at most the limit; the printed chain weighs
        exactly the printed d(X, Y), so that entry is at least the limit."""
        rc, out, err = result
        if rc != 0:
            raise CheckFailed(f"exit code {rc}: {err.strip()}")
        lines = out.splitlines()
        if len(lines) != 2:
            raise CheckFailed(f"expected 2 output lines, got {len(lines)}")
        _, _, x, y, w = self.ops[op]
        n = self.TOP
        doc = json.loads(lines[0])
        if doc["labels"] != [f"x{i}" for i in range(n)]:
            raise CheckFailed("labels differ from the tower's")
        d = [[parse_rational(v) for v in row] for row in doc["matrix"]]
        if len(d) != n or any(len(row) != n for row in d):
            raise CheckFailed("matrix is not square over the ground set")
        for i in range(n):
            if d[i][i] != 0:
                raise CheckFailed(f"nonzero diagonal at x{i}")
            for j in range(n):
                if d[i][j] != d[j][i] or d[i][j] < 0:
                    raise CheckFailed(f"asymmetric or negative at (x{i},x{j})")
                if d[i][j] > w[i][j]:
                    raise CheckFailed(f"d(x{i},x{j}) = {d[i][j]} exceeds link weight {w[i][j]}")
                for k in range(n):
                    if d[i][k] > d[i][j] + d[j][k]:
                        raise CheckFailed(f"triangle fails on (x{i},x{j},x{k})")
        chain = [int(label[1:]) for label in json.loads(lines[1])["chain"]]
        if not chain or chain[0] != x or chain[-1] != y:
            raise CheckFailed(f"chain {chain} does not run from x{x} to x{y}")
        weight = sum((w[a][b] for a, b in zip(chain, chain[1:])), Fraction(0))
        if weight != d[x][y]:
            raise CheckFailed(f"chain weight {weight} != printed d(x{x},x{y}) = {d[x][y]}")
        return None

    def repro(self, op) -> str:
        return "unilim " + " ".join(self.args(op))


WORKLOADS = {w.name: w for w in (VerifyAll, ProductCheck, LimitChain)}
