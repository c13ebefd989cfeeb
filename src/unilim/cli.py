"""Command line interface.

Exit codes: 0 success or verdict true, 1 verdict false, 2 input error,
3 internal soundness violation (a theorem check failed, which is always
an implementation bug).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from . import io
from .constructions import (
    box_tower, check_box_limit, check_group_limit, check_multiplicativity, ordered_product_ball,
    product_tower,
)
from .core import Entourage, MonotonePseudometricSequence, Tower
from .errors import UnilimError, ValidationError
from .generate import Profile, generate_instance
from .limitmetric import limit_pseudometric, valley_witness_chain
from .regularity import SpaceMap, continuity_criterion, homeo_criterion, is_continuous
from .relations import OMEGA, REPEAT_LAST, EntourageSequence, ball, compose, multiple, sigma_sum
from .topology import compare_topologies, tlim_topology, ulim_topology
from .verify import THEOREM_IDS, verify_suite

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_SOUNDNESS = 3


def _load_tower(path: str) -> tuple[Tower, dict[str, Entourage]]:
    doc = io.load(path)
    tower = io.tower_from_json(doc)
    return tower, io.named_entourages_from_json(doc, tower)


def _load_sequence(tower: Tower, path: str) -> MonotonePseudometricSequence:
    return MonotonePseudometricSequence(tower, io.sequence_metrics_from_json(io.load(path)))


def _print_entourage(tower: Tower, e: Entourage) -> None:
    pairs = [[tower.labels[i], tower.labels[j]] for i, j in e.sorted_pairs()]
    print(io.dumps({"level": e.level, "pairs": pairs}))


# -- a tiny prefix expression grammar for relation arithmetic ----------------


def _tokenize(expr: str) -> list[str]:
    out = []
    cur = ""
    for ch in expr:
        if ch in "()[]":
            if cur:
                out.append(cur)
                cur = ""
            out.append(ch)
        elif ch.isspace():
            if cur:
                out.append(cur)
                cur = ""
        else:
            cur += ch
    if cur:
        out.append(cur)
    return out


class _ExprError(UnilimError):
    pass


class _Parser:
    def __init__(self, tokens: list[str], tower: Tower, names: dict[str, Entourage]):
        self.tokens = tokens
        self.pos = 0
        self.tower = tower
        self.names = names

    def peek(self) -> str:
        if self.pos >= len(self.tokens):
            raise _ExprError("unexpected end of expression")
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.peek()
        self.pos += 1
        return tok

    def integer(self, what: str) -> int:
        tok = self.next()
        try:
            return int(tok)
        except ValueError:
            raise _ExprError(f"expected {what}, got {tok!r}") from None

    def name(self, tok: str) -> Entourage:
        if tok in self.names:
            return self.names[tok]
        raise _ExprError(f"unknown entourage {tok!r}")

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise _ExprError(f"expected {tok!r}, got {got!r}")

    def entourage(self) -> Entourage:
        tok = self.next()
        if tok != "(":
            return self.name(tok)
        head = self.next()
        if head == "sum":
            u = self.entourage()
            v = self.entourage()
            self.expect(")")
            return compose(u, v)
        if head == "mul":
            k = self.integer("an integer multiple")
            u = self.entourage()
            self.expect(")")
            return multiple(u, k)
        if head == "sigma":
            if self.peek() in ("omega", "w"):
                self.next()
                upto = OMEGA
            else:
                upto = self.integer("a level or omega")
            self.expect("[")
            entries = []
            while self.peek() != "]":
                entries.append(self.entourage())
            self.expect("]")
            tail_tok = self.next()
            tail = REPEAT_LAST if tail_tok == REPEAT_LAST else self.name(tail_tok)
            self.expect(")")
            start = entries[0].level if entries else 0
            seq = EntourageSequence(self.tower, start, tuple(entries), tail)
            return sigma_sum(seq, upto)
        raise _ExprError(f"unknown operation {head!r}")

    def expression(self):
        if self.tokens[: 2] == ["(", "ball"]:
            self.pos = 2
            if self.peek() in self.tower.labels:
                idx = self.tower.index_of(self.next())
            else:
                idx = self.integer("a point label or index")
            u = self.entourage()
            self.expect(")")
            return ("ball", idx, u)
        return ("entourage", self.entourage())


# -- subcommands --------------------------------------------------------------


def cmd_rel(args) -> int:
    tower, names = _load_tower(args.tower)
    parsed = _Parser(_tokenize(args.expr), tower, names).expression()
    if parsed[0] == "ball":
        _, x, u = parsed
        members = sorted(ball(x, u))
        print(io.dumps([tower.labels[i] for i in members]))
    else:
        _print_entourage(tower, parsed[1])
    return EXIT_TRUE


def cmd_limit(args) -> int:
    tower, _ = _load_tower(args.tower)
    seq = _load_sequence(tower, args.seq)
    lim = limit_pseudometric(seq)
    matrix = [
        [io.rational_to_json(lim(i, j)) for j in range(tower.ground_size)]
        for i in range(tower.ground_size)
    ]
    print(io.dumps({"labels": list(tower.labels), "matrix": matrix}))
    if args.witness:
        x = tower.index_of(args.witness[0])
        y = tower.index_of(args.witness[1])
        chain = valley_witness_chain(seq, x, y, lim)
        print(io.dumps({"chain": [tower.labels[p] for p in chain.points]}))
    return EXIT_TRUE


def cmd_topo(args) -> int:
    tower, _ = _load_tower(args.tower)
    top = ulim_topology(tower)
    opens = [sorted(tower.labels[i] for i in o) for o in top.opens()]
    print(io.dumps({"opens": sorted(opens, key=lambda o: (len(o), o))}))
    if args.compare == "tlim":
        cmp = compare_topologies(top, tlim_topology(tower))
        print(io.dumps({"comparison": cmp.relation}))
        return EXIT_TRUE if cmp.relation == "equal" else EXIT_FALSE
    return EXIT_TRUE


def cmd_check(args) -> int:
    source, _ = _load_tower(args.tower)
    target, _ = _load_tower(args.target) if args.target else (source, {})
    f = SpaceMap(source, target, io.map_from_json(io.load(args.map)))
    if args.homeo:
        g = SpaceMap(target, source, io.map_from_json(io.load(args.homeo)))
        v = homeo_criterion(f, g)
        print(io.dumps(v.to_json()))
        if v.homeomorphism != (v.transport_comparison.relation == "equal"):
            return EXIT_SOUNDNESS
        return EXIT_TRUE if v.homeomorphism else EXIT_FALSE
    if args.direct:
        v = is_continuous(f)
        print(io.dumps({"continuous": v.continuous}))
        return EXIT_TRUE if v.continuous else EXIT_FALSE
    c = continuity_criterion(f)
    print(io.dumps(c.to_json()))
    if c.theorem_violation:
        return EXIT_SOUNDNESS
    return EXIT_TRUE if c.conclusion else EXIT_FALSE


def cmd_product(args) -> int:
    a, _ = _load_tower(args.towers[0])
    b, _ = _load_tower(args.towers[1])
    prod = product_tower(a, b)
    print(io.dumps(io.tower_to_json(prod)))
    if args.check:
        cmp = check_multiplicativity(a, b, prod)
        print(io.dumps({"comparison": cmp.relation}))
        return EXIT_TRUE if cmp.relation == "equal" else EXIT_SOUNDNESS
    return EXIT_TRUE


def cmd_group(args) -> int:
    g = io.group_from_json(io.load(args.group))
    radii = [Fraction(r) for r in args.radii.split(",")]
    if args.check:
        v = check_group_limit(g, radii)
        print(io.dumps(v.to_json()))
        return EXIT_TRUE if v.ok else EXIT_SOUNDNESS
    members = sorted(ordered_product_ball(g, radii))
    print(io.dumps([g.tower.labels[i] for i in members]))
    return EXIT_TRUE


def cmd_box(args) -> int:
    factors = io.factors_from_json(io.load(args.factors))
    tower = box_tower(factors, args.depth)
    print(io.dumps(io.tower_to_json(tower)))
    if args.check:
        cmp = check_box_limit(factors, args.depth, tower)
        print(io.dumps({"comparison": cmp.relation}))
        return EXIT_TRUE if cmp.relation == "equal" else EXIT_SOUNDNESS
    return EXIT_TRUE


def _default_seed() -> int:
    return int(os.environ.get("UNILIM_SEED", "0"))


def cmd_gen(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    profile = Profile(levels=args.levels, max_size=args.max_size)
    inst = generate_instance(seed, profile)
    doc = io.dumps(io.tower_to_json(inst.tower))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc)
            fh.write("\n")
    else:
        print(doc)
    return EXIT_TRUE


def _parse_seeds(spec: str) -> list[int]:
    """A half-open range "lo..hi" or a comma list; an empty range would
    make a run that checks no seeded instance, so it is refused."""
    if ".." in spec:
        lo, hi = spec.split("..")
        seeds = list(range(int(lo), int(hi)))
        if not seeds:
            raise ValidationError(f"seed range {spec!r} is empty")
        return seeds
    return [int(s) for s in spec.split(",")]


def cmd_verify(args) -> int:
    targets = list(THEOREM_IDS) if args.all else (args.targets or [])
    if args.seeds:
        seeds = _parse_seeds(args.seeds)
    else:
        seeds = [args.seed if args.seed is not None else _default_seed()]
    reports = verify_suite(targets, seeds)
    lines = [io.dumps(r.to_json()) for r in reports]
    if args.output:
        with open(args.output, "w") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
    else:
        for line in lines:
            print(line)
    failed = [r for r in reports if not r.verdict]
    print(
        f"{len(reports) - len(failed)}/{len(reports)} checks passed",
        file=sys.stderr,
    )
    return EXIT_SOUNDNESS if failed else EXIT_TRUE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="unilim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    rel = sub.add_parser("rel", help="entourage arithmetic")
    rel.add_argument("--tower", required=True)
    rel.add_argument("--expr", required=True,
                     help="(sum U V) | (mul k U) | (sigma k [U...] tail) | (ball x U)")
    rel.set_defaults(func=cmd_rel)

    lim = sub.add_parser("limit", help="limit pseudometric of a monotone sequence")
    lim.add_argument("--tower", required=True)
    lim.add_argument("--seq", required=True)
    lim.add_argument("--witness", nargs=2, metavar=("X", "Y"))
    lim.set_defaults(func=cmd_limit)

    topo = sub.add_parser("topo", help="limit topology of a tower")
    topo.add_argument("--tower", required=True)
    topo.add_argument("--compare", choices=["tlim"])
    topo.set_defaults(func=cmd_topo)

    chk = sub.add_parser("check", help="continuity of a map off a tower")
    chk.add_argument("--tower", required=True)
    chk.add_argument("--map", required=True)
    chk.add_argument("--target", help="target tower file (defaults to the source)")
    group = chk.add_mutually_exclusive_group()
    group.add_argument("--criterion", action="store_true", default=True)
    group.add_argument("--direct", action="store_true")
    group.add_argument("--homeo", metavar="INV", help="inverse map file")
    chk.set_defaults(func=cmd_check)

    prod = sub.add_parser("product", help="binary product of towers")
    prod.add_argument("towers", nargs=2)
    prod.add_argument("--check", action="store_true")
    prod.set_defaults(func=cmd_product)

    grp = sub.add_parser("group", help="abelian group tower checks")
    grp.add_argument("group")
    grp.add_argument("--radii", required=True, help='comma list, e.g. "1/2,3/4,3/8"')
    grp.add_argument("--check", action="store_true")
    grp.set_defaults(func=cmd_group)

    box = sub.add_parser("box", help="truncated box product")
    box.add_argument("factors")
    box.add_argument("--depth", type=int, required=True)
    box.add_argument("--check", action="store_true")
    box.set_defaults(func=cmd_box)

    gen = sub.add_parser("gen", help="generate a seeded random tower")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--levels", type=int, default=3)
    gen.add_argument("--max-size", type=int, default=6)
    gen.add_argument("--out")
    gen.set_defaults(func=cmd_gen)

    ver = sub.add_parser("verify", help="run the theorem suite")
    ver.add_argument("--all", action="store_true")
    ver.add_argument("--targets", nargs="*", choices=list(THEOREM_IDS))
    ver.add_argument("--seeds", help='"0..200" or comma list')
    ver.add_argument("--seed", type=int)
    ver.add_argument("--output", help="write reports as JSON lines")
    ver.set_defaults(func=cmd_verify)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing keeps no state in it,
    each call gets a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (UnilimError, OSError, ValueError, KeyError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
