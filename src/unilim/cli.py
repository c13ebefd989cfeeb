"""Command line interface.

Exit codes: 0 success or verdict true, 1 verdict false, 2 input error,
3 internal soundness violation (a theorem check failed, or an unexpected
exception escaped; either is an implementation bug).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from . import io
from .constructions import (
    box_tower, check_box_limit, check_group_limit, check_multiplicativity, ordered_product_ball,
    product_tower,
)
from .core import Entourage, MonotonePseudometricSequence, Tower, bits
from .errors import _PLACE_CHARS, UnilimError, ValidationError, _place, _shown
from .limitmetric import limit_pseudometric, witness_chain
from .regularity import SpaceMap, continuity_criterion, homeo_criterion, is_continuous
from .relations import OMEGA, REPEAT_LAST, EntourageSequence, ball, compose, multiple, sigma_sum
from .topology import compare_topologies, tlim_topology, ulim_topology

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_SOUNDNESS = 3


def _named(place: str, f, *args):
    """``f(*args)``, any refusal re-raised naming ``place``: the option or
    the files (each through ``_place``) whose values it refuses."""
    try:
        return f(*args)
    except UnilimError as e:
        raise ValidationError(f"{place}: {e}") from None


def _document(path: str, parse, *args):
    """``parse(doc, *args)`` on the JSON document in the file at ``path``;
    a refusal names the file, as ``io.load`` names one that holds no JSON."""
    return _named(_place(path), parse, io.load(path), *args)


def _tower(doc) -> tuple[Tower, dict[str, Entourage]]:
    tower = io.tower_from_json(doc)
    return tower, io.named_entourages_from_json(doc, tower)


def _sequence(doc, tower: Tower) -> MonotonePseudometricSequence:
    return MonotonePseudometricSequence(tower, io.sequence_metrics_from_json(doc))


# -- a tiny prefix expression grammar for relation arithmetic ----------------

_SHAPES = {"sum": "(sum U V)", "mul": "(mul k U)", "sigma": "(sigma k [U...] tail)"}
_BALL = "(ball x U)"
_CLOSING = {"(": ")", "[": "]"}


def _tokenize(expr: str) -> list[str]:
    for ch in "()[]":
        expr = expr.replace(ch, f" {ch} ")
    return expr.split()


def _read(tokens: list[str]) -> str | list:
    """Pop one form off the reversed token list: a token, or a bracketed
    group as a list of its opening bracket and its forms."""
    if not tokens:
        raise ValidationError("unexpected end of expression")
    tok = tokens.pop()
    if tok not in _CLOSING:
        return tok
    form = [tok]
    while not tokens or tokens[-1] not in _CLOSING.values():
        form.append(_read(tokens))  # raises at the end of the tokens
    if (got := tokens.pop()) != _CLOSING[tok]:
        raise ValidationError(f"expected {_CLOSING[tok]!r}, got {_shown(got)}")
    return form


def _token(form) -> str:
    """A token as itself, a bracketed group as its opening bracket."""
    return form if isinstance(form, str) else form[0]


def _integer(form, what: str) -> int:
    try:
        return int(form)
    except (TypeError, ValueError):
        raise ValidationError(f"expected {what}, got {_shown(_token(form))}") from None


def _name(form, names: dict[str, Entourage]) -> Entourage:
    if isinstance(form, str) and form in names:
        return names[form]
    raise ValidationError(f"unknown entourage {_shown(_token(form))}")


def _evaluate(form, tower: Tower, names: dict[str, Entourage]) -> Entourage:
    """The entourage a form names, one case per production of ``--expr``."""
    match form:
        case ["(", "sum", u, v]:
            return compose(_evaluate(u, tower, names), _evaluate(v, tower, names))
        case ["(", "mul", k, u]:
            k = _integer(k, "an integer multiple")
            return multiple(_evaluate(u, tower, names), k)
        case ["(", "sigma", upto, ["[", *entries], tail]:
            upto = OMEGA if upto in ("omega", "w") else _integer(upto, "a level or omega")
            entries = tuple(_evaluate(e, tower, names) for e in entries)
            tail = REPEAT_LAST if tail == REPEAT_LAST else _name(tail, names)
            start = entries[0].level if entries else 0
            return sigma_sum(EntourageSequence(tower, start, entries, tail), upto)
        case ["(", str(head), *_] if head in _SHAPES:
            raise ValidationError(f"expected {_SHAPES[head]}")
        case ["(", head, *_]:
            raise ValidationError(f"unknown operation {_shown(_token(head))}")
    return _name(form, names)


# -- subcommands --------------------------------------------------------------


def cmd_rel(args) -> int:
    tower, names = _document(args.tower, _tower)
    tokens = _tokenize(args.expr)[::-1]
    try:
        form = _read(tokens)
        if tokens:
            raise ValidationError(f"unexpected {_shown(tokens[-1])} after the expression")
        match form:
            case ["(", "ball", x, u]:
                if x in tower.labels:
                    x = tower.index_of(x)
                else:
                    x = _integer(x, "a point label or index")
                out = [tower.labels[i] for i in sorted(ball(x, _evaluate(u, tower, names)))]
            case ["(", "ball", *_]:
                raise ValidationError(f"expected {_BALL}")
            case _:
                e = _evaluate(form, tower, names)
                pairs = [[tower.labels[i], tower.labels[j]] for i, j in e.sorted_pairs()]
                out = {"level": e.level, "pairs": pairs}
    # a refusal names --expr, whose names it may compare with the tower's
    except RecursionError:
        raise ValidationError("--expr: expression nested too deeply") from None
    except UnilimError as e:
        raise ValidationError(f"--expr: {e}") from None
    print(io.dumps(out))
    return EXIT_TRUE


def cmd_limit(args) -> int:
    tower, _ = _document(args.tower, _tower)
    seq = _document(args.seq, _sequence, tower)
    lim = limit_pseudometric(seq)
    print(io.dumps({"labels": list(tower.labels), "matrix": io.matrix_to_json(lim)}))
    if args.witness:
        x, y = (_named("--witness", tower.index_of, label) for label in args.witness)
        chain = witness_chain(seq, x, y)
        print(io.dumps({"chain": [tower.labels[p] for p in chain]}))
    return EXIT_TRUE


def cmd_topo(args) -> int:
    tower, _ = _document(args.tower, _tower)
    top = ulim_topology(tower)
    # the minimal neighborhoods are the top zero-classes, a partition, so
    # each class first occurs at its lowest point
    classes = [[tower.labels[i] for i in bits(m)] for m in dict.fromkeys(top.min_nbhd)]
    print(io.dumps({"classes": classes}))
    if args.compare == "tlim":
        relation = compare_topologies(top, tlim_topology(tower))
        print(io.dumps({"comparison": relation}))
        return EXIT_TRUE if relation == "equal" else EXIT_FALSE
    return EXIT_TRUE


def cmd_check(args) -> int:
    source, _ = _document(args.tower, _tower)
    target, _ = _document(args.target, _tower) if args.target else (source, {})
    m, n = source.ground_size, target.ground_size
    f = SpaceMap(source, target, _document(args.map, io.map_from_json, m, n))
    if args.homeo:
        g = SpaceMap(target, source, _document(args.homeo, io.map_from_json, n, m))
        v = _named("--homeo", homeo_criterion, f, g)
        print(io.dumps(v.to_json()))
        if v.theorem_violation:
            return EXIT_SOUNDNESS
        return EXIT_TRUE if v.homeomorphism else EXIT_FALSE
    if args.direct:
        continuous = is_continuous(f)
        print(io.dumps({"continuous": continuous}))
        return EXIT_TRUE if continuous else EXIT_FALSE
    c = continuity_criterion(f)
    print(io.dumps(c.to_json()))
    if c.theorem_violation:
        return EXIT_SOUNDNESS
    return EXIT_TRUE if c.conclusion else EXIT_FALSE


def cmd_product(args) -> int:
    a, _ = _document(args.towers[0], _tower)
    b, _ = _document(args.towers[1], _tower)
    # a refusal here compares the two towers, so it names both files
    prod = _named(" and ".join(map(_place, args.towers)), product_tower, a, b)
    print(io.dumps(io.tower_to_json(prod)))
    if args.check:
        relation = check_multiplicativity(a, b, prod)
        print(io.dumps({"comparison": relation}))
        return EXIT_TRUE if relation == "equal" else EXIT_SOUNDNESS
    return EXIT_TRUE


def _radii(spec: str) -> list:
    """The ``--radii`` list, entry by entry; the group construction
    refuses radii of the wrong number or sign."""
    return [_named(f"radii[{i}]", io.rational_from_json, r) for i, r in enumerate(spec.split(","))]


def cmd_group(args) -> int:
    g = _document(args.group, io.group_from_json)
    run = check_group_limit if args.check else ordered_product_ball
    out = _named("--radii", lambda: run(g, _radii(args.radii)))
    if args.check:
        print(io.dumps(out.to_json()))
        return EXIT_TRUE if out.ok else EXIT_SOUNDNESS
    print(io.dumps([g.tower.labels[i] for i in sorted(out)]))
    return EXIT_TRUE


def cmd_box(args) -> int:
    factors = _document(args.factors, io.factors_from_json)
    tower = _named("--depth", box_tower, factors, args.depth)
    print(io.dumps(io.tower_to_json(tower)))
    if args.check:
        relation = check_box_limit(factors, args.depth, tower)
        print(io.dumps({"comparison": relation}))
        return EXIT_TRUE if relation == "equal" else EXIT_SOUNDNESS
    return EXIT_TRUE


def _default_seed() -> int:
    value = os.environ.get("UNILIM_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"UNILIM_SEED={_shown(value)} is not an int") from None


def cmd_gen(args) -> int:
    import random

    from .generate import Profile, random_tower

    seed = args.seed if args.seed is not None else _default_seed()
    profile = _named("--levels and --max-size", Profile, args.levels, args.max_size)
    # with the default profile, this is the first draw of generate_instance(seed)
    doc = io.tower_to_json(random_tower(random.Random(seed), profile))
    if args.out:
        io.dump(doc, args.out)
    else:
        print(io.dumps(doc))
    return EXIT_TRUE


def _parse_seeds(spec: str) -> range | list[int]:
    """A half-open range "lo..hi", as a ``range``, or a comma list; an empty
    range would make a run that checks no seeded instance, so it is refused."""
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            seeds = range(int(lo), int(hi))
        else:
            seeds = [int(s) for s in spec.split(",")]
    except ValueError:
        raise ValidationError(f"{_shown(spec)} is not lo..hi or a comma list of ints") from None
    if not seeds:
        raise ValidationError(f"seed range {_shown(spec)} is empty")
    return seeds


def cmd_verify(args) -> int:
    from .verify import THEOREM_IDS, verify_suite

    targets = list(THEOREM_IDS) if args.all else (args.targets or [])
    if not targets:
        # a run with no theorem id checks nothing, so it is refused
        raise ValidationError("verify needs --all or at least one theorem id after --targets")
    if args.seeds is not None:
        seeds = _named("--seeds", _parse_seeds, args.seeds)
    else:
        seeds = [args.seed if args.seed is not None else _default_seed()]
    # the output opens first, so a path that cannot be written is refused
    # before any check runs
    with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as fh:
        reports = verify_suite(targets, seeds)
        for r in reports:
            print(io.dumps(r.to_json()), file=fh)
    failed = [r for r in reports if not r.verdict]
    print(
        f"{len(reports) - len(failed)}/{len(reports)} checks passed",
        file=sys.stderr,
    )
    return EXIT_SOUNDNESS if failed else EXIT_TRUE


def _int(value: str) -> int:
    """An int option, refused as argparse's ``type=int`` refuses it but
    with a long value shown cut."""
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(value)}") from None


def _one_of(choices):
    """A ``type`` that refuses what is not in ``choices`` as argparse's
    ``choices`` check does, but with a long value shown cut; the option
    keeps ``choices`` for its usage and help."""

    def choice(value: str) -> str:
        if value not in choices:
            listed = ", ".join(map(repr, choices))
            raise argparse.ArgumentTypeError(
                f"invalid choice: {_shown(value)} (choose from {listed})"
            )
        return value

    return choice


class _TheoremIds:
    """The ``--targets`` choices, read from ``verify`` only when argparse
    checks (``in`` iterates) or lists them, so that building the parser
    loads no suite."""

    def __iter__(self):
        from .verify import THEOREM_IDS

        return iter(THEOREM_IDS)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing keeps no state in it,
    each call gets a fresh namespace."""
    p = argparse.ArgumentParser(prog="unilim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    rel = sub.add_parser("rel", help="entourage arithmetic")
    rel.add_argument("--tower", required=True)
    rel.add_argument("--expr", required=True,
                     help=" | ".join([*_SHAPES.values(), _BALL]))
    rel.set_defaults(func=cmd_rel)

    lim = sub.add_parser("limit", help="limit pseudometric of a monotone sequence")
    lim.add_argument("--tower", required=True)
    lim.add_argument("--seq", required=True)
    lim.add_argument("--witness", nargs=2, metavar=("X", "Y"))
    lim.set_defaults(func=cmd_limit)

    topo = sub.add_parser("topo", help="limit topology of a tower")
    topo.add_argument("--tower", required=True)
    topo.add_argument("--compare", type=_one_of(["tlim"]), choices=["tlim"])
    topo.set_defaults(func=cmd_topo)

    chk = sub.add_parser("check", help="continuity of a map off a tower")
    chk.add_argument("--tower", required=True)
    chk.add_argument("--map", required=True)
    chk.add_argument("--target", help="target tower file (defaults to the source)")
    group = chk.add_mutually_exclusive_group()
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
    box.add_argument("--depth", type=_int, required=True)
    box.add_argument("--check", action="store_true")
    box.set_defaults(func=cmd_box)

    gen = sub.add_parser("gen", help="generate a seeded random tower")
    gen.add_argument("--seed", type=_int)
    gen.add_argument("--levels", type=_int, default=3)
    gen.add_argument("--max-size", type=_int, default=6)
    gen.add_argument("--out")
    gen.set_defaults(func=cmd_gen)

    ver = sub.add_parser("verify", help="run the theorem suite")
    # each pair would drop one of its options, so argparse refuses it
    which = ver.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true")
    ids = _TheoremIds()
    which.add_argument("--targets", nargs="*", type=_one_of(ids), choices=ids, metavar="ID",
                       help="theorem ids: %(choices)s")
    seeds = ver.add_mutually_exclusive_group()
    seeds.add_argument("--seeds", help='"0..200" or comma list')
    seeds.add_argument("--seed", type=_int)
    ver.add_argument("--output", help="write reports as JSON lines")
    ver.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    """Run one command; input errors exit 2, and any other exception
    propagates, so a bug on valid input never reads as bad input."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UnilimError, OSError) as e:
        shown = str(e)
        name = getattr(e, "filename", None)
        if isinstance(name, str) and len(name) > _PLACE_CHARS and e.filename2 is None:
            # str(e) would echo the whole name
            shown = f"[Errno {e.errno}] {e.strerror}: {_shown(name)}"
        print(f"error: {shown}", file=sys.stderr)
        return EXIT_INPUT


def console_main(argv=None) -> int:
    """The process entry point: ``main``, with any exception that escapes
    it, an implementation bug, reported on stderr as exit 3."""
    try:
        return main(argv)
    except Exception:
        import traceback  # only on this path, so no command loads it

        traceback.print_exc()
        return EXIT_SOUNDNESS


if __name__ == "__main__":
    sys.exit(console_main())
