"""Byte-level transcript of the CLI commands.

Each case runs ``cli.main`` in process on inputs written by ``unilim gen``
and the ``fixtures`` module, and ``tests/cli_transcript.json`` holds the
sha256 of its exit code, stdout and stderr.  A change that alters any
byte of what ``gen``, ``product``, ``box``, ``group``, ``rel``, ``limit``,
``topo``, ``check`` or ``verify`` print fails here, malformed documents
and refused runs included.

The test never rewrites the file.  After a deliberate output change,
rewrite the cases it names from the repository root and commit the file
with the change that explains it:

    PYTHONPATH=src python -m tests.test_cli_transcript --update NAME...

This rewrites the named cases and the cases missing from the record, and
no other.  It exits 1 and names every other case whose digest changed,
keeping that case's recorded digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest

from unilim import cli, fixtures
from unilim import io as uio
from unilim.constructions import PointedSpace
from unilim.core import Entourage, Pseudometric
from unilim.generate import cyclic_group_tower, generate_instance

from .conftest import big_denominator_rows, factor_to_json, group_to_json, map_to_json
from .oracles import with_entourages

RECORD = Path(__file__).with_name("cli_transcript.json")

GEN_SEEDS = (0, 1, 2, 3, 4)

CASES: dict[str, list[str]] = {
    "gen seed 0": ["gen", "--seed", "0"],
    "gen seed 7": ["gen", "--seed", "7"],
    "gen seed 3, 4 levels, 12 points": ["gen", "--seed", "3", "--levels", "4", "--max-size", "12"],
    "gen refuses 0 levels": ["gen", "--seed", "0", "--levels", "0"],
    "gen refuses a top size of 13": ["gen", "--seed", "0", "--max-size", "13"],
    "product gen0 gen1": ["product", "gen0.json", "gen1.json"],
    "product gen0 gen1 --check": ["product", "gen0.json", "gen1.json", "--check"],
    "product gen2 gen3 --check": ["product", "gen2.json", "gen3.json", "--check"],
    "product three-point gen4 --check": ["product", "three_point.json", "gen4.json", "--check"],
    "product three-point three-point": ["product", "three_point.json", "three_point.json"],
    "product level count mismatch": ["product", "gen0.json", "two_levels.json", "--check"],
    "product level count mismatch, two-level tower first": [
        "product", "two_levels.json", "gen0.json",
    ],
    "box halving depth 1 --check": ["box", "halving.json", "--depth", "1", "--check"],
    "box halving depth 2 --check": ["box", "halving.json", "--depth", "2", "--check"],
    "box halving depth 3 --check": ["box", "halving.json", "--depth", "3", "--check"],
    "box halving depth 3": ["box", "halving.json", "--depth", "3"],
    "box gen factors depth 1 --check": ["box", "gen_factors.json", "--depth", "1", "--check"],
    "box gen factors depth 2 --check": ["box", "gen_factors.json", "--depth", "2", "--check"],
    "box gen factors depth 3 --check": ["box", "gen_factors.json", "--depth", "3", "--check"],
    "box size-1 factor depth 2 --check": ["box", "point_factor.json", "--depth", "2", "--check"],
    "group binary --check": ["group", "binary.json", "--radii", "1,1/2,1/4", "--check"],
    "group binary ball": ["group", "binary.json", "--radii", "3/2,3/4,3/8"],
    "group Z2xZ3 --check": ["group", "z2z3.json", "--radii", "1,1/2", "--check"],
}

REL_EXPRESSIONS = {
    "sum": "(sum E_U E_V)",
    "sum reversed": "(sum E_V E_U)",
    "mul 2 of a sum": "(mul 2 (sum E_U E_V))",
    "mul huge of a directed path": "(mul 99999999999999999 P)",
    "sigma 1": "(sigma 1 [L1 E_V] repeat_last)",
    "sigma 2": "(sigma 2 [L1 E_V] repeat_last)",
    "sigma omega, symmetric tail": "(sigma omega [L1 E_V] E_U)",
    "sigma omega, directed tail": "(sigma omega [L1 E_V] D)",
    "sigma omega, directed path tail": "(sigma omega [E_U] P)",
    "sigma omega, repeat_last": "(sigma omega [L1 P] repeat_last)",
    "sigma w, repeat_last": "(sigma w [E_V] repeat_last)",
    "ball by label": "(ball a (sum E_U E_V))",
    "ball by index": "(ball 2 (sigma omega [L1 E_V] P))",
    "ball of a sum, higher level first": "(ball c (sum E_V L1))",
    "whitespace and brackets": "\t(sum(mul 2 E_U)\u3000E_V\x1c)\n",
    "unknown operation": "(frob E_U)",
    "unexpected end": "(sigma 1 [",
    "trailing token": "(sum E_U E_V))",
    "unknown entourage": "(sum E_U NOPE)",
    "non-integer multiple": "(mul x E_U)",
    "nested 3000 deep": "(sum " * 3000,
}
CASES.update(
    (f"rel three-point {name}", ["rel", "--tower", "rel.json", "--expr", expr])
    for name, expr in REL_EXPRESSIONS.items()
)
GEN_REL_EXPRESSIONS = {
    "mul 5 of a directed chain": "(mul 5 C)",
    "sigma omega, directed chain repeat_last": "(sigma omega [Z0 Z1 C] repeat_last)",
    "sigma omega, reversed chain tail": "(sigma omega [Z0 Z1 C] R)",
    "ball by label": "(ball x5 (sigma omega [Z0 Z1 C] repeat_last))",
}
CASES.update(
    (f"rel gen0 {name}", ["rel", "--tower", "gen0_rel.json", "--expr", expr])
    for name, expr in GEN_REL_EXPRESSIONS.items()
)
CASES.update({
    "limit three-point": ["limit", "--tower", "three_point.json", "--seq", "three_point_seq.json"],
    "limit three-point --witness a c": [
        "limit", "--tower", "three_point.json", "--seq", "three_point_seq.json",
        "--witness", "a", "c",
    ],
    "limit three-point --witness c a": [
        "limit", "--tower", "three_point.json", "--seq", "three_point_seq.json",
        "--witness", "c", "a",
    ],
})
CASES.update(
    (f"limit gen{seed} --witness {x} {y}",
     ["limit", "--tower", f"gen{seed}.json", "--seq", f"gen{seed}_seq.json", "--witness", x, y])
    for seed, x, y in ((0, "x0", "x5"), (1, "x4", "x0"), (2, "x1", "x5"), (3, "x0", "x3"),
                       (4, "x2", "x1"))
)
CASES.update(
    (f"topo {name}{flag}", ["topo", "--tower", f"{name}.json", *flag.split()])
    for name in ("three_point", "gen0", "gen2", "gen3", "classes")
    for flag in ("", " --compare tlim")
)
CASES.update({
    "check glued criterion": ["check", "--tower", "glued_src.json", "--map", "glued_map.json",
                              "--target", "glued_tgt.json"],
    "check glued --direct": ["check", "--tower", "glued_src.json", "--map", "glued_map.json",
                             "--target", "glued_tgt.json", "--direct"],
    "check identity criterion": ["check", "--tower", "ident_src.json", "--map", "ident_map.json",
                                 "--target", "ident_tgt.json"],
    "check identity --direct": ["check", "--tower", "ident_src.json", "--map", "ident_map.json",
                                "--target", "ident_tgt.json", "--direct"],
    "check rescaled --homeo": ["check", "--tower", "homeo_src.json", "--map", "homeo_map.json",
                               "--target", "homeo_tgt.json", "--homeo", "homeo_inv.json"],
    "check swap is no inverse --homeo": ["check", "--tower", "three_point.json",
                                         "--map", "ident.json", "--homeo", "swap.json"],
    "check gen0 map criterion": ["check", "--tower", "gen0.json", "--map", "gen0_map.json",
                                 "--target", "gen0_tgt.json"],
    "check gen1 map --direct": ["check", "--tower", "gen1.json", "--map", "gen1_map.json",
                                "--target", "gen1_tgt.json", "--direct"],
})
CASES.update({
    "verify L-adeq L-pseudo P-lc seeds 0..20": [
        "verify", "--targets", "L-adeq", "L-pseudo", "P-lc", "--seeds", "0..20",
    ],
    "verify T3 seeds 1,3": ["verify", "--targets", "T3", "--seeds", "1,3"],
    "verify T1 seed 2": ["verify", "--targets", "T1", "--seed", "2"],
    "verify repeated id and seed": ["verify", "--targets", "P-lc", "P-lc", "--seeds", "1,1,2"],
    "verify empty seed range": ["verify", "--targets", "T1", "--seeds", "3..3"],
    "verify no target": ["verify", "--seeds", "0..2"],
    "verify seeds not ints": ["verify", "--all", "--seeds", "a..b"],
    "verify refuses --seeds with --seed": [
        "verify", "--targets", "T1", "--seeds", "0..2", "--seed", "9",
    ],
    "verify refuses --all with --targets": ["verify", "--all", "--targets", "T1", "--seeds", "0..1"],
    "malformed tower, metrics 5": ["topo", "--tower", "bad_tower.json"],
    "malformed sequence, no metrics": [
        "limit", "--tower", "three_point.json", "--seq", "bad_seq.json",
    ],
    "malformed map [[0], 1]": ["check", "--tower", "three_point.json", "--map", "bad_map.json"],
    "malformed group, op 5": ["group", "bad_group.json", "--radii", "1,1/2,1/4"],
    "malformed factor, no metric": ["box", "bad_factor.json", "--depth", "1"],
    "tower, common denominator past the digit limit": ["topo", "--tower", "big_den.json"],
})


def _write_inputs() -> None:
    """The input files, in the current directory."""
    for seed in GEN_SEEDS:
        assert cli.main(["gen", "--seed", str(seed), "--out", f"gen{seed}.json"]) == 0
    assert cli.main(["gen", "--seed", "5", "--levels", "2", "--out", "two_levels.json"]) == 0
    uio.dump(uio.tower_to_json(fixtures.three_point_tower()), "three_point.json")
    halving = fixtures.halving_factors()
    uio.dump([factor_to_json(f) for f in halving], "halving.json")
    point = PointedSpace(Pseudometric.zero(1))
    uio.dump([factor_to_json(halving[0]), factor_to_json(point)], "point_factor.json")
    # the top levels of three 3-point towers, based at 0, 1 and 2
    factors = []
    for seed in (0, 1, 2):
        assert cli.main(["gen", "--seed", str(seed), "--max-size", "3", "--out", "small.json"]) == 0
        top = uio.tower_from_json(uio.load("small.json")).level_metrics[-1]
        factors.append(factor_to_json(PointedSpace(top, seed % top.size)))
    uio.dump(factors, "gen_factors.json")
    uio.dump(group_to_json(fixtures.binary_group_tower()), "binary.json")
    uio.dump(group_to_json(cyclic_group_tower((2, 3), (Fraction(1), Fraction(1, 2)))), "z2z3.json")
    _write_relation_inputs()
    _write_limit_and_topo_inputs()
    _write_map_inputs()
    _write_malformed_inputs()


def _entourage(level: int, size: int, arrows) -> Entourage:
    return Entourage(level, size, [(i, i) for i in range(size)] + list(arrows))


def _write_relation_inputs() -> None:
    three = fixtures.three_point_tower()
    uio.dump(with_entourages(uio.tower_to_json(three), {
        "E_U": _entourage(2, 3, [(0, 1), (1, 0)]),  # a and b, both ways
        "E_V": _entourage(2, 3, [(1, 2), (2, 1)]),  # b and c, both ways
        "L1": _entourage(1, 2, [(1, 0)]),
        "D": _entourage(2, 3, [(0, 1)]),
        "P": _entourage(2, 3, [(0, 1), (1, 2)]),  # its closure adds (0, 2)
    }), "rel.json")
    gen0 = generate_instance(0).tower  # levels of 1, 4 and 6 points
    uio.dump(with_entourages(uio.tower_to_json(gen0), {
        "Z0": _entourage(0, 1, []),
        "Z1": _entourage(1, 4, [(3, 1)]),
        "C": _entourage(2, 6, [(i, i + 1) for i in range(5)]),
        "R": _entourage(2, 6, [(i + 1, i) for i in range(5)]),
    }), "gen0_rel.json")


def _write_limit_and_topo_inputs() -> None:
    seq = fixtures.three_point_sequence()
    uio.dump({"metrics": [uio.metric_to_json(d) for d in seq.metrics]}, "three_point_seq.json")
    for seed in GEN_SEEDS:
        metrics = generate_instance(seed).seq.metrics
        uio.dump({"metrics": [uio.metric_to_json(d) for d in metrics]}, f"gen{seed}_seq.json")
    # each point joins the zero-class of a point of a lower level
    uio.dump({"labels": ["f", "e", "d", "c", "b", "a"], "level_sizes": [2, 4, 6],
              "metrics": [[[], [1]],
                          [[], [1], [0, 1], [2, 2, 2]],
                          [[], [1], [0, 1], [2, 2, 2], [1, 0, 1, 2], [2, 2, 2, 0, 2]]]},
             "classes.json")


def _write_map(name: str, f) -> None:
    uio.dump(uio.tower_to_json(f.source), f"{name}_src.json")
    uio.dump(uio.tower_to_json(f.target), f"{name}_tgt.json")
    uio.dump(map_to_json(f.values), f"{name}_map.json")


def _write_map_inputs() -> None:
    _write_map("glued", fixtures.glued_map())
    _write_map("ident", fixtures.identity_map())
    h, h_inv = fixtures.rescaled_homeo(fixtures.three_point_tower())
    _write_map("homeo", h)
    uio.dump(map_to_json(h_inv.values), "homeo_inv.json")
    uio.dump([0, 1, 2], "ident.json")
    uio.dump([0, 2, 1], "swap.json")
    for seed in (0, 1):
        f = generate_instance(seed).space_map
        uio.dump(uio.tower_to_json(f.target), f"gen{seed}_tgt.json")
        uio.dump(map_to_json(f.values), f"gen{seed}_map.json")


def _write_malformed_inputs() -> None:
    """One document per kind, each with one field of the wrong shape, and
    a tower whose table's common denominator is past the digit limit."""
    tower = uio.tower_to_json(fixtures.three_point_tower())
    uio.dump({**tower, "metrics": 5}, "bad_tower.json")
    uio.dump({}, "bad_seq.json")
    uio.dump([[0], 1], "bad_map.json")
    uio.dump({**group_to_json(fixtures.binary_group_tower()), "op": 5}, "bad_group.json")
    factor = factor_to_json(fixtures.halving_factors()[0])
    del factor["metric"]
    uio.dump([factor], "bad_factor.json")
    labels = [f"x{i}" for i in range(8)]
    uio.dump({"labels": labels, "level_sizes": [8], "metrics": [big_denominator_rows(8)]},
             "big_den.json")


def _digest(argv: list[str]) -> str:
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # an argparse refusal
            code = e.code
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def transcript() -> dict[str, str]:
    """{case: sha256 of [exit code, stdout, stderr]} for every case."""
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory(prefix="unilim-transcript-") as tmp:
        os.chdir(tmp)
        # argparse wraps its usage line to the terminal's width
        os.environ["COLUMNS"] = "80"
        try:
            _write_inputs()
            return {name: _digest(argv) for name, argv in CASES.items()}
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    return transcript()


def test_the_record_names_every_case():
    assert list(json.loads(RECORD.read_text())) == list(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_output_matches_the_record(digests, case):
    assert digests[case] == json.loads(RECORD.read_text())[case]


def update(names: list[str]) -> int:
    """Rewrite the named cases and the missing ones.  Returns 2 on an
    unknown name, 1 if any other case's digest changed, else 0."""
    unknown = [n for n in names if n not in CASES]
    if unknown:
        print(f"unknown cases: {unknown}", file=sys.stderr)
        return 2
    old = json.loads(RECORD.read_text())
    new = transcript()
    changed = [n for n in CASES if n in old and n not in names and old[n] != new[n]]
    record = {n: old[n] if n in changed else new[n] for n in CASES}
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    rewritten = [n for n in CASES if old.get(n) != record[n]]
    print(f"rewrote {len(rewritten)} of {len(CASES)} digests in {RECORD}: {rewritten}")
    for n in changed:
        print(f"changed but not named, kept as recorded: {n}", file=sys.stderr)
    return 1 if changed else 0


def test_update_rewrites_only_named_and_missing_cases(tmp_path, monkeypatch, capsys):
    record = tmp_path / "record.json"
    record.write_text(json.dumps({"kept": "0", "named": "0", "moved": "0", "gone": "0"}))
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "RECORD", record)
    monkeypatch.setattr(module, "CASES", dict.fromkeys(["kept", "named", "moved", "new"]))
    monkeypatch.setattr(module, "transcript",
                        lambda: {"kept": "0", "named": "1", "moved": "1", "new": "1"})
    assert update(["named"]) == 1
    assert json.loads(record.read_text()) == {"kept": "0", "named": "1", "moved": "0", "new": "1"}
    assert "kept as recorded: moved" in capsys.readouterr().err
    assert update(["moved"]) == 0
    assert json.loads(record.read_text())["moved"] == "1"
    assert update(["nope"]) == 2


if __name__ == "__main__":
    if sys.argv[1:2] != ["--update"]:
        sys.exit(__doc__)
    sys.exit(update(sys.argv[2:]))
