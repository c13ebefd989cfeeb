"""Byte-level transcript of the derived-tower commands.

Each case runs ``cli.main`` in process on inputs written by ``unilim gen``
and the ``fixtures`` module, and ``tests/cli_transcript.json`` holds the
sha256 of its exit code, stdout and stderr.  A change that alters any
byte of what ``gen``, ``product``, ``box`` or ``group`` print fails here.

The test never rewrites the file.  After a deliberate output change,
regenerate it by hand from the repository root and commit it with the
change that explains it:

    PYTHONPATH=src python -m tests.test_cli_transcript --update
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
from unilim.core import Pseudometric
from unilim.generate import cyclic_group_tower

from .conftest import factor_to_json, group_to_json

RECORD = Path(__file__).with_name("cli_transcript.json")

GEN_SEEDS = (0, 1, 2, 3, 4)

CASES: dict[str, list[str]] = {
    "gen seed 0": ["gen", "--seed", "0"],
    "gen seed 7": ["gen", "--seed", "7"],
    "gen seed 3, 4 levels, 12 points": ["gen", "--seed", "3", "--levels", "4", "--max-size", "12"],
    "product gen0 gen1": ["product", "gen0.json", "gen1.json"],
    "product gen0 gen1 --check": ["product", "gen0.json", "gen1.json", "--check"],
    "product gen2 gen3 --check": ["product", "gen2.json", "gen3.json", "--check"],
    "product three-point gen4 --check": ["product", "three_point.json", "gen4.json", "--check"],
    "product three-point three-point": ["product", "three_point.json", "three_point.json"],
    "product level count mismatch": ["product", "gen0.json", "two_levels.json", "--check"],
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


def _digest(argv: list[str]) -> str:
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def transcript() -> dict[str, str]:
    """{case: sha256 of [exit code, stdout, stderr]} for every case."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="unilim-transcript-") as tmp:
        os.chdir(tmp)
        try:
            _write_inputs()
            return {name: _digest(argv) for name, argv in CASES.items()}
        finally:
            os.chdir(cwd)


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    return transcript()


def test_the_record_names_every_case():
    assert list(json.loads(RECORD.read_text())) == list(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_output_matches_the_record(digests, case):
    assert digests[case] == json.loads(RECORD.read_text())[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(__doc__)
    RECORD.write_text(json.dumps(transcript(), indent=1) + "\n")
    print(f"wrote {len(CASES)} digests to {RECORD}")
