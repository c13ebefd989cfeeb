"""Mutation check: which checks carry independent evidence.

Each mutant is one textual substitution in a temporary copy of ``src/``.
For each mutant in turn, with no process pool, the script runs
``unilim verify --all --seeds 0..20`` and the mutant's test file against
the copy.  A check kills a mutant when it fails on it (a non-zero exit or
a timeout).  Every mutant names the checks expected to kill it; the script
exits 1 if any of them lets its mutant survive, and 0 otherwise.

    python tests/mutants.py          # every mutant, about a minute on 2 cores
    python tests/mutants.py NAME...  # only the named mutants

Stdlib only, and not collected by pytest (its name does not start with
``test_``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120


class Mutant(NamedTuple):
    path: str  # under src/unilim
    old: str  # must occur exactly once in the file
    new: str
    test_file: str  # under tests/
    killers: tuple[str, ...]  # "verify" and/or "tests"


MUTANTS = {
    "ulim_topology on the diagonal": Mutant(
        "topology.py",
        "TopologyFamily(tower.ground_size, tower.zero_relation(tower.top_level).columns())",
        "TopologyFamily.discrete(tower.ground_size)",
        "test_topology.py",
        ("verify", "tests"),
    ),
    "ulim_topology on the full square": Mutant(
        "topology.py",
        "TopologyFamily(tower.ground_size, tower.zero_relation(tower.top_level).columns())",
        "TopologyFamily(tower.ground_size, tower.grid_entourages(tower.top_level)[-1].columns())",
        "test_topology.py",
        ("verify", "tests"),
    ),
    "is_continuous tests u >> y for u >> f(y)": Mutant(
        "regularity.py",
        "if not u >> f(y) & 1:",
        "if not u >> y & 1:",
        "test_regularity.py",
        ("verify", "tests"),
    ),
    "minimal_grid_ball one level below the top": Mutant(
        "topology.py",
        "tower.zero_relation(tower.top_level).columns()[x]",
        "tower.zero_relation(tower.top_level - 1).columns()[x]",
        "test_topology.py",
        ("tests",),
    ),
    "Warshall takes the original row k": Mutant(
        "core.py",
        "rk, bit = rows[k], 1 << k",
        "rk, bit = self.rows[k], 1 << k",
        "test_relations.py",
        ("verify", "tests"),
    ),
    "<= in sublevel_pairs": Mutant(
        "core.py",
        "if v * q < bound",
        "if v * q <= bound",
        "test_core.py",
        ("verify", "tests"),
    ),
    # the half scan over j < i is the whole check because of abs; scanning
    # j >= i instead is an equivalent mutant, so the one-sided check is
    # made by dropping abs
    "triangle check on one side of each pair only": Mutant(
        "core.py",
        "max(map(abs, map(sub, di, d[j])))",
        "max(map(sub, di, d[j]))",
        "test_core.py",
        ("tests",),
    ),
}


def _run(argv: list[str], src: Path) -> bool:
    """Run argv with ``unilim`` imported from ``src``; True when it fails."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, timeout=TIMEOUT_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return True
    return proc.returncode != 0


def _fresh_src(workdir: Path, mutant: Mutant | None = None) -> Path:
    """A copy of src/ under workdir, with the mutant applied."""
    src = workdir / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        target = src / "unilim" / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.path}: {mutant.old!r} occurs {text.count(mutant.old)} times")
        target.write_text(text.replace(mutant.old, mutant.new))
    return src


def _verify(src: Path) -> bool:
    return _run([sys.executable, "-m", "unilim.cli", "verify", "--all", "--seeds", "0..20"], src)


def run_mutant(mutant: Mutant, workdir: Path) -> dict[str, bool]:
    """Run both checks on the mutated copy; returns {check: killed}."""
    src = _fresh_src(workdir, mutant)
    pytest = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    return {"verify": _verify(src), "tests": _run([*pytest, f"tests/{mutant.test_file}"], src)}


def main(argv: list[str]) -> int:
    names = argv or list(MUTANTS)
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {unknown}; known: {list(MUTANTS)}", file=sys.stderr)
        return 2
    survivors = []
    with tempfile.TemporaryDirectory(prefix="unilim-mutants-") as tmp:
        workdir = Path(tmp)
        # a kill means something only if the unmutated copy passes
        if _verify(_fresh_src(workdir)):
            print("verify fails on the unmutated copy of src/", file=sys.stderr)
            return 2
        for name in names:
            mutant = MUTANTS[name]
            start = time.perf_counter()
            killed = run_mutant(mutant, workdir)
            missed = [c for c in mutant.killers if not killed[c]]
            by = ", ".join(c for c, k in killed.items() if k) or "nothing"
            print(f"{'SURVIVED' if missed else 'killed':8} {name}: by {by} "
                  f"(expected {', '.join(mutant.killers)}; tests/{mutant.test_file}; "
                  f"{time.perf_counter() - start:.1f} s)")
            if missed:
                survivors.append(name)
    if survivors:
        print(f"{len(survivors)} of {len(names)} mutants survived an expected killer")
        return 1
    print(f"all {len(names)} mutants killed by their expected killers")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
