"""What importing ``unilim`` costs, and the contract each record class
keeps now that none is generated at import time.

``import unilim`` loads no submodule, its exports resolve on first use,
and the document commands run without the theorem suite (``verify``,
``generate``, ``fixtures``); fresh processes check both.

Every record is a ``typing.NamedTuple`` or a plain class with
``__slots__`` and an explicit ``__init__``; these tests pin their
signatures, defaults, validation errors, immutability and equality.

Every definition in ``src/unilim`` is reached from another line of it,
unless the benchmark traces it by name or the README's Library section
shows it.
"""

import ast
import itertools
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import unilim
from unilim import cli, io
from unilim.constructions import GroupLimitVerdict, GroupTower, PointedSpace
from unilim.core import Pseudometric, Tower
from unilim.errors import ValidationError
from unilim.fixtures import (
    binary_group_tower, halving_factors, three_point_sequence, three_point_tower,
)
from unilim.generate import GenerationInstance, Instance, Profile, generate_instance
from unilim.regularity import CriterionVerdict, HomeoVerdict, SpaceMap
from unilim.relations import REPEAT_LAST, EntourageSequence
from unilim.verify import THEOREM_IDS, VerifyReport

from .conftest import factor_to_json, group_to_json
from .oracles import with_entourages
from .test_perfbench_names import _spans_module


def _run(*args: str) -> subprocess.CompletedProcess:
    """Python on args, importing ``unilim`` from where this process did."""
    env = {**os.environ, "PYTHONPATH": str(Path(unilim.__file__).resolve().parent.parent)}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_import_loads_neither_dataclasses_nor_inspect():
    """``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and
    ``tokenize``, most of what a fresh ``import unilim.cli`` used to cost."""
    probe = _run(
        "-c", "import sys, unilim.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"
    help_run = _run("-m", "unilim", "--help")
    assert help_run.returncode == 0, help_run.stderr
    assert help_run.stdout.startswith("usage: unilim")


# every public name of the package, the submodules included
EXPORTS = [
    "CertificateFailure", "CriterionVerdict", "Entourage", "EntourageSequence",
    "GroupLimitVerdict", "GroupTower", "HomeoVerdict", "Instance",
    "MonotonePseudometricSequence", "OMEGA", "PointedSpace", "Profile", "Pseudometric",
    "REPEAT_LAST", "SpaceMap", "THEOREM_IDS", "TopologyFamily", "Tower", "UnilimError", "ValidationError", "VerifyReport",
    "adequate_sequence", "ball", "box_tower", "chain_weight", "check_box_limit",
    "check_group_limit", "check_multiplicativity", "compare_topologies", "compose", "constructions",
    "continuity_criterion", "core", "cyclic_group_tower", "errors", "extend_pseudometric",
    "fixtures", "generate", "generate_instance", "homeo_criterion", "io", "is_continuous",
    "is_regular_at", "limit_pseudometric", "limitmetric", "minimal_grid_ball", "multiple",
    "ordered_product_ball", "product_topology", "product_tower", "regularity", "relations",
    "shortest_path_closure", "sigma_sum", "tlim_topology", "topology", "transport_topology",
    "ulim_topology", "valley_distance", "verify", "verify_generation", "verify_suite",
    "witness_chain",
]


def test_every_export_resolves_from_its_module():
    assert unilim.__all__ == EXPORTS
    assert set(EXPORTS) <= set(dir(unilim))
    for name in EXPORTS:
        value = getattr(unilim, name)
        if name in unilim._SUBMODULES:
            assert value is sys.modules[f"unilim.{name}"]
        else:
            assert value is vars(sys.modules[f"unilim.{unilim._MODULE_OF[name]}"])[name]
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        unilim.nope


def test_errors_define_one_refusal_type():
    """Every refusal is a ``ValidationError``; ``CertificateFailure``, an
    implementation bug, is the one error that is not a ``UnilimError``."""
    import unilim.errors as errors

    classes = {
        n for n, v in vars(errors).items() if isinstance(v, type) and issubclass(v, Exception)
    }
    assert classes == {"CertificateFailure", "UnilimError", "ValidationError"}
    assert errors.ValidationError.__bases__ == (errors.UnilimError,)
    assert not issubclass(errors.CertificateFailure, errors.UnilimError)


def test_import_loads_no_submodule():
    probe = _run("-c", "import sys, unilim; print(sorted(n for n in sys.modules if 'unilim.' in n))")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


def test_topology_loads_no_relations():
    """The topology module computes from the tower's tables alone; the
    entourage arithmetic it once imported serves only the test oracles."""
    probe = _run(
        "-c", "import sys, unilim.topology; print('unilim.relations' in sys.modules)"
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"


# runs in a fresh process on the files in the directory argv[1]
DOCUMENT_COMMANDS = """
import contextlib, io, sys
from unilim import cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([a.replace("@", sys.argv[1] + "/") for a in argv])

codes = [
    run("limit", "--tower", "@tower.json", "--seq", "@seq.json", "--witness", "a", "c"),
    run("topo", "--tower", "@tower.json", "--compare", "tlim"),
    run("rel", "--tower", "@tower.json", "--expr", "(ball a (sum E_U E_U))"),
    run("check", "--tower", "@tower.json", "--map", "@map.json"),
    run("product", "@tower.json", "@tower.json", "--check"),
    run("box", "@factors.json", "--depth", "2", "--check"),
    run("group", "@group.json", "--radii", "1,1/2,1/4", "--check"),
]
print(codes, sorted({"unilim.verify", "unilim.generate", "unilim.fixtures"} & set(sys.modules)))
print(run("gen", "--seed", "1"), run("verify", "--targets", "P-lc", "--seed", "0"))
"""


def test_document_commands_leave_the_suite_unloaded(tmp_path):
    """Only ``gen`` and ``verify`` load ``verify``, ``generate`` or
    ``fixtures``; the other commands run without them."""
    t = three_point_tower()
    docs = {
        "tower": with_entourages(io.tower_to_json(t), {"E_U": t.zero_relation(2)}),
        "seq": {"metrics": [io.metric_to_json(d) for d in three_point_sequence().metrics]},
        "map": [0, 1, 2],
        "factors": [factor_to_json(f) for f in halving_factors()],
        "group": group_to_json(binary_group_tower()),
    }
    for name, doc in docs.items():
        io.dump(doc, str(tmp_path / f"{name}.json"))
    probe = _run("-c", DOCUMENT_COMMANDS, str(tmp_path))
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.splitlines() == ["[0, 0, 0, 0, 0, 0, 0] []", "0 0"]


def test_verify_help_lists_every_theorem_id(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--help"])
    assert info.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--targets [ID ...]" in out
    assert f"theorem ids: {', '.join(THEOREM_IDS)}" in out
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--targets", "T1", "T99"])
    assert info.value.code == 2
    choices = ", ".join(map(repr, THEOREM_IDS))
    assert f"invalid choice: 'T99' (choose from {choices})" in capsys.readouterr().err


def _s3_tower() -> tuple[Tower, tuple, tuple]:
    """The symmetric group on three letters, identity first, on a one-level
    tower with the zero table: a group that is not abelian."""
    perms = list(itertools.permutations(range(3)))
    index = {p: k for k, p in enumerate(perms)}
    op = tuple(tuple(index[tuple(p[i] for i in q)] for q in perms) for p in perms)
    neg = tuple(next(b for b in range(6) if op[a][b] == 0) for a in range(6))
    tower = Tower([f"g{k}" for k in range(6)], [6], [Pseudometric.zero(6)])
    return tower, op, neg


def _cases() -> dict:
    """{record: (class, field names in signature order, one value per
    field, the defaults of the trailing fields)}."""
    t = three_point_tower()
    seq = three_point_sequence()
    zeros = tuple(t.zero_relation(n) for n in range(t.num_levels))
    g = binary_group_tower()
    d = t.metric(2)
    top = zeros[-1]
    inst = generate_instance(0)
    criterion = CriterionVerdict(True, False)
    return {
        "GroupTower": (GroupTower, ("tower", "op", "neg"), (g.tower, g.op, g.neg), {}),
        "GroupLimitVerdict": (
            GroupLimitVerdict,
            ("ball_equals_product", "commutation", "square_inclusion"),
            (True, False, True),
            {},
        ),
        "PointedSpace": (PointedSpace, ("metric", "basepoint"), (d, 2), {"basepoint": 0}),
        "Profile": (Profile, ("levels", "max_size"), (4, 8), {"levels": 3, "max_size": 6}),
        "GenerationInstance": (
            GenerationInstance, ("u", "ladder", "seq"), (top, zeros, seq), {},
        ),
        "Instance": (
            Instance,
            (
                "seed", "tower", "second_tower", "seq", "space_map", "targets", "generation",
                "group", "factors",
            ),
            (
                inst.seed, inst.tower, inst.second_tower, inst.seq, inst.space_map,
                inst.targets, inst.generation, inst.group, inst.factors,
            ),
            {},
        ),
        "SpaceMap": (SpaceMap, ("source", "target", "values"), (t, t, (0, 1, 2)), {}),
        "CriterionVerdict": (CriterionVerdict, ("hypothesis", "conclusion"), (True, False), {}),
        "HomeoVerdict": (
            HomeoVerdict,
            ("homeomorphism", "forward", "backward", "transport"),
            (False, criterion, criterion, "A_finer"),
            {},
        ),
        "EntourageSequence": (
            EntourageSequence, ("tower", "start", "entries", "tail_policy"),
            (t, 1, zeros[1:], top), {"tail_policy": REPEAT_LAST},
        ),
        "VerifyReport": (
            VerifyReport,
            ("instance_id", "theorem_id", "verdict", "certificate"),
            ("seed3", "T5", True, {"hypothesis": True}),
            {},
        ),
    }


# one bad input per validating record: (build, the ValidationError's message)
BAD_INPUTS = {
    "Profile": (lambda: Profile(0, 6), "levels=0, max_size=6"),
    "SpaceMap": (
        lambda: SpaceMap(three_point_tower(), three_point_tower(), (0, 1, 3)),
        "values[2]: 3 is not an element index below 3",
    ),
    "EntourageSequence": (
        lambda: EntourageSequence(
            three_point_tower(), 1, (three_point_tower().zero_relation(2),) * 2
        ),
        "entry for level 1 has level 2",
    ),
    "PointedSpace": (
        lambda: PointedSpace(Pseudometric([[0, 1], [2, 0]])), "asymmetric pair (1,0)",
    ),
    "GroupTower": (lambda: GroupTower(*_s3_tower()), "group is not abelian"),
}

CASES = _cases()


@pytest.mark.parametrize("name", list(CASES))
def test_record_contract(name):
    cls, fields, values, defaults = CASES[name]
    assert cls.__name__ == name
    assert issubclass(cls, tuple) or "__slots__" in vars(cls)

    def attrs(record):
        return [getattr(record, f) for f in fields]

    positional = cls(*values)
    assert all(a is v for a, v in zip(attrs(positional), values))
    assert all(a is v for a, v in zip(attrs(cls(**dict(zip(fields, values)))), values))
    required = len(fields) - len(defaults)
    short = cls(*values[:required])
    assert attrs(short)[required:] == list(defaults.values())
    assert list(defaults) == list(fields[required:])

    if name in BAD_INPUTS:
        build, message = BAD_INPUTS[name]
        with pytest.raises(ValidationError) as info:
            build()
        assert type(info.value) is ValidationError and str(info.value) == message
    if issubclass(cls, tuple):
        with pytest.raises(AttributeError):
            setattr(positional, fields[0], values[0])


def test_records_compare_by_value():
    """Reports compare on every field; so do the plain classes the tests
    compare by value."""
    r = VerifyReport("seed0", "T3", True, {"pairs_checked": 9})
    assert r == VerifyReport("seed0", "T3", True, {"pairs_checked": 9})
    assert r != VerifyReport("seed0", "T3", False, {"pairs_checked": 9})
    for name in ("GroupTower", "PointedSpace", "SpaceMap"):
        cls, _, values, _ = CASES[name]
        x, y = cls(*values), cls(*values)
        assert x is not y and x == y and hash(x) == hash(y)


SRC = Path(unilim.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"


def _reached() -> dict[str, bool]:
    """{"module.qualname": whether it is reached} for every top-level
    function or class of ``src/unilim`` and every method of such a class.
    A definition is reached when an ``ast.Name`` or ``ast.Attribute``
    outside its own body names it.  Dunders run by protocol, so they are
    left out.  Strings are not names: neither docstrings nor the export
    table of ``__init__`` reach anything."""
    defs, refs = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs.append((path, node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (path, f"{node.name}.{m.name}", m)
                    for m in node.body if isinstance(m, ast.FunctionDef)
                ]
        for n in ast.walk(tree):
            if isinstance(n, (ast.Name, ast.Attribute)):
                name = n.id if isinstance(n, ast.Name) else n.attr
                refs.setdefault(name, []).append((path, n.lineno))
    return {
        f"{path.stem}.{qualname}": any(
            p != path or not node.lineno <= line <= node.end_lineno
            for p, line in refs.get(node.name, [])
        )
        for path, qualname, node in defs
        if not (node.name.startswith("__") and node.name.endswith("__"))
    }


def _library_names() -> set[str]:
    """The names in code in the README's Library section: its code blocks
    and inline code spans."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```\w*\n(.*?)```", section, re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", section, flags=re.S))
    return set(re.findall(r"[A-Za-z_][\w.]*\w", " ".join(blocks + spans)))


def test_src_holds_only_reached_definitions():
    """A definition nothing in ``src/`` names is dead code, unless the
    benchmark traces it by name (``perfbench/spans.py`` ``WRAPPED``) or the
    README's Library section shows it.  When a benchmark change drops a name
    from ``WRAPPED``, the name leaves ``src/`` with it."""
    reached = _reached()
    exported = {
        f"{module}.{name}" for name, module in unilim._MODULE_OF.items()
        if isinstance(getattr(unilim, name), (type, types.FunctionType))
    }
    assert exported <= set(reached), "the scan misses an exported definition"
    wrapped = {f"{module}.{qualname}" for module, qualname, *_ in _spans_module().WRAPPED}
    shown = _library_names()
    dead = sorted(
        name for name, ok in reached.items()
        if not ok and name not in wrapped and not {name, name.split(".", 1)[1]} & shown
    )
    assert not dead, f"defined in src/unilim but named nowhere else there: {dead}"
