"""The exit-code contract at the process boundary: 0 true, 1 false, 2 bad
input, 3 an implementation bug.

Randomly mutated tower, sequence, map, factor, group and expression
documents may be rejected, but only as input errors: ``cli.main`` returns
0, 1 or 2 and lets nothing escape, and the unmutated documents never exit
2.  A mutated document that is refused is named: the message starts with
its file, or with what it is compared with, as ``ACROSS_ARGUMENTS``
lists.  A mutated expression that is refused starts with ``--expr``.
"""

import contextlib
import copy
from io import StringIO
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from unilim import cli, constructions, io
from unilim.core import Entourage, Pseudometric
from unilim.errors import CertificateFailure, ValidationError
from unilim.fixtures import (
    binary_group_tower, glued_map, halving_factors, identity_map, three_point_sequence,
    three_point_tower,
)

from .conftest import factor_to_json, group_to_json, map_to_json
from .oracles import with_entourages


def _documents():
    tower = three_point_tower()
    u = Entourage(2, 3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
    v = Entourage(2, 3, [(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)])
    glued = glued_map()
    return {
        "tower": with_entourages(io.tower_to_json(tower), {"U": u, "V": v}),
        "seq": {"metrics": [io.metric_to_json(d) for d in three_point_sequence().metrics]},
        "glued_src": io.tower_to_json(glued.source),
        "glued_tgt": io.tower_to_json(glued.target),
        "glued_map": map_to_json(glued.values),
        "top": io.tower_to_json(identity_map().target),
        "ident": map_to_json(range(3)),
        "factors": [factor_to_json(f) for f in halving_factors()],
        "group": group_to_json(binary_group_tower()),
        # 17 classes, 2**17 open sets
        "discrete17": {"labels": [f"p{i}" for i in range(17)], "level_sizes": [17],
                       "metrics": [[[1] * i for i in range(17)]]},
    }


DOCS = _documents()

EXPRS = (
    "(sum U V)",
    "(mul 3 (sum V U))",
    "(sigma omega [U] repeat_last)",
    "(sigma 2 [(sum U U)] V)",
    "(ball a (sum U V))",
    "(ball 2 (sigma w [V] U))",
)

# argv templates; "{name}" is the file holding DOCS[name]
CALLS = (
    ("topo", "--tower", "{tower}"),
    ("topo", "--tower", "{tower}", "--compare", "tlim"),
    ("topo", "--tower", "{discrete17}"),
    ("limit", "--tower", "{tower}", "--seq", "{seq}", "--witness", "c", "a"),
    ("check", "--tower", "{glued_src}", "--map", "{glued_map}", "--target", "{glued_tgt}"),
    ("check", "--tower", "{tower}", "--map", "{ident}", "--target", "{top}", "--direct"),
    ("check", "--tower", "{tower}", "--map", "{ident}", "--target", "{top}", "--homeo", "{ident}"),
    ("product", "{tower}", "{tower}", "--check"),
    ("box", "{factors}", "--depth", "3", "--check"),
    ("group", "{group}", "--radii", "1,1/2,3/8", "--check"),
    *(("rel", "--tower", "{tower}", f"--expr={e}") for e in EXPRS),
)

# Per command, the option that a refusal comparing a document with it
# starts with, or the files, "{k}" being argv[k]: such a refusal comes once
# every input is read, so no one file is at fault.  Every other refusal of
# a mutated document starts with its file.
ACROSS_ARGUMENTS = {
    # the two towers' level counts against each other
    "product": "{1} and {2}: ",
    # the number of factors, or a one-point factor, whose box level repeats
    # the level below it, against --depth
    "box": "--depth: ",
    # --homeo against --map: not a bijection, or not its inverse
    "check": "--homeo: ",
    # --witness against the tower's labels
    "limit": "--witness: ",
    # --expr against the tower's labels and entourages: an unknown
    # entourage or point, a tail below the top level
    "rel": "--expr: ",
}

TOKENS = ("(", ")", "[", "]", "sum", "mul", "sigma", "ball", "omega", "repeat_last",
          "U", "V", "W", "a", "z", "0", "2", "-1", "99")

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.floats()
    | st.sampled_from(["", "a", "x", "1/2", "-3/4", "1/0", "omega", "2"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["labels", "level", "pairs", "metrics"]), inner, max_size=2),
    max_leaves=4,
)


def _paths(doc, at=()):
    """Every place in a JSON document, as a key path."""
    yield at
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for k, v in items:
        yield from _paths(v, at + (k,))


def _mutate(doc, data):
    """A copy of the document with one place replaced, deleted or given a
    sibling."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    op = data.draw(st.sampled_from(("replace", "delete", "insert")))
    junk = data.draw(JUNK)
    if not path:
        return junk
    root = copy.deepcopy(doc)
    parent = root
    for k in path[:-1]:
        parent = parent[k]
    key = path[-1]
    if op == "replace":
        parent[key] = junk
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, junk)
    else:
        parent[key + "_"] = junk
    return root


def _mutate_expr(expr, data):
    tokens = cli._tokenize(expr)
    k = data.draw(st.integers(0, len(tokens) - 1))
    op = data.draw(st.sampled_from(("replace", "delete", "insert")))
    if op == "delete":
        del tokens[k]
    else:
        tokens[k:k + (op == "replace")] = [data.draw(st.sampled_from(TOKENS))]
    return " ".join(tokens)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    out = {}
    for name, doc in DOCS.items():
        out[name] = str(root / f"{name}.json")
        io.dump(doc, out[name])
    return out


def _argv(call, files):
    return [a.format(**files) if a.startswith("{") else a for a in call]


@pytest.mark.parametrize("call", CALLS, ids=" ".join)
def test_unmutated_documents_never_exit_2(call, files):
    assert cli.main(_argv(call, files)) in (0, 1)


@settings(max_examples=290, deadline=None)
@given(st.sampled_from(CALLS), st.data())
def test_mutated_documents_exit_0_1_or_2(files, call, data):
    argv = _argv(call, files)
    k = data.draw(st.sampled_from([i for i, a in enumerate(call) if a.startswith(("{", "--expr="))]))
    if call[k].startswith("--expr="):
        argv[k] = "--expr=" + _mutate_expr(call[k][len("--expr="):], data)
    else:
        name = call[k][1:-1]
        argv[k] = files[name] + ".mutated"
        io.dump(_mutate(DOCS[name], data), argv[k])
    err = StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    # any other exception escapes main and fails the test
    assert code in (0, 1, 2)
    if code == 2:
        message = err.getvalue().removeprefix("error: ")
        named = f"{argv[k]}: " if call[k].startswith("{") else "--expr: "
        across = ACROSS_ARGUMENTS[call[0]].format(*argv) if call[0] in ACROSS_ARGUMENTS else named
        assert message.startswith((named, across)), message


def test_a_product_of_towers_of_different_level_counts_names_both_files(files, capsys):
    """The refusal compares the two towers, so it names both files, in
    argument order, and keeps the library's message."""
    for a, b, counts in [("tower", "glued_src", "3 levels vs 2"),
                         ("glued_src", "tower", "2 levels vs 3")]:
        assert cli.main(["product", files[a], files[b], "--check"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {files[a]} and {files[b]}: {counts}\n"


def test_an_exception_on_valid_input_exits_3(monkeypatch, capsys, files):
    def broken(tower):
        raise ValueError("a bug")

    monkeypatch.setattr(cli, "ulim_topology", broken)
    argv = ["topo", "--tower", files["tower"]]
    with pytest.raises(ValueError):
        cli.main(argv)
    assert cli.console_main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and err.endswith("ValueError: a bug\n")


def test_a_derived_table_failing_its_certificate_exits_3(monkeypatch, capsys, files):
    """A product table that is not the coordinate max of its factors is a
    bug in the construction, not bad input: exit 3, nothing on stdout."""

    def corrupted(den, numer):
        numer = [list(row) for row in numer]
        if len(numer) > 2:
            # symmetric, so only the triangle pass of a full validation
            # would see it
            numer[-1][0] = numer[0][-1] = numer[-1][0] + 100 * den
        return Pseudometric._from_numer(den, numer)

    monkeypatch.setattr(constructions, "Pseudometric", SimpleNamespace(_from_numer=corrupted))
    argv = ["product", files["tower"], files["tower"], "--check"]
    with pytest.raises(CertificateFailure, match=r"level 1: d\(\(a,a\),\(b,b\)\) is 101,"):
        cli.main(argv)
    capsys.readouterr()
    assert cli.console_main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback") and "CertificateFailure: level 1" in err


# The command-line values unilim parses itself: per option, an argv
# template whose VALUE takes the drawn text, and the starts a refusal of
# that text may have.
PARSED_VALUES = {
    "--seeds": (("verify", "--all", "--seeds=VALUE"), ("--seeds: ",)),
    "--witness": (
        ("limit", "--tower", "{tower}", "--seq", "{seq}", "--witness", "VALUE", "a"),
        ("--witness: ",),
    ),
    "--expr": (("rel", "--tower", "{tower}", "--expr=VALUE"), ("--expr: ",)),
    "--radii": (
        ("group", "{group}", "--radii=VALUE"),
        ("--radii: ",),
    ),
}

LONG_VALUES = ("x" * 50_000, "7" * 50_000, f"(ball {'x' * 50_000} U)")

# printable ASCII, whose repr is at most two characters per character
VALUES = st.sampled_from(LONG_VALUES) | st.text(st.characters(min_codepoint=32, max_codepoint=126))


@settings(max_examples=200, deadline=None)
@given(option=st.sampled_from(list(PARSED_VALUES)), value=VALUES)
@example(option="--seeds", value=LONG_VALUES[0])
@example(option="--witness", value=LONG_VALUES[0])
@example(option="--expr", value=LONG_VALUES[2])
@example(option="--radii", value=LONG_VALUES[1])
def test_refused_command_line_values_are_one_short_line(files, option, value):
    """Drawn text in each value unilim parses itself exits 0, 1 or 2, and a
    refusal is one line of under 300 bytes naming the option, however long
    the value.  A draw that is a seed spec would run the suite, so it is
    skipped."""
    if option == "--seeds":
        with contextlib.suppress(ValidationError):
            cli._parse_seeds(value)
            assume(False)
    # argparse reads a separate value that starts with "-" as an option
    assume(option != "--witness" or not value.startswith("-"))
    template, places = PARSED_VALUES[option]
    argv = [a.replace("VALUE", value) for a in _argv(template, files)]
    err = StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        message = err.getvalue()
        assert message.count("\n") == 1 and message.endswith("\n"), message[:300]
        assert len(message.encode()) < 300, message[:300]
        assert message.startswith("error: ") and message[7:].startswith(places), message


# The values argparse refuses through the type unilim gives it: per option,
# an argv template whose VALUE takes the refused text, and the refusal of
# the value "x", which is argparse's own.
ARGPARSE_VALUES = {
    "box --depth": (("box", "{factors}", "--depth", "VALUE"),
                    "argument --depth: invalid int value: 'x'"),
    "gen --seed": (("gen", "--seed", "VALUE"), "argument --seed: invalid int value: 'x'"),
    "gen --levels": (("gen", "--levels", "VALUE"), "argument --levels: invalid int value: 'x'"),
    "gen --max-size": (("gen", "--max-size", "VALUE"),
                       "argument --max-size: invalid int value: 'x'"),
    "verify --seed": (("verify", "--all", "--seed", "VALUE"),
                      "argument --seed: invalid int value: 'x'"),
    "verify --targets": (
        ("verify", "--targets", "T1", "VALUE"),
        "argument --targets: invalid choice: 'x' (choose from 'T1', 'T2', 'T3', 'L-mod', "
        "'L-adeq', 'L-pseudo', 'T5', 'C6', 'P-group', 'P-box', 'P-lc')",
    ),
    "topo --compare": (("topo", "--tower", "{tower}", "--compare", "VALUE"),
                       "argument --compare: invalid choice: 'x' (choose from 'tlim')"),
}


def _argparse_refusal(files, option, value) -> str:
    template, _ = ARGPARSE_VALUES[option]
    argv = [a.replace("VALUE", value) for a in _argv(template, files)]
    err = StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    return err.getvalue()


@pytest.mark.parametrize("option", list(ARGPARSE_VALUES))
def test_argparse_refusals_show_a_long_value_cut(files, option):
    """A 50,000-character value is refused in under 512 bytes of stderr, and
    a short one as argparse's own ``type=int`` or ``choices`` refuses it."""
    for value in LONG_VALUES:
        message = _argparse_refusal(files, option, value)
        assert len(message.encode()) < 512, message[:600]
        assert f"({len(value)} characters)" in message
    short = _argparse_refusal(files, option, "x")
    assert short.endswith(f": error: {ARGPARSE_VALUES[option][1]}\n"), short


# Per option that names a file, an argv template whose PATH takes a file
# name no file system opens (a 5,000-character name); every other file the
# call reads exists.
FILE_OPTIONS = {
    "--tower": ("topo", "--tower", "PATH"),
    "--seq": ("limit", "--tower", "{tower}", "--seq", "PATH"),
    "--map": ("check", "--tower", "{tower}", "--map", "PATH"),
    "--target": ("check", "--tower", "{tower}", "--map", "{ident}", "--target", "PATH"),
    "--homeo": ("check", "--tower", "{tower}", "--map", "{ident}", "--target", "{top}",
                "--homeo", "PATH"),
    "product": ("product", "{tower}", "PATH"),
    "group": ("group", "PATH", "--radii", "1"),
    "box": ("box", "PATH", "--depth", "1"),
    "verify --output": ("verify", "--targets", "P-lc", "--seed", "0", "--output", "PATH"),
    "gen --out": ("gen", "--out", "PATH"),
}


def _refusal(argv) -> str:
    err = StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(StringIO()):
        assert cli.main(argv) == 2
    message = err.getvalue()
    assert message.count("\n") == 1 and message.endswith("\n"), message[:600]
    assert len(message.encode()) < 512, message[:600]
    return message


@pytest.mark.parametrize("option", list(FILE_OPTIONS))
def test_a_long_file_name_is_refused_in_one_short_line(files, option):
    argv = [a.replace("PATH", "x" * 5_000) for a in _argv(FILE_OPTIONS[option], files)]
    assert "(5000 characters)" in _refusal(argv)


@pytest.mark.parametrize("text, why", [("{", ": not a JSON document: "), ("{}", ": labels: ")])
def test_a_bad_document_under_a_long_path_is_refused_in_one_short_line(tmp_path, text, why):
    folder = tmp_path.joinpath(*["d" * 200] * 17)
    folder.mkdir(parents=True)
    path = folder / "tower.json"
    path.write_text(text)
    message = _refusal(["topo", "--tower", str(path)])
    assert f"({len(str(path))} characters){why}" in message, message
