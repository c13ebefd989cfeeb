import json
import re
import signal
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unilim import cli, io, limitmetric
from unilim.constructions import product_tower
from unilim.core import Pseudometric, Tower
from unilim.errors import UnilimError, ValidationError
from unilim.fixtures import (
    binary_group_tower,
    glued_map,
    halving_factors,
    identity_map,
    rescaled_homeo,
    three_point_sequence,
    three_point_tower,
)
from unilim.generate import generate_instance
from unilim.relations import compose, multiple
from unilim.verify import THEOREM_IDS, verify_suite

from .conftest import (
    MIXED_POOL,
    big_denominator_rows,
    factor_from_json,
    factor_to_json,
    group_to_json,
    map_to_json,
    metric_from_json,
    mixed_towers,
    same_table,
)
from .oracles import fraction_metric_from_json, with_entourages


# -- wire formats --------------------------------------------------------------


def test_rational_round_trip():
    assert io.rational_to_json(Fraction(3, 2)) == "3/2"
    assert io.rational_to_json(Fraction(4, 2)) == 2
    assert io.rational_from_json("3/2") == Fraction(3, 2)
    assert io.rational_from_json(5) == 5
    assert io.rational_from_json("-7/3") == Fraction(-7, 3)


@pytest.mark.parametrize("bad", [1.5, True, None, "x", "1/0", [1]])
def test_rational_rejects_non_rationals(bad):
    with pytest.raises(ValidationError):
        io.rational_from_json(bad)


def test_metric_round_trip(tower):
    d = tower.metric(2)
    rows = io.metric_to_json(d)
    assert rows == [[], [1], [2, 1]]
    assert metric_from_json(rows).dist == d.dist


def test_tower_round_trip(tower, e_u, e_v):
    doc = with_entourages(io.tower_to_json(tower), {"E_U": e_u, "E_V": e_v})
    back = io.tower_from_json(doc)
    assert back.labels == tower.labels
    assert back.level_sizes == tower.level_sizes
    assert all(
        back.metric(n).dist == tower.metric(n).dist for n in range(3)
    )
    names = io.named_entourages_from_json(doc, back)
    assert names["E_U"] == e_u
    assert names["E_V"] == e_v


def test_tower_json_requires_keys(tower):
    doc = io.tower_to_json(tower)
    del doc["metrics"]
    with pytest.raises(ValidationError):
        io.tower_from_json(doc)


def test_tower_json_keeps_strict_flag():
    t = Tower(["a", "b"], [1, 2], [Pseudometric.zero(1), Pseudometric.zero(2)])
    assert "strict" not in io.tower_to_json(t)
    s = io.tower_from_json(io.tower_to_json(t) | {"strict": True})
    assert s.strict


GOOD_TOWER = {"labels": ["a", "b"], "level_sizes": [1, 2], "metrics": [[[]], [[], [1]]]}


@pytest.mark.parametrize(
    "patch, path",
    [
        ({"metrics": [[[]], [[], 5]]}, "metrics[1][1]"),
        ({"metrics": [[[]], [[], ["x"]]]}, "metrics[1][1][0]"),
        ({"metrics": [[[]], [[1], [1]]]}, "metrics[1]"),
        ({"metrics": {"0": []}}, "metrics"),
        ({"labels": "ab"}, "labels"),
        ({"labels": ["a", 2]}, "labels[1]"),
        ({"level_sizes": [1, True]}, "level_sizes[1]"),
        ({"strict": "yes"}, "strict"),
        ({"entourages": {"E": {"level": -1, "pairs": [[0, 0]]}}}, "entourages.E.level"),
        ({"entourages": {"E": {"level": 7, "pairs": [[0, 0]]}}}, "entourages.E.level"),
        ({"entourages": {"E": {"level": 0, "pairs": [[0, 0, 0]]}}}, "entourages.E.pairs[0]"),
        ({"entourages": {"E": {"level": 0, "pairs": [["0", 0]]}}}, "entourages.E.pairs[0][0]"),
        ({"entourages": {"E": [0]}}, "entourages.E"),
        ({"entourages": {"E": {"level": 1, "pairs": [[0, -1]]}}}, "entourages.E.pairs[0][1]"),
        ({"entourages": {"E": {"level": 1, "pairs": [[0, 7]]}}}, "entourages.E.pairs[0][1]"),
        (
            {
                "labels": ["a", "b", "c"],
                "level_sizes": [1, 3],
                "metrics": [[[]], [[], [1], [1, 1]]],
                "entourages": {"E": {"level": 1, "pairs": [[0, 0], [1, 1]]}},
            },
            "entourages.E",
        ),
    ],
)
def test_malformed_tower_documents_name_the_offending_path(tmp_path, capsys, patch, path):
    doc = GOOD_TOWER | patch
    with pytest.raises(ValidationError, match=f"^{re.escape(path)}: "):
        io.named_entourages_from_json(doc, io.tower_from_json(doc))
    file = tmp_path / "tower.json"
    io.dump(doc, str(file))
    assert cli.main(["topo", "--tower", str(file)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {file}: {path}: ")


@pytest.mark.parametrize(
    "seq, path",
    [
        ({"metrics": 5}, "metrics"),
        pytest.param({"levels": []}, "metrics: missing", id="seq1-metrics-missing"),
        ([[[]], [[], 5]], "metrics[1][1]"),
        ({"metrics": [[[]], [[], [1]], [3]]}, "metrics[2][0]"),
    ],
)
def test_malformed_sequence_documents_are_input_errors(tmp_path, capsys, tower_file, seq, path):
    file = tmp_path / "seq.json"
    io.dump(seq, str(file))
    assert cli.main(["limit", "--tower", tower_file, "--seq", str(file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {file}: {path}: ") or err == f"error: {file}: {path}\n"


def test_map_round_trip():
    assert io.map_from_json(map_to_json((0, 2, 1)), 3, 3) == (0, 2, 1)
    with pytest.raises(ValidationError):
        io.map_from_json({"0": 1}, 1, 3)
    with pytest.raises(ValidationError, match=r"^map\[1\]: 3 is not an element index below 3$"):
        io.map_from_json([0, 3, 1], 3, 3)
    with pytest.raises(ValidationError, match="^map: 2 values for a source of 3 points$"):
        io.map_from_json([0, 2], 3, 3)


def test_group_round_trip(group):
    back = io.group_from_json(group_to_json(group))
    assert back.op == group.op
    assert back.neg == group.neg
    assert back.tower.level_sizes == group.tower.level_sizes


def test_group_json_requires_tables(group):
    doc = group_to_json(group)
    del doc["op"]
    with pytest.raises(ValidationError):
        io.group_from_json(doc)


def test_factors_round_trip(factors):
    back = io.factors_from_json([factor_to_json(f) for f in factors])
    assert [f.metric.dist for f in back] == [f.metric.dist for f in factors]
    with pytest.raises(ValidationError):
        io.factors_from_json({"metric": [[]]})
    with pytest.raises(ValidationError):
        factor_from_json({"basepoint": 0})


def test_dumps_is_deterministic():
    a = io.dumps(io.tower_to_json(three_point_tower()))
    b = io.dumps(io.tower_to_json(three_point_tower()))
    assert a == b
    assert '": ' not in a  # compact separators


@pytest.mark.parametrize("seed", range(6))
def test_dumps_writes_what_json_dumps_writes(seed):
    """Sorted keys and compact separators, byte for byte, on what the CLI
    prints: seeded towers, their products, limits and verify reports."""
    inst = generate_instance(seed)
    docs = [
        io.tower_to_json(inst.tower),
        io.tower_to_json(product_tower(inst.tower, inst.tower)),
        {"labels": list(inst.tower.labels),
         "matrix": io.matrix_to_json(limitmetric.limit_pseudometric(inst.seq))},
        *(r.to_json() for r in verify_suite(THEOREM_IDS, [seed])),
    ]
    for doc in docs:
        assert io.dumps(doc) == json.dumps(doc, sort_keys=True, separators=(",", ":"))


# -- CLI ------------------------------------------------------------------------


@pytest.fixture
def tower_file(tmp_path, tower, e_u, e_v):
    path = tmp_path / "tower.json"
    io.dump(with_entourages(io.tower_to_json(tower), {"E_U": e_u, "E_V": e_v}), str(path))
    return str(path)


@pytest.fixture
def seq_file(tmp_path):
    seq = three_point_sequence()
    doc = {"metrics": [io.metric_to_json(d) for d in seq.metrics]}
    path = tmp_path / "seq.json"
    io.dump(doc, str(path))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    lines = [json.loads(l) for l in out.splitlines() if l]
    return code, lines


def test_cli_rel_sum(capsys, tower_file, tower, e_u, e_v):
    code, lines = run(capsys, "rel", "--tower", tower_file, "--expr", "(sum E_U E_V)")
    assert code == 0
    expected = compose(e_u, e_v)
    assert lines[0]["level"] == 2
    got = {tuple(p) for p in lines[0]["pairs"]}
    assert got == {
        (tower.labels[i], tower.labels[j]) for i, j in expected.sorted_pairs()
    }


def test_cli_rel_ball_frozen(capsys, tower_file):
    code, lines = run(
        capsys, "rel", "--tower", tower_file, "--expr", "(ball a (sum E_U E_V))"
    )
    assert code == 0 and lines[0] == ["a", "b", "c"]
    code, lines = run(
        capsys, "rel", "--tower", tower_file, "--expr", "(ball a (sum E_V E_U))"
    )
    assert code == 0 and lines[0] == ["a", "b"]


def test_cli_rel_mul_and_sigma(capsys, tower_file, e_u):
    code, lines = run(capsys, "rel", "--tower", tower_file, "--expr", "(mul 2 E_U)")
    assert code == 0
    double = {tuple(p) for p in lines[0]["pairs"]}
    # E_U is an equivalence relation, so all its sums stabilize at E_U
    code, lines = run(
        capsys, "rel", "--tower", tower_file,
        "--expr", "(sigma omega [E_U] repeat_last)",
    )
    assert code == 0
    assert {tuple(p) for p in lines[0]["pairs"]} == double


def _rel_timeout(signum, frame):
    raise TimeoutError("(mul k U) did not stop at a stable sum")


def test_cli_rel_huge_multiple_stops_at_the_stable_sum(capsys, tower_file, tower, e_u, e_v):
    u = compose(e_u, e_v)  # not transitive: its double is the full square
    previous = signal.signal(signal.SIGALRM, _rel_timeout)
    signal.alarm(10)
    try:
        code, lines = run(
            capsys, "rel", "--tower", tower_file,
            "--expr", "(mul 99999999999999999 (sum E_U E_V))",
        )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    expected = multiple(u, u.size - 1)
    assert expected != u
    assert {tuple(p) for p in lines[0]["pairs"]} == {
        (tower.labels[i], tower.labels[j]) for i, j in expected.sorted_pairs()
    }


def test_cli_rel_bad_expression(capsys, tower_file):
    assert cli.main(["rel", "--tower", tower_file, "--expr", "(sum E_U NOPE)"]) == 2
    assert cli.main(["rel", "--tower", tower_file, "--expr", "(frob E_U)"]) == 2


@pytest.mark.parametrize(
    "expr, message",
    [
        ("(sigma 1 [", "unexpected end of expression"),
        ("(sigma 2 [E_U] Q)", "unknown entourage 'Q'"),
        ("(mul x E_U)", "expected an integer multiple, got 'x'"),
        ("(sigma x [E_U] repeat_last)", "expected a level or omega, got 'x'"),
        ("(ball zz E_U)", "expected a point label or index, got 'zz'"),
        ("(ball -1 E_U)", "element -1 outside level of size 3"),  # not the last point
        ("(ball a", "unexpected end of expression"),
        ("(sum " * 3000, "expression nested too deeply"),
        ("(mul 2 " * 3000 + "E_U", "expression nested too deeply"),
        ("(sum E_U)", "expected (sum U V)"),
        ("(mul 2 E_U E_V)", "expected (mul k U)"),
        ("(sigma 1 E_U E_V)", "expected (sigma k [U...] tail)"),
        ("(ball a)", "expected (ball x U)"),
        ("[E_U]", "unknown entourage '['"),
        ("(sum E_U E_V]", "expected ')', got ']'"),
        ("(mul (sum E_U E_V) E_U)", "expected an integer multiple, got '('"),
        ("(sum (ball a E_U) E_V)", "unknown operation 'ball'"),
    ],
)
def test_cli_rel_names_expression_errors(capsys, tower_file, expr, message):
    assert cli.main(["rel", "--tower", tower_file, "--expr", expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --expr: {message}\n"


@pytest.mark.parametrize(
    "expr, extra",
    [("E_U extra", "extra"), ("(ball a E_U) junk", "junk"), ("(sum E_U E_V))", ")")],
)
def test_cli_rel_rejects_tokens_after_the_expression(capsys, tower_file, expr, extra):
    assert cli.main(["rel", "--tower", tower_file, "--expr", expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --expr: unexpected {extra!r} after the expression\n"


def test_cli_limit(capsys, tower_file, seq_file):
    code, lines = run(
        capsys, "limit", "--tower", tower_file, "--seq", seq_file,
        "--witness", "a", "c",
    )
    assert code == 0
    assert lines[0]["matrix"] == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert lines[1]["chain"] == ["a", "b", "c"]


def test_cli_limit_witness_closes_the_link_table_once(capsys, monkeypatch, tower_file, seq_file):
    sizes = []
    closure = limitmetric.closure_in_place
    monkeypatch.setattr(
        limitmetric, "closure_in_place", lambda d: sizes.append(len(d)) or closure(d)
    )
    code, lines = run(
        capsys, "limit", "--tower", tower_file, "--seq", seq_file, "--witness", "c", "a"
    )
    assert code == 0 and lines[1]["chain"] == ["c", "b", "a"]
    assert sizes == [3]


def test_cli_limit_accepts_bare_metric_array(capsys, tower_file, tmp_path):
    seq = three_point_sequence()
    path = tmp_path / "bare.json"
    io.dump([io.metric_to_json(d) for d in seq.metrics], str(path))
    code, lines = run(capsys, "limit", "--tower", tower_file, "--seq", str(path))
    assert code == 0
    assert lines[0]["matrix"][0][2] == 2


def test_cli_topo(capsys, tower_file):
    code, lines = run(capsys, "topo", "--tower", tower_file)
    # genuine metrics make the limit topology discrete: one class per point
    assert (code, lines) == (0, [{"classes": [["a"], ["b"], ["c"]]}])
    code, lines = run(capsys, "topo", "--tower", tower_file, "--compare", "tlim")
    assert code == 0
    assert lines[1]["comparison"] == "equal"


def test_cli_topo_classes_span_levels(capsys, tmp_path):
    """Each point joins the zero-class of a point of a lower level, so every
    class spans two levels.  Classes are listed by their lowest point, each
    in ground order, not by label."""
    file = tmp_path / "classes.json"
    doc = {"labels": ["f", "e", "d", "c", "b", "a"], "level_sizes": [2, 4, 6],
           "metrics": [[[], [1]],
                       [[], [1], [0, 1], [2, 2, 2]],
                       [[], [1], [0, 1], [2, 2, 2], [1, 0, 1, 2], [2, 2, 2, 0, 2]]]}
    io.dump(doc, str(file))
    code, lines = run(capsys, "topo", "--tower", str(file), "--compare", "tlim")
    assert (code, lines) == (
        0, [{"classes": [["f", "d"], ["e", "b"], ["c", "a"]]}, {"comparison": "equal"}]
    )


def test_cli_topo_on_36_points_in_18_classes(capsys, tmp_path):
    """Point i sits at i mod 18 on a line, so the 18 points of the top level
    repeat the 18 of the bottom one: 2**18 open sets, 18 classes."""
    n = 36
    pos = [i % 18 for i in range(n)]
    rows = [[abs(pos[i] - pos[j]) for j in range(i)] for i in range(n)]
    file = tmp_path / "line.json"
    io.dump({"labels": [f"p{i}" for i in range(n)], "level_sizes": [18, n],
             "metrics": [rows[:18], rows]}, str(file))
    code, lines = run(capsys, "topo", "--tower", str(file), "--compare", "tlim")
    assert code == 0
    assert lines[0]["classes"] == [[f"p{i}", f"p{i + 18}"] for i in range(18)]
    assert lines[1] == {"comparison": "equal"}


def _write_map(tmp_path, name, f):
    src = tmp_path / f"{name}-src.json"
    tgt = tmp_path / f"{name}-tgt.json"
    val = tmp_path / f"{name}-map.json"
    io.dump(io.tower_to_json(f.source), str(src))
    io.dump(io.tower_to_json(f.target), str(tgt))
    io.dump(map_to_json(f.values), str(val))
    return str(src), str(tgt), str(val)


def test_cli_check_criterion(capsys, tmp_path):
    src, tgt, val = _write_map(tmp_path, "glued", glued_map())
    code, lines = run(capsys, "check", "--tower", src, "--map", val, "--target", tgt)
    assert code == 1
    assert lines[0] == {"continuous": False, "hypothesis": False}

    src, tgt, val = _write_map(tmp_path, "ident", identity_map())
    code, lines = run(capsys, "check", "--tower", src, "--map", val, "--target", tgt)
    assert code == 0
    assert lines[0] == {"continuous": True, "hypothesis": True}


def test_cli_check_direct(capsys, tmp_path):
    src, tgt, val = _write_map(tmp_path, "glued", glued_map())
    code, lines = run(
        capsys, "check", "--tower", src, "--map", val, "--target", tgt, "--direct"
    )
    assert code == 1
    assert lines[0] == {"continuous": False}


def test_cli_check_homeo(capsys, tmp_path):
    h, h_inv = rescaled_homeo(three_point_tower())
    src, tgt, val = _write_map(tmp_path, "fwd", h)
    inv = tmp_path / "inv-map.json"
    io.dump(map_to_json(h_inv.values), str(inv))
    code, lines = run(
        capsys, "check", "--tower", src, "--map", val, "--target", tgt,
        "--homeo", str(inv),
    )
    assert code == 0
    assert lines[0] == {"homeomorphism": True, "transport": "equal"}


def test_cli_check_homeo_rejects_non_inverse(capsys, tmp_path, tower_file):
    swap = tmp_path / "swap.json"
    io.dump([0, 2, 1], str(swap))
    ident = tmp_path / "ident.json"
    io.dump([0, 1, 2], str(ident))
    code = cli.main(
        ["check", "--tower", tower_file, "--map", str(ident), "--homeo", str(swap)]
    )
    assert code == 2


def test_cli_product(capsys, tower_file):
    code, lines = run(capsys, "product", tower_file, tower_file, "--check")
    assert code == 0
    prod = io.tower_from_json(lines[0])
    assert prod.level_sizes == (1, 4, 9)
    assert lines[1]["comparison"] == "equal"


def test_cli_group(capsys, tmp_path):
    path = tmp_path / "group.json"
    io.dump(group_to_json(binary_group_tower()), str(path))
    code, lines = run(capsys, "group", str(path), "--radii", "1,1/2,1/4", "--check")
    assert code == 0
    assert lines[0] == {
        "ball_equals_product": True,
        "commutation": True,
        "square_inclusion": True,
    }
    code, lines = run(capsys, "group", str(path), "--radii", "3/2,3/4,3/8")
    assert code == 0
    assert "(0,0,0)" in lines[0]
    assert cli.main(["group", str(path), "--radii", "1"]) == 2


@pytest.mark.parametrize(
    "radii, check, message",
    [
        ("1,1/0,1", False, "radii[1]: not a rational: '1/0'"),
        ("1/0,1,1", True, "radii[0]: not a rational: '1/0'"),
        ("1,x,1", False, "radii[1]: not a rational: 'x'"),
        ("0,1,1", True, "radii must be positive"),
        ("1,-1/2,1", True, "radii must be positive"),
        ("0,1,1", False, "radii must be positive"),
    ],
)
def test_cli_group_names_bad_radii(capsys, tmp_path, radii, check, message):
    path = tmp_path / "group.json"
    io.dump(group_to_json(binary_group_tower()), str(path))
    argv = ["group", str(path), "--radii", radii] + ["--check"] * check
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --radii: {message}\n"


GOOD_GROUP = group_to_json(binary_group_tower())


@pytest.mark.parametrize(
    "patch, path",
    [
        ({"op": 5}, "op"),
        ({"op": [5] + GOOD_GROUP["op"][1:]}, "op[0]"),
        ({"op": [[0, "1"] + GOOD_GROUP["op"][0][2:]] + GOOD_GROUP["op"][1:]}, "op[0][1]"),
        ({"op": [[0, 8] + GOOD_GROUP["op"][0][2:]] + GOOD_GROUP["op"][1:]}, "op[0][1]"),
        ({"neg": [0, -1] + GOOD_GROUP["neg"][2:]}, "neg[1]"),
    ],
)
def test_cli_group_rejects_malformed_tables(capsys, tmp_path, patch, path):
    file = tmp_path / "group.json"
    io.dump(GOOD_GROUP | patch, str(file))
    assert cli.main(["group", str(file), "--radii", "1,1/2,1/4"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {file}: {path}: ")


def test_cli_check_rejects_malformed_map(capsys, tmp_path, tower_file):
    file = tmp_path / "map.json"
    io.dump([[0], 1], str(file))
    assert cli.main(["check", "--tower", tower_file, "--map", str(file)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {file}: map[0]: ")


@pytest.mark.parametrize("case", ["map value", "entourage pair"])
def test_cli_negative_index_is_an_input_error(capsys, tmp_path, tower_file, tower, case):
    """An index below 0 is out of range, as one past the end is: Python
    would read -1 as the last element, and a shift by it raises."""
    file = tmp_path / "doc.json"
    if case == "map value":
        io.dump([0, -1, 1], str(file))
        argv, message = ["check", "--tower", tower_file, "--map", str(file)], "map[1]: -1 is not"
    else:
        doc = io.tower_to_json(tower)
        doc["entourages"] = {"E": {"level": 2, "pairs": [[0, 0], [1, 1], [2, 2], [0, -1]]}}
        io.dump(doc, str(file))
        argv, message = ["topo", "--tower", str(file)], "entourages.E.pairs[3][1]: -1 is not"
    assert cli.console_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {file}: {message} ")


@pytest.mark.parametrize(
    "doc, path",
    [
        ([{"basepoint": "x", "metric": [[], [1]]}], "factors[0].basepoint"),
        ([{"metric": [[], [1]]}, {"basepoint": 2, "metric": [[], [1]]}], "factors[1]"),
        ([{"metric": [[], [1]]}, 5], "factors[1]"),
        ([{"metric": [[], ["1/0"]]}], "factors[0].metric[1][0]"),
    ],
)
def test_cli_box_rejects_malformed_factors(capsys, tmp_path, doc, path):
    file = tmp_path / "factors.json"
    io.dump(doc, str(file))
    assert cli.main(["box", str(file), "--depth", "1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {file}: {path}: ")


def _entourages_on_good_tower(doc):
    return io.named_entourages_from_json(doc, io.tower_from_json(GOOD_TOWER))


@pytest.mark.parametrize("read, doc, message", [
    (io.tower_from_json, [GOOD_TOWER], "expected a JSON object, got an array"),
    (io.tower_from_json, "tower", "expected a JSON object, got a string"),
    (io.tower_from_json, {"level_sizes": [1, 2], "metrics": []}, "labels: missing"),
    (io.group_from_json, GOOD_TOWER | {"neg": [0, 1]}, "op: missing"),
    (io.sequence_metrics_from_json, {"metric": []}, "metrics: missing"),
    (io.factors_from_json, [{"basepoint": 0}], "factors[0].metric: missing"),
    (io.factors_from_json, [{"metric": [[]]}, None],
     "factors[1]: expected a JSON object, got null"),
    (io.factors_from_json, {"metric": [[]]}, "factors: expected a JSON array, got an object"),
    (io.sequence_metrics_from_json, "x", "metrics: expected a JSON array, got a string"),
    (_entourages_on_good_tower, {"entourages": {"E": {"pairs": []}}},
     "entourages.E.level: missing"),
    (_entourages_on_good_tower, {"entourages": [1]},
     "entourages: expected a JSON object, got an array"),
    # the library refusals a document reaches name the key they refuse
    (io.tower_from_json, GOOD_TOWER | {"labels": ["a"]}, "labels: 1 for a top level of 2 points"),
    (io.tower_from_json, GOOD_TOWER | {"labels": ["a", "a"]}, "labels: not unique"),
    (io.tower_from_json, GOOD_TOWER | {"level_sizes": [], "metrics": []}, "level_sizes: no levels"),
    (io.tower_from_json, GOOD_TOWER | {"metrics": [[[]]]}, "metrics: 1 for 2 levels"),
    (io.tower_from_json, GOOD_TOWER | {"metrics": [[[]], [[], [1], [1, 1]]]},
     "metrics[1]: 3 points, not 2"),
    (io.group_from_json, GOOD_GROUP | {"op": GOOD_GROUP["op"][1:]},
     f"op: not a {len(GOOD_GROUP['op'])} by {len(GOOD_GROUP['op'])} table"),
    (io.group_from_json, GOOD_GROUP | {"neg": GOOD_GROUP["neg"][1:]},
     f"neg: {len(GOOD_GROUP['neg']) - 1} entries for {len(GOOD_GROUP['neg'])} elements"),
], ids=["root array", "root string", "tower key", "group key", "sequence key", "factor key",
        "factor null", "factors root", "sequence root", "entourage key", "entourages array", "label count", "label twice",
        "no levels", "metric count", "metric size", "op rows", "neg entries"])
def test_documents_of_the_wrong_shape_name_the_key_or_the_type(read, doc, message):
    """A missing key is named by its path; a value that is not the JSON
    object or array expected is named by its JSON type, not echoed, since
    it may be a whole document."""
    with pytest.raises(UnilimError) as got:
        read(doc)
    assert str(got.value) == message


@pytest.mark.parametrize("short", ["--map", "--homeo"])
def test_cli_check_names_the_map_file_it_refuses(capsys, tmp_path, tower_file, short):
    """``--map`` and ``--homeo`` hold the same kind of document, so only
    the file name tells which of the two is refused."""
    good, bad = tmp_path / "good.json", tmp_path / "short.json"
    io.dump([0, 1, 2], str(good))
    io.dump([0, 1], str(bad))
    files = {"--map": good, "--homeo": good} | {short: bad}
    argv = ["check", "--tower", tower_file, *(a for k, v in files.items() for a in (k, str(v)))]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: map: 2 values for a source of 3 points")


# a nested array of 10,000 elements, which a refusal must not print
BIG = [list(range(100))] * 100


@pytest.mark.parametrize("place, message", [
    ("metrics[1][1][0]", "not a rational: an array"),
    ("labels[0]", "expected a string, got an array"),
    ("strict", "expected true or false, got an array"),
    ("entourages.E.pairs[0]", "expected a pair [i, j], got an array"),
    ("map[1]", "expected an integer, got an array"),
])
def test_cli_names_a_refused_array_by_its_type(capsys, monkeypatch, tmp_path, tower, place,
                                               message):
    monkeypatch.chdir(tmp_path)
    doc = io.tower_to_json(tower)
    file, argv = "t.json", ["topo", "--tower", "t.json"]
    if place == "metrics[1][1][0]":
        doc["metrics"][1][1][0] = BIG
    elif place == "labels[0]":
        doc["labels"][0] = BIG
    elif place == "strict":
        doc["strict"] = BIG
    elif place == "entourages.E.pairs[0]":
        doc["entourages"] = {"E": {"level": 2, "pairs": [BIG]}}
    else:
        io.dump([0, BIG, 2], "m.json")
        file, argv = "m.json", ["check", "--tower", "t.json", "--map", "m.json"]
    io.dump(doc, "t.json")
    assert cli.console_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {file}: {place}: {message}\n"
    assert len(captured.err.encode()) < 200


@pytest.mark.parametrize("argv, message", [
    (["limit", "--tower", "{tower}", "--seq", "{seq}", "--witness", "a", "z"],
     "--witness: unknown label 'z'"),
    (["box", "{factors}", "--depth", "4"], "--depth: depth 4 with 3 factors"),
    (["check", "--tower", "{tower}", "--map", "{ident}", "--homeo", "{swap}"],
     "--homeo: h_inv(h(b)) != b"),
    (["check", "--tower", "{tower}", "--map", "{fold}", "--homeo", "{ident}"],
     "--homeo: map is not a bijection of the top levels"),
    (["rel", "--tower", "{tower}", "--expr", "(sum E_U NOPE)"], "--expr: unknown entourage 'NOPE'"),
], ids=["limit --witness", "box --depth", "check --homeo inverse", "check --homeo bijection",
        "rel --expr"])
def test_cli_cross_argument_refusals_name_their_option(
    capsys, tmp_path, tower_file, seq_file, argv, message
):
    """A refusal that compares a document with an option, once every input
    is read, starts with that option."""
    files = {"tower": tower_file, "seq": seq_file}
    for name, doc in {"ident": [0, 1, 2], "swap": [0, 2, 1], "fold": [0, 0, 1],
                      "factors": [factor_to_json(f) for f in halving_factors()]}.items():
        files[name] = str(tmp_path / f"{name}.json")
        io.dump(doc, files[name])
    assert cli.main([a.format(**files) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"


def test_cli_box(capsys, tmp_path):
    path = tmp_path / "factors.json"
    io.dump([factor_to_json(f) for f in halving_factors()], str(path))
    code, lines = run(capsys, "box", str(path), "--depth", "3", "--check")
    assert code == 0
    assert io.tower_from_json(lines[0]).level_sizes == (2, 4, 8)
    assert lines[1]["comparison"] == "equal"
    assert cli.main(["box", str(path), "--depth", "4"]) == 2


@pytest.fixture
def discrete17_file(tmp_path):
    """A one-level tower of 17 points at distance 1: its limit topology is
    discrete, with 2**17 open sets."""
    n = 17
    file = tmp_path / "discrete.json"
    doc = {"labels": [f"p{i}" for i in range(n)], "level_sizes": [n],
           "metrics": [[[1] * i for i in range(n)]]}
    io.dump(doc, str(file))
    return str(file)


def test_cli_topo_lists_17_singleton_classes(capsys, discrete17_file):
    code, lines = run(capsys, "topo", "--tower", discrete17_file)
    assert (code, lines) == (0, [{"classes": [[f"p{i}"] for i in range(17)]}])


def test_cli_check_lists_no_open_sets(capsys, tmp_path, discrete17_file):
    ident = tmp_path / "ident.json"
    io.dump(map_to_json(tuple(range(17))), str(ident))
    base = ["check", "--tower", discrete17_file, "--map", str(ident)]
    assert run(capsys, *base) == (0, [{"continuous": True, "hypothesis": True}])
    assert run(capsys, *base, "--direct") == (0, [{"continuous": True}])
    assert run(capsys, *base, "--homeo", str(ident)) == (
        0, [{"homeomorphism": True, "transport": "equal"}]
    )
    # nor does topo, which lists the 17 classes
    assert cli.main(["topo", "--tower", discrete17_file]) == 0


def test_cli_check_on_a_tower_with_zero_classes_exits_0(capsys, tmp_path):
    """Minimal neighborhoods larger than a point pass the topology check:
    the zero-classes {p0, p1} and {p2, p3} of a valid tower."""
    file = tmp_path / "classes.json"
    doc = {"labels": ["p0", "p1", "p2", "p3"], "level_sizes": [2, 4],
           "metrics": [[[], [0]], [[], [0], [1, 1], [1, 1, 0]]]}
    io.dump(doc, str(file))
    ident = tmp_path / "ident.json"
    io.dump(map_to_json((0, 1, 2, 3)), str(ident))
    swap = tmp_path / "swap.json"
    io.dump(map_to_json((1, 0, 3, 2)), str(swap))
    base = ["check", "--tower", str(file), "--map", str(ident)]
    assert run(capsys, *base) == (0, [{"continuous": True, "hypothesis": True}])
    assert run(capsys, *base, "--direct") == (0, [{"continuous": True}])
    homeo = ["check", "--tower", str(file), "--map", str(swap), "--homeo", str(swap)]
    assert run(capsys, *homeo) == (0, [{"homeomorphism": True, "transport": "equal"}])
    assert capsys.readouterr().err == ""


def test_cli_calls_in_one_process_share_no_options(capsys, monkeypatch, tower_file, seq_file):
    monkeypatch.delenv("UNILIM_SEED", raising=False)
    code, lines = run(capsys, "verify", "--targets", "L-mod", "--seed", "1")
    assert code == 0 and lines[-1]["instance"] == "seed1"
    code, lines = run(capsys, "limit", "--tower", tower_file, "--seq", seq_file,
                      "--witness", "a", "c")
    assert code == 0 and lines[1]["chain"] == ["a", "b", "c"]
    code, lines = run(capsys, "limit", "--tower", tower_file, "--seq", seq_file)
    assert code == 0 and len(lines) == 1
    code, lines = run(capsys, "verify", "--targets", "L-mod")
    assert code == 0 and lines[-1]["instance"] == "seed0"


def test_cli_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.main(["gen", "--seed", "5", "--out", str(a)]) == 0
    assert cli.main(["gen", "--seed", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    code, lines = run(capsys, "gen", "--seed", "5")
    assert code == 0
    assert io.dumps(lines[0]) + "\n" == a.read_text()


def test_cli_gen_prints_the_first_tower_of_the_seeded_instance(capsys):
    """With the default profile, ``gen --seed S`` draws what
    ``generate_instance(S)`` draws first."""
    for seed in range(50):
        assert cli.main(["gen", "--seed", str(seed)]) == 0
        tower = generate_instance(seed).tower
        assert capsys.readouterr().out == io.dumps(io.tower_to_json(tower)) + "\n"


def test_cli_gen_env_seed(tmp_path, monkeypatch, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    monkeypatch.setenv("UNILIM_SEED", "7")
    assert cli.main(["gen", "--out", str(a)]) == 0
    assert cli.main(["gen", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [["gen"], ["verify", "--targets", "P-lc"]], ids=["gen", "verify"])
def test_cli_env_seed_not_an_int_is_input_error(argv, monkeypatch, capsys):
    monkeypatch.setenv("UNILIM_SEED", "abc")
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: UNILIM_SEED='abc' is not an int\n"


def test_cli_gen_rejects_oversized_profile(capsys):
    assert cli.main(["gen", "--seed", "0", "--max-size", "100"]) == 2


@pytest.mark.parametrize("options, message", [
    (["--levels", "0"], "levels=0, max_size=6"),
    (["--levels", "4", "--max-size", "3"], "levels=4, max_size=3"),
    (["--max-size", "13"], "top size 13 exceeds 12"),
])
def test_cli_gen_profile_refusals_name_the_options(capsys, options, message):
    assert cli.main(["gen", "--seed", "0", *options]) == 2
    assert capsys.readouterr().err == f"error: --levels and --max-size: {message}\n"


def test_cli_verify_targets(tmp_path, capsys):
    out1 = tmp_path / "r1.jsonl"
    out2 = tmp_path / "r2.jsonl"
    argv = ["verify", "--targets", "T3", "P-lc", "--seeds", "0..2"]
    assert cli.main(argv + ["--output", str(out1)]) == 0
    assert cli.main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    reports = [json.loads(l) for l in out1.read_text().splitlines()]
    assert all(r["verdict"] == "pass" for r in reports)
    assert {r["theorem"] for r in reports} == {"T3", "P-lc"}
    assert "wall_time" not in reports[0]
    err = capsys.readouterr().err
    assert "checks passed" in err


def test_cli_verify_refuses_an_unwritable_output_before_any_check(capsys, monkeypatch, tmp_path):
    def never(targets, seeds):
        raise AssertionError("the suite ran before the output was opened")

    monkeypatch.setattr("unilim.verify.verify_suite", never)
    out = tmp_path / "missing" / "reports.jsonl"
    assert cli.main(["verify", "--all", "--seeds", "0..200", "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"


def test_cli_verify_stdout_and_seed_list(capsys):
    code, lines = run(capsys, "verify", "--targets", "L-mod", "--seeds", "1,3")
    assert code == 0
    assert [r["instance"] for r in lines] == ["fixture:three-point", "seed1", "seed3"]


def test_cli_verify_runs_a_repeated_id_or_seed_once(capsys):
    assert cli.main(["verify", "--targets", "T3", "P-lc", "T3", "--seeds", "2,1,2,1"]) == 0
    captured = capsys.readouterr()
    assert [(r["theorem"], r["instance"]) for r in map(json.loads, captured.out.splitlines())] == [
        ("P-lc", "fixture:three-point"), ("P-lc", "seed2"), ("P-lc", "seed1"),
        ("T3", "fixture:three-point"), ("T3", "seed2"), ("T3", "seed1"),
    ]
    assert captured.err == "6/6 checks passed\n"


def test_cli_verify_draws_a_huge_seed_range_lazily(capsys, monkeypatch):
    """A range of 10^12 seeds is read one seed at a time: a generation error
    at the third seed exits 3 naming it, with nothing printed, where a list
    of the whole range would have run out of memory first."""
    assert cli._parse_seeds("0..1000000000000") == range(10**12)
    drawn = []

    def broken_at_2(seed):
        drawn.append(seed)
        if seed == 2:
            raise ValidationError("monotonicity fails at level 1 on pair (x1,x2)")
        return generate_instance(seed)

    monkeypatch.setattr("unilim.verify.generate_instance", broken_at_2)
    assert cli.console_main(["verify", "--all", "--seeds", "0..1000000000000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "RuntimeError: generating seed 2: ValidationError" in captured.err
    assert drawn == [0, 1, 2]


@pytest.mark.parametrize("argv", [["verify"], ["verify", "--targets"]])
def test_cli_verify_refuses_a_run_with_no_targets(capsys, argv):
    with pytest.raises(ValidationError):
        cli.cmd_verify(cli.build_parser().parse_args(argv))
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: verify needs --all or at least one theorem id after --targets\n"
    )


def test_cli_verify_rejects_empty_seed_range(capsys):
    assert cli.main(["verify", "--all", "--seeds", "5..3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "checks passed" not in captured.err and "empty" in captured.err


@pytest.mark.parametrize("spec", ["5..x", "1..2..3", "1,x"])
def test_cli_verify_names_a_malformed_seed_spec(capsys, spec):
    assert cli.main(["verify", "--all", "--seeds", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --seeds: {spec!r} is not lo..hi or a comma list of ints\n"


def test_cli_verify_refuses_empty_seeds(capsys):
    assert cli.main(["verify", "--all", "--seeds", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seeds: '' is not lo..hi or a comma list of ints\n"


def test_cli_verify_library_error_in_a_check_is_a_failure(capsys, monkeypatch):
    # a library error on a generated (valid) instance is a bug, exit 3, not
    # bad input
    def broken(*args):
        raise ValidationError("{d_1 < 1} is not contained in U_1")

    monkeypatch.setattr("unilim.verify.verify_generation", broken)
    code, lines = run(capsys, "verify", "--targets", "L-pseudo", "--seed", "0")
    assert code == 3
    assert lines == [{
        "certificate": {"error": "ValidationError: {d_1 < 1} is not contained in U_1"},
        "instance": "seed0",
        "theorem": "L-pseudo",
        "verdict": "fail",
    }]


def test_cli_verify_generation_counterexample_is_a_failure(capsys, monkeypatch):
    # verify_generation returns its first counterexample pair, which the
    # report prints; a failing report exits 3
    monkeypatch.setattr("unilim.verify.verify_generation", lambda *args: (1, 2))
    code, lines = run(capsys, "verify", "--targets", "L-pseudo", "--seed", "0")
    assert code == 3
    assert [(r["verdict"], r["certificate"]) for r in lines] == [
        ("fail", {"counterexample": [1, 2]})
    ]


def test_cli_verify_library_error_while_generating_is_a_bug(capsys, monkeypatch):
    # seeded generation builds valid instances, so a library error there is
    # a bug: it leaves main, and the process exits 3, not 2
    def broken(seed):
        raise ValidationError("monotonicity fails at level 1 on pair (x1,x2)")

    monkeypatch.setattr("unilim.verify.generate_instance", broken)
    with pytest.raises(RuntimeError, match="generating seed 4: ValidationError: monotonicity"):
        cli.main(["verify", "--targets", "T1", "--seed", "4"])
    assert cli.console_main(["verify", "--all", "--seeds", "0..3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "RuntimeError: generating seed 0: ValidationError" in captured.err


def test_cli_verify_rejects_unknown_target():
    with pytest.raises(SystemExit):
        cli.main(["verify", "--targets", "T99"])


@pytest.mark.parametrize("argv, refusal", [
    (["--targets", "T1", "--seeds", "0..2", "--seed", "9"],
     "argument --seed: not allowed with argument --seeds"),
    (["--all", "--targets", "T1", "--seeds", "0..1"],
     "argument --targets: not allowed with argument --all"),
    (["--targets", "T1", "--all", "--seed", "0"],
     "argument --all: not allowed with argument --targets"),
])
def test_cli_verify_refuses_two_options_that_would_drop_one(capsys, argv, refusal):
    """Each of the pairs runs neither, rather than the one argparse read."""
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", *argv])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"unilim verify: error: {refusal}\n")


def test_cli_missing_file_is_input_error(capsys, tmp_path):
    assert cli.main(["topo", "--tower", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("content, why", [
    # nested too deep for the parser: RecursionError
    (b"[" * 100_000,
     "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
    (b'{"labels": [}', "Expecting value: line 1 column 13 (char 12)"),
    (b'{"labels": ["\xff"]}',
     "'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"),
    # an int literal longer than int() reads: a plain ValueError
    (b'{"labels": ["a", "b"], "level_sizes": [2], "metrics": [[[], [' + b"1" * 5000 + b"]]]}",
     "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits; "
     "use sys.set_int_max_str_digits() to increase the limit"),
    # the mark is read as a character, not skipped
    (b'\xef\xbb\xbf{"labels": []}',
     "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    (b"", "Expecting value: line 1 column 1 (char 0)"),
    # the position counts from the start of the file, not of a buffer
    (b'{"labels": ["' + b"a" * 9000 + b'\xff"]}',
     "'utf-8' codec can't decode byte 0xff in position 9013: invalid start byte"),
    # line ends are read as "\n", so lines, columns and chars count one each
    (b'{\r\n"labels":\r\n [}', "Expecting value: line 3 column 3 (char 14)"),
    (b'{\r"labels":\r [}', "Expecting value: line 3 column 3 (char 14)"),
], ids=["deep", "syntax", "not-utf8", "long-int", "bom", "empty", "late-bad-byte", "crlf", "cr"])
def test_cli_malformed_json_file_is_a_named_input_error(capsys, tmp_path, content, why):
    path = tmp_path / "tower.json"
    path.write_bytes(content)
    with pytest.raises(ValidationError) as info:
        io.load(str(path))
    assert str(info.value) == f"{path}: not a JSON document: {why}"
    assert cli.main(["topo", "--tower", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: not a JSON document: {why}\n"


# -- the JSON edge on int tables ---------------------------------------------------


FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def tokenized(data, rows):
    """``rows`` of JSON values with each entry rewritten as an int, a
    reduced "p/q" or an unreduced "kp/kq", or as a spelling the reader
    leaves to ``Fraction``: padded with spaces, signed, with a leading zero
    in either part, with an underscore, in fullwidth digits, and, where the
    value has one, a finite decimal with or without an exponent."""
    def token(v):
        f = Fraction(v)
        p, q = f.numerator, f.denominator
        forms = ["plain", "reduced", "unreduced", "padded", "signed", "zero-led numerator",
                 "zero-led denominator", "underscore", "fullwidth"]
        places = next((k for k in range(6) if 10**k % q == 0), None)
        if places is not None:
            forms += ["decimal", "exponent"]
        form = data.draw(st.sampled_from(forms))
        if form == "plain":
            return int(f) if q == 1 else f"{p}/{q}"
        if form in ("reduced", "unreduced"):
            k = 1 if form == "reduced" else data.draw(st.integers(2, 12))
            return f"{p * k}/{q * k}"
        if form in ("decimal", "exponent"):
            digits = str(p * 10**places // q)
            if form == "exponent":
                return f"{digits}e-{places}"
            digits = digits.rjust(places + 1, "0")
            return f"{digits[:len(digits) - places]}.{digits[len(digits) - places:]}"
        return {
            "padded": f" {p}/{q} ",
            "signed": f"+{p}/{q}",
            "zero-led numerator": f"0{p}/{q}",
            "zero-led denominator": f"{p}/0{q}",
            "underscore": f"{p}0_0/{q}00",
            "fullwidth": f"{p}/{q}".translate(FULLWIDTH),
        }[form]

    return [[token(v) for v in row] for row in rows]


@pytest.mark.parametrize("spelling, value", [
    (" 3/4 ", Fraction(3, 4)),
    ("+3/4", Fraction(3, 4)),
    ("0.75", Fraction(3, 4)),
    ("75e-2", Fraction(3, 4)),
    ("03/4", Fraction(3, 4)),
    ("3/04", Fraction(3, 4)),
    ("1_0/4", Fraction(5, 2)),
    ("３/4", Fraction(3, 4)),
    ("1e4000", Fraction(10**4000)),  # an exponent within the digit limit
    ("1E-4_000", Fraction(1, 10**4000)),
])
def test_json_reader_reads_every_spelling_fraction_reads(spelling, value):
    rows = [[], [spelling], [1, spelling]]
    got = metric_from_json(rows)
    assert got(1, 0) == got(2, 1) == value
    assert same_table(got, fraction_metric_from_json(rows))


LONG_DIGITS = "1" * 5000


def shown(s):
    """A refused string as a message shows it: whole up to 64 characters,
    else its first 64 and its length."""
    return repr(s) if len(s) <= 64 else f"{s[:64]!r}... ({len(s)} characters)"


@pytest.mark.parametrize("bad", [
    "²/4",  # str.isdigit accepts "²", int and Fraction do not
    "3/-4",
    "/4",
    "1/0",
    LONG_DIGITS,
    f"{LONG_DIGITS}/4",  # more digits than int() reads
    f"4/{LONG_DIGITS}",
], ids=["superscript", "signed-denominator", "no-numerator", "zero-denominator",
        "long-int", "long-numerator", "long-denominator"])
def test_json_reader_rejects_what_fraction_rejects_with_the_same_message(bad):
    doc = {"labels": ["a", "b"], "level_sizes": [2], "metrics": [[[], [bad]]]}
    with pytest.raises(ValidationError) as got:
        io.tower_from_json(doc)
    assert str(got.value) == f"metrics[0][1][0]: not a rational: {shown(bad)}"


def test_cli_long_rational_string_is_an_input_error(capsys, tmp_path):
    bad = f"{LONG_DIGITS}/4"
    path = tmp_path / "tower.json"
    io.dump({"labels": ["a", "b"], "level_sizes": [2], "metrics": [[[], [bad]]]}, str(path))
    assert cli.console_main(["topo", "--tower", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: metrics[0][1][0]: not a rational: {shown(bad)}\n"


@pytest.mark.parametrize("path, doc", [
    ("metrics[2][2][0]", {"labels": ["a", "b", "c"], "level_sizes": [1, 2, 3],
                          "metrics": [[[]], [[], [1]], [[], [1], ["9" * 100_000, 1]]]}),
    ("strict", {"labels": ["a"], "level_sizes": [1], "metrics": [[[]]], "strict": "t" * 50_000}),
], ids=["long-entry", "long-strict"])
def test_cli_long_refused_string_is_shown_cut(capsys, tmp_path, path, doc):
    """A refused string is shown by its head and its length, so a huge
    value does not come back whole on stderr."""
    file = tmp_path / "tower.json"
    io.dump(doc, str(file))
    assert cli.console_main(["topo", "--tower", str(file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {file}: {path}: ")
    assert len(captured.err.encode()) < 300


def _command_reading(tmp_path, kind, rows, tower_rows):
    """The argv of a command that reads ``rows`` as the table of a tower,
    sequence or factor document, the file that holds the table, and the
    path it names that table by.  A sequence is read on a tower of
    ``tower_rows``."""
    n = len(rows)
    tower = tmp_path / "tower.json"
    io.dump({"labels": [f"x{i}" for i in range(n)], "level_sizes": [n],
             "metrics": [rows if kind == "tower" else tower_rows]}, str(tower))
    other = tmp_path / "other.json"
    if kind == "factors":
        io.dump([{"metric": rows}], str(other))
        return ["box", str(other), "--depth", "1"], other, "factors[0].metric"
    if kind == "sequence":
        io.dump({"metrics": [rows]}, str(other))
        return ["limit", "--tower", str(tower), "--seq", str(other)], other, "metrics[0]"
    return ["topo", "--tower", str(tower)], tower, "metrics[0]"


@pytest.mark.parametrize("kind", ["tower", "sequence", "factors"])
@pytest.mark.parametrize("flag, value", [(True, 1), (False, 0)], ids=["true", "false"])
def test_cli_json_boolean_next_to_its_int_is_an_input_error(capsys, tmp_path, kind, flag, value):
    """JSON true and false hash like 1 and 0, so a table that holds both
    must still be refused at the boolean, not read as the int."""
    argv, file, path = _command_reading(
        tmp_path, kind, [[], [value], [flag, value]], [[], [value], [value, value]]
    )
    assert cli.console_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {file}: {path}[2][0]: not a rational: {flag!r}\n"


EXPONENT_LIMIT = getattr(sys, "get_int_max_str_digits", int)() or 4300


# the just-past cases come first: with the guard gone they exit 0 at once,
# ahead of the slow one
@pytest.mark.parametrize("bad", [
    f"1e{EXPONENT_LIMIT + 1}", f"1E-{EXPONENT_LIMIT + 1}", "1e1000000",
], ids=["past-limit", "negative-past-limit", "million"])
def test_cli_exponent_past_the_digit_limit_is_an_input_error(capsys, tmp_path, bad):
    """``Fraction`` reads "1e<exp>" by computing 10**exp; the reader refuses
    an exponent past the digit limit of int literals before that, so a
    tower of such entries is refused at once rather than after seconds of
    big-int arithmetic."""
    path = tmp_path / "tower.json"
    rows = [[], [bad], [bad, bad]]
    io.dump({"labels": ["a", "b", "c"], "level_sizes": [3], "metrics": [rows]}, str(path))
    start = time.perf_counter()
    assert cli.console_main(["topo", "--tower", str(path)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: metrics[0][1][0]: not a rational: {bad!r}\n"


@pytest.mark.parametrize("kind", ["tower", "sequence", "factors"])
def test_cli_common_denominator_past_the_digit_limit_is_an_input_error(capsys, tmp_path, kind):
    """A table whose entries' lcm has more digits than the int digit limit
    is refused, naming the table, before its big-int table is built."""
    argv, file, path = _command_reading(
        tmp_path, kind, big_denominator_rows(8), [[1] * i for i in range(8)]
    )
    start = time.perf_counter()
    assert cli.console_main(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {file}: {path}: common denominator has more than {EXPONENT_LIMIT} digits\n"
    )


def test_common_denominator_of_exactly_the_digit_limit_is_read():
    """lcm(2**k, 5**k) = 10**k has k + 1 digits: read at k = limit - 1,
    refused at k = limit."""
    def doc(k):
        rows = [[], [f"1/{2**k}"], [f"1/{5**k}", f"1/{2**k}"]]
        return {"labels": ["a", "b", "c"], "level_sizes": [3], "metrics": [rows]}

    assert io.tower_from_json(doc(EXPONENT_LIMIT - 1)).metric(0).den == 10 ** (EXPONENT_LIMIT - 1)
    with pytest.raises(ValidationError, match=r"^metrics\[0\]: common denominator has more"):
        io.tower_from_json(doc(EXPONENT_LIMIT))


@settings(max_examples=100, deadline=None)
@given(mixed_towers(), st.booleans(), st.data())
def test_json_reader_matches_the_fraction_reference(case, bare, data):
    tower, pieces = case
    metrics = [tokenized(data, rows) for rows in io.tower_to_json(tower)["metrics"]]
    back = io.tower_from_json(io.tower_to_json(tower) | {"metrics": metrics})
    assert back == tower
    for n, rows in enumerate(metrics):
        assert same_table(back.metric(n), fraction_metric_from_json(rows))
    seq = [tokenized(data, io.metric_to_json(p)) for p in pieces]
    for got, rows in zip(io.sequence_metrics_from_json(seq if bare else {"metrics": seq}), seq):
        assert same_table(got, fraction_metric_from_json(rows))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(MIXED_POOL + (Fraction(0), Fraction(3), Fraction(7, 999983))),
                min_size=0, max_size=28), st.integers(1, 8))
def test_json_writers_match_per_entry_values(values, n):
    m = [[Fraction(0)] * n for _ in range(n)]
    pool = iter(values)
    for i in range(n):
        for j in range(i):
            m[i][j] = m[j][i] = next(pool, Fraction(1, 2))
    lower = [[io.rational_to_json(m[i][j]) for j in range(i)] for i in range(n)]
    square = [[io.rational_to_json(v) for v in row] for row in m]
    d = Pseudometric(m)
    # the same table built from ints, whose Fractions are made on demand
    for got in (d, Pseudometric._from_numer(2 * d.den, [[2 * v for v in r] for r in d.numer])):
        assert io.dumps(io.metric_to_json(got)) == io.dumps(lower)
        assert io.dumps(io.matrix_to_json(got)) == io.dumps(square)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_limit_matrix_matches_per_entry_values(seed):
    seq = generate_instance(seed).seq
    lim = limitmetric.limit_pseudometric(seq)
    n = seq.tower.ground_size
    per_entry = [[io.rational_to_json(lim(i, j)) for j in range(n)] for i in range(n)]
    assert io.dumps(io.matrix_to_json(lim)) == io.dumps(per_entry)
