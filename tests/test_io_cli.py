import json
import re
from fractions import Fraction

import pytest

from unilim import cli, io, limitmetric
from unilim.core import Pseudometric, Tower
from unilim.errors import PreconditionFailed, ValidationError
from unilim.fixtures import (
    binary_group_tower,
    glued_map,
    halving_factors,
    identity_map,
    rescaled_homeo,
    three_point_sequence,
    three_point_tower,
)
from unilim.relations import compose


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
    assert io.metric_from_json(rows).dist == d.dist


def test_tower_round_trip(tower, e_u, e_v):
    doc = io.tower_to_json(tower, {"E_U": e_u, "E_V": e_v})
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
    ],
)
def test_malformed_tower_documents_name_the_offending_path(tmp_path, capsys, patch, path):
    doc = GOOD_TOWER | patch
    with pytest.raises(ValidationError, match=f"^{re.escape(path)}: "):
        io.named_entourages_from_json(doc, io.tower_from_json(doc))
    file = tmp_path / "tower.json"
    io.dump(doc, str(file))
    assert cli.main(["topo", "--tower", str(file)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize(
    "seq, path",
    [
        ({"metrics": 5}, "metrics"),
        ({"levels": []}, "sequence document missing 'metrics'"),
        ([[[]], [[], 5]], "metrics[1][1]"),
        ({"metrics": [[[]], [[], [1]], [3]]}, "metrics[2][0]"),
    ],
)
def test_malformed_sequence_documents_are_input_errors(tmp_path, capsys, tower_file, seq, path):
    file = tmp_path / "seq.json"
    io.dump(seq, str(file))
    assert cli.main(["limit", "--tower", tower_file, "--seq", str(file)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}")


def test_map_round_trip():
    assert io.map_from_json(io.map_to_json((0, 2, 1))) == (0, 2, 1)
    with pytest.raises(ValidationError):
        io.map_from_json({"0": 1})


def test_group_round_trip(group):
    back = io.group_from_json(io.group_to_json(group))
    assert back.op == group.op
    assert back.neg == group.neg
    assert back.tower.level_sizes == group.tower.level_sizes


def test_group_json_requires_tables(group):
    doc = io.group_to_json(group)
    del doc["op"]
    with pytest.raises(ValidationError):
        io.group_from_json(doc)


def test_factors_round_trip(factors):
    back = io.factors_from_json([io.factor_to_json(f) for f in factors])
    assert [f.metric.dist for f in back] == [f.metric.dist for f in factors]
    with pytest.raises(ValidationError):
        io.factors_from_json({"metric": [[]]})
    with pytest.raises(ValidationError):
        io.factor_from_json({"basepoint": 0})


def test_dumps_is_deterministic():
    a = io.dumps(io.tower_to_json(three_point_tower()))
    b = io.dumps(io.tower_to_json(three_point_tower()))
    assert a == b
    assert '": ' not in a  # compact separators


# -- CLI ------------------------------------------------------------------------


@pytest.fixture
def tower_file(tmp_path, tower, e_u, e_v):
    path = tmp_path / "tower.json"
    io.dump(io.tower_to_json(tower, {"E_U": e_u, "E_V": e_v}), str(path))
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
        ("(ball a", "unexpected end of expression"),
    ],
)
def test_cli_rel_names_expression_errors(capsys, tower_file, expr, message):
    assert cli.main(["rel", "--tower", tower_file, "--expr", expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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
    assert code == 0
    opens = lines[0]["opens"]
    # genuine metrics make the limit topology discrete: all 8 subsets
    assert len(opens) == 8
    code, lines = run(capsys, "topo", "--tower", tower_file, "--compare", "tlim")
    assert code == 0
    assert lines[1]["comparison"] == "equal"


def _write_map(tmp_path, name, f):
    src = tmp_path / f"{name}-src.json"
    tgt = tmp_path / f"{name}-tgt.json"
    val = tmp_path / f"{name}-map.json"
    io.dump(io.tower_to_json(f.source), str(src))
    io.dump(io.tower_to_json(f.target), str(tgt))
    io.dump(io.map_to_json(f.values), str(val))
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
    h, h_inv = rescaled_homeo()
    src, tgt, val = _write_map(tmp_path, "fwd", h)
    inv = tmp_path / "inv-map.json"
    io.dump(io.map_to_json(h_inv.values), str(inv))
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
    io.dump(io.group_to_json(binary_group_tower()), str(path))
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


GOOD_GROUP = io.group_to_json(binary_group_tower())


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
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_cli_check_rejects_malformed_map(capsys, tmp_path, tower_file):
    file = tmp_path / "map.json"
    io.dump([[0], 1], str(file))
    assert cli.main(["check", "--tower", tower_file, "--map", str(file)]) == 2
    assert capsys.readouterr().err.startswith("error: map[0]: ")


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
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_cli_box(capsys, tmp_path):
    path = tmp_path / "factors.json"
    io.dump([io.factor_to_json(f) for f in halving_factors()], str(path))
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


def test_cli_topo_with_too_many_opens_is_an_input_error(capsys, discrete17_file):
    assert cli.main(["topo", "--tower", discrete17_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: more than 65536 open sets\n"


def test_cli_check_lists_no_open_sets(capsys, tmp_path, discrete17_file):
    ident = tmp_path / "ident.json"
    io.dump(io.map_to_json(tuple(range(17))), str(ident))
    base = ["check", "--tower", discrete17_file, "--map", str(ident)]
    assert run(capsys, *base) == (0, [{"continuous": True, "hypothesis": True}])
    assert run(capsys, *base, "--direct") == (0, [{"continuous": True}])
    assert run(capsys, *base, "--homeo", str(ident)) == (
        0, [{"homeomorphism": True, "transport": "equal"}]
    )
    # the topology itself is still too large to list
    assert cli.main(["topo", "--tower", discrete17_file]) == 2


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


def test_cli_gen_env_seed(tmp_path, monkeypatch, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    monkeypatch.setenv("UNILIM_SEED", "7")
    assert cli.main(["gen", "--out", str(a)]) == 0
    assert cli.main(["gen", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_gen_rejects_oversized_profile(capsys):
    assert cli.main(["gen", "--seed", "0", "--max-size", "100"]) == 2


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


def test_cli_verify_stdout_and_seed_list(capsys):
    code, lines = run(capsys, "verify", "--targets", "L-mod", "--seeds", "1,3")
    assert code == 0
    assert [r["instance"] for r in lines] == ["fixture:three-point", "seed1", "seed3"]


def test_cli_verify_no_targets_is_trivially_true(capsys):
    code, lines = run(capsys, "verify", "--targets")
    assert code == 0 and lines == []


def test_cli_verify_rejects_empty_seed_range(capsys):
    assert cli.main(["verify", "--all", "--seeds", "5..3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "checks passed" not in captured.err and "empty" in captured.err


def test_cli_verify_library_error_in_a_check_is_a_failure(capsys, monkeypatch):
    # a library error on a generated (valid) instance is a bug, exit 3, not
    # bad input
    def broken(*args):
        raise PreconditionFailed("{d_1 < 1} is not contained in U_1")

    monkeypatch.setattr("unilim.verify.verify_generation", broken)
    code, lines = run(capsys, "verify", "--targets", "L-pseudo", "--seed", "0")
    assert code == 3
    assert lines == [{
        "certificate": {"error": "PreconditionFailed: {d_1 < 1} is not contained in U_1"},
        "instance": "seed0",
        "theorem": "L-pseudo",
        "verdict": "fail",
    }]


def test_cli_verify_rejects_unknown_target():
    with pytest.raises(SystemExit):
        cli.main(["verify", "--targets", "T99"])


def test_cli_missing_file_is_input_error(capsys, tmp_path):
    assert cli.main(["topo", "--tower", str(tmp_path / "nope.json")]) == 2
