"""JSON wire formats for towers, maps, group towers, and box factors.

Distances travel as exact rationals: an int, or a "p/q" string.  Dumps
are deterministic (sorted keys, fixed separators) so identical objects
serialize byte-identically.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
from fractions import Fraction
from typing import Any

from .constructions import GroupTower, PointedSpace
from .core import Entourage, Pseudometric, Tower
from .errors import ValidationError, _json_type, _place, _shown


def rational_to_json(v: Fraction) -> Any:
    if not isinstance(v, Fraction):
        v = Fraction(v)
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _digit_limit() -> int:
    """The most digits int() reads from a string, 4300 where none is set."""
    return getattr(sys, "get_int_max_str_digits", int)() or 4300

# the exponent of an "...e<exp>" spelling, which Fraction multiplies out
# as 10**exp
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")


def rational_from_json(v: Any) -> Fraction:
    """An int, or a string as ``Fraction`` reads it, except that an
    exponent whose absolute value exceeds the digit limit of int literals
    (4300 where the interpreter sets none) is refused: its 10**exp alone
    would take seconds."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValidationError(f"not a rational: {_shown(v)}")
    try:
        exp = _EXPONENT.search(v) if isinstance(v, str) else None
        if exp and abs(int(exp[1])) > _digit_limit():
            raise ValueError("exponent past the digit limit")
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as e:
        raise ValidationError(f"not a rational: {_shown(v)}") from e


def _pair_from_json(v: Any) -> tuple[int, int]:
    """A JSON value as an exact (numerator, denominator) int pair, not
    necessarily reduced.  A JSON int is taken as is, and "p/q" in ASCII
    digits with q nonzero is split at the slash; every other spelling goes
    through ``rational_from_json``, which accepts and rejects as
    ``Fraction`` does, bar an exponent past the digit limit."""
    if type(v) is int:
        return v, 1
    if type(v) is str and v.isascii():
        p, _, q = v.partition("/")
        limit = _digit_limit()
        if p.isdigit() and q.isdigit() and len(p) <= limit and len(q) <= limit:
            q = int(q)
            if q:
                return int(p), q
    f = rational_from_json(v)
    return f.numerator, f.denominator


def _array(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{path}: expected a JSON array, got {_json_type(value)}")
    return value


def _object(value: Any, path: str, *keys: str) -> dict:
    """``value`` as a JSON object holding ``keys``; ``path`` is "" at the root."""
    if not isinstance(value, dict):
        got = _json_type(value)
        raise ValidationError(f"{path}: " * bool(path) + f"expected a JSON object, got {got}")
    for key in keys:
        if key not in value:
            raise ValidationError(f"{path}.{key}: missing" if path else f"{key}: missing")
    return value


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer, got {_shown(value)}")
    return value


def _index(value: Any, path: str, size: int) -> int:
    """An integer in 0..size-1: an element of a ground set of ``size``."""
    if not 0 <= _integer(value, path) < size:
        raise ValidationError(f"{path}: {value} is not an element index below {size}")
    return value


def _json_values(d: Pseudometric) -> dict[int, Any]:
    """Each distinct numerator of ``d``'s table, as its value over ``d.den``
    in JSON, reduced by one gcd: an int, or "p/q"."""
    den = d.den
    out: dict[int, Any] = {}
    for v in set().union(*d.numer):
        g = math.gcd(v, den)
        out[v] = v // g if g == den else f"{v // g}/{den // g}"
    return out


def metric_to_json(d: Pseudometric) -> list[list[Any]]:
    """Lower-triangular rows, row i listing d(i,0) .. d(i,i-1)."""
    as_json = _json_values(d).__getitem__
    return [list(map(as_json, row[:i])) for i, row in enumerate(d.numer)]


def matrix_to_json(d: Pseudometric) -> list[list[Any]]:
    """The full square table, row i listing d(i,0) .. d(i,n-1)."""
    as_json = _json_values(d).__getitem__
    return [list(map(as_json, row)) for row in d.numer]


_LIST = frozenset((list,))
_INT_OR_STR = frozenset((int, str))


def _name_bad_entry(table: list, path: str) -> None:
    """Raise for the first row of ``table`` that is not an array or entry
    that is not a rational, in row-major order, naming its path."""
    for i, row in enumerate(table):
        for j, v in enumerate(_array(row, f"{path}[{i}]")):
            try:
                _pair_from_json(v)
            except ValidationError as e:
                raise ValidationError(f"{path}[{i}][{j}]: {e}") from None


def _metric_from_json(rows: Any, path: str) -> Pseudometric:
    """Lower-triangular rows to a pseudometric (not yet validated); a
    malformed document names its first offending path.  Each distinct entry
    of the table is read once as an int pair, and the table is filled in by
    ``Pseudometric._from_lower`` as int numerators over the lcm of the
    pairs' denominators.  An lcm with more digits than the int digit limit
    (4300 where the interpreter sets none) is refused before the table is
    built: coprime denominators multiply."""
    table = _array(rows, path)
    # JSON true is not the int 1, though it hashes like it, so the types
    # are checked before the distinct entries are taken
    if not (
        _LIST.issuperset(map(type, table))
        and _INT_OR_STR.issuperset(map(type, itertools.chain.from_iterable(table)))
    ):
        _name_bad_entry(table, path)
    try:
        pairs = {v: _pair_from_json(v) for v in set().union(*table)}
    except ValidationError:
        _name_bad_entry(table, path)
    for i, row in enumerate(table):
        if len(row) != i:
            raise ValidationError(f"{path}: lower-triangular row {i} has length {len(row)}")
    den = math.lcm(*(q for _, q in pairs.values()))
    # a den of at most 3 * limit bits is below 8**limit: no power of ten needed
    limit = _digit_limit()
    if den.bit_length() > 3 * limit and den >= 10**limit:
        raise ValidationError(f"{path}: common denominator has more than {limit} digits")
    numer_of = {v: p * (den // q) for v, (p, q) in pairs.items()}
    return Pseudometric._from_lower(den, table, numer_of)


def tower_to_json(t: Tower) -> dict:
    doc: dict[str, Any] = {
        "labels": list(t.labels),
        "level_sizes": list(t.level_sizes),
        "metrics": [metric_to_json(d) for d in t.level_metrics],
    }
    if t.strict:
        doc["strict"] = True
    return doc


def tower_from_json(doc: dict) -> Tower:
    _object(doc, "", "labels", "level_sizes", "metrics")
    labels = _array(doc["labels"], "labels")
    for k, label in enumerate(labels):
        if not isinstance(label, str):
            raise ValidationError(f"labels[{k}]: expected a string, got {_shown(label)}")
    strict = doc.get("strict", False)
    if not isinstance(strict, bool):
        raise ValidationError(f"strict: expected true or false, got {_shown(strict)}")
    sizes = _array(doc["level_sizes"], "level_sizes")
    metrics = _array(doc["metrics"], "metrics")
    return Tower(
        labels,
        [_integer(m, f"level_sizes[{n}]") for n, m in enumerate(sizes)],
        [_metric_from_json(rows, f"metrics[{n}]") for n, rows in enumerate(metrics)],
        strict=strict,
    )


def named_entourages_from_json(doc: dict, tower: Tower) -> dict[str, Entourage]:
    out = {}
    for name, spec in _object(doc.get("entourages", {}), "entourages").items():
        path = f"entourages.{name}"
        level = _integer(_object(spec, path, "level", "pairs")["level"], f"{path}.level")
        if not 0 <= level < tower.num_levels:
            raise ValidationError(f"{path}.level: {level} is not a level of the tower")
        size = tower.level_sizes[level]
        pairs = set()
        for k, pair in enumerate(_array(spec["pairs"], f"{path}.pairs")):
            if not isinstance(pair, list) or len(pair) != 2:
                got = _shown(pair)
                raise ValidationError(f"{path}.pairs[{k}]: expected a pair [i, j], got {got}")
            pairs.add(tuple(_index(v, f"{path}.pairs[{k}][{c}]", size) for c, v in enumerate(pair)))
        try:
            out[name] = Entourage(level, size, pairs)
        except ValidationError as e:
            raise ValidationError(f"{path}: {e}") from None
    return out


def sequence_metrics_from_json(doc: Any) -> list[Pseudometric]:
    """The per-level metrics of a sequence document, ``{"metrics": [...]}``
    or a bare array of metrics."""
    if isinstance(doc, dict):
        doc = _object(doc, "", "metrics")["metrics"]
    metrics = _array(doc, "metrics")
    return [_metric_from_json(rows, f"metrics[{n}]") for n, rows in enumerate(metrics)]


def map_from_json(doc, source: int, target: int) -> tuple[int, ...]:
    """A map document: one target index per point of a source of
    ``source`` points, each below ``target``."""
    values = tuple(_index(v, f"map[{k}]", target) for k, v in enumerate(_array(doc, "map")))
    if len(values) != source:
        raise ValidationError(f"map: {len(values)} values for a source of {source} points")
    return values


def group_from_json(doc: dict) -> GroupTower:
    """A group tower document: a tower document plus the operation table
    ``op`` and the inverse table ``neg``, whose entries are element
    indices of the top level."""
    tower = tower_from_json(_object(doc, "", "op", "neg"))
    n = tower.ground_size
    op = tuple(
        tuple(_index(v, f"op[{i}][{j}]", n) for j, v in enumerate(_array(row, f"op[{i}]")))
        for i, row in enumerate(_array(doc["op"], "op"))
    )
    neg = tuple(_index(v, f"neg[{i}]", n) for i, v in enumerate(_array(doc["neg"], "neg")))
    return GroupTower(tower, op, neg)


def _factor_from_json(doc: Any, path: str) -> PointedSpace:
    metric = _metric_from_json(_object(doc, path, "metric")["metric"], f"{path}.metric")
    basepoint = _integer(doc.get("basepoint", 0), f"{path}.basepoint")
    try:
        return PointedSpace(metric, basepoint)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


def factors_from_json(doc) -> list[PointedSpace]:
    return [_factor_from_json(d, f"factors[{k}]") for k, d in enumerate(_array(doc, "factors"))]


# the encoder json.dumps(obj, sort_keys=True, separators=(",", ":")) builds
# per call, built once; what unilim dumps holds no cycle, so it keeps no
# table of the containers it is inside
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def dumps(obj: Any) -> str:
    return _ENCODER.encode(obj)


def dump(obj: Any, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def load(path: str) -> Any:
    """The JSON document in the file at ``path``.  A file that is not one
    (bad syntax, bytes that are not UTF-8, an int literal longer than
    ``int`` reads, nesting too deep to parse) is a ``ValidationError``
    naming the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # decoded whole, so a bad byte is named by its offset in the file
        text = data.decode("utf-8")
        # line ends as a text-mode read gives them, so that a syntax error
        # names the same line, column and char
        return json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    # JSONDecodeError and UnicodeDecodeError are ValueErrors, and so is
    # an int literal past sys.get_int_max_str_digits()
    except (ValueError, RecursionError) as e:
        raise ValidationError(f"{_place(path)}: not a JSON document: {e}") from None
