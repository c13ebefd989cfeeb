"""The traced benchmark run wraps library functions by name; a rename in
``unilim`` must fail here rather than break that run."""

import importlib
import types
from pathlib import Path

import unilim.verify

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    # executed from its source text, so nothing is written next to it
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves_on_unilim():
    wrapped = _spans_module().WRAPPED
    assert wrapped
    for module, qualname, *_ in wrapped:
        obj = importlib.import_module(f"unilim.{module}")
        for part in qualname.split("."):
            assert hasattr(obj, part), f"unilim.{module}.{qualname} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"unilim.{module}.{qualname} is not callable"


def test_traced_theorem_ids_match_verify():
    # the traced run names one span per theorem id from its own tuple; a
    # drifted id would drop that span without an error
    assert _spans_module().THEOREM_IDS == unilim.verify.THEOREM_IDS
