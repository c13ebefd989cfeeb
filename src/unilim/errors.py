"""Exception types shared across the library.

Every refusal of an input is a ``ValidationError`` whose message names
its first offending witness, so that a failing instance can be repaired
by hand; a long value in it is shown cut (``_shown``).
"""

from __future__ import annotations

from typing import Any


class UnilimError(Exception):
    """Base class for all library errors."""


class ValidationError(UnilimError):
    """An input value violates a structural invariant."""


class CertificateFailure(Exception):
    """A derived table is not what its construction certifies: an
    implementation bug, never bad input, so not a ``UnilimError`` and the
    CLI exits 3 on it."""


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def _json_type(value: Any) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


# the most characters of a refused string a message echoes
_SHOWN_CHARS = 64


def _shown(value: Any) -> str:
    """A refused value as a message shows it: an array or an object by its
    JSON type, not echoed, as it may be a whole document, and a string past
    ``_SHOWN_CHARS`` characters by its head and its length."""
    if isinstance(value, (list, dict)):
        return _json_type(value)
    if isinstance(value, str) and len(value) > _SHOWN_CHARS:
        return f"{value[:_SHOWN_CHARS]!r}... ({len(value)} characters)"
    return repr(value)


# the most characters of a file or option name a refusal's prefix prints
# whole: every ordinary path, so that two files of one directory stay told
# apart, and still one line of under 512 bytes
_PLACE_CHARS = 255


def _place(name: str) -> str:
    """A file or an option as a refusal's prefix names it: as given, or
    through ``_shown`` past ``_PLACE_CHARS`` characters."""
    return name if len(name) <= _PLACE_CHARS else _shown(name)
