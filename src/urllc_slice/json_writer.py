"""Output text: every JSON file goes through ``_json_indented`` (exactly
``json.dumps(obj, indent=2, sort_keys=True)``, without its pure-Python
encoder), every CSV file through ``_csv``, and dataclasses through ``_fields_dict``."""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import fields
from json.encoder import encode_basestring_ascii

import numpy as np

_encode_flat = json.JSONEncoder(sort_keys=True).encode
_NUMBER_TYPES = {int, float}
# Distinct (float list, indentation) pairs whose text is kept; a trace repeats
# a slot's weights in its second entry and user_bandwidth across slots.
_FLOAT_LIST_CACHE_SIZE = 64


def _float_json(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


# What json writes for a scalar of exactly these types; any other type goes
# through the flat encoder, which also raises json's errors.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_json,
    bool: ("false", "true").__getitem__,
    type(None): lambda x: "null",
}


@functools.lru_cache(maxsize=_FLOAT_LIST_CACHE_SIZE)
def _float_list_text(packed: bytes, separator: str) -> str:
    floats = struct.unpack(f"{len(packed) // 8}d", packed)
    return _encode_flat(floats)[1:-1].replace(", ", separator)


def _json_indented(obj, newline: str = "\n") -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)`` for acyclic data.

    ``indent`` switches ``json`` to its pure-Python encoder, which is slow on
    the long float lists of a trace. Here the dict and list layout is built in
    Python, and scalars are written by type as json writes them. A list of
    plain ints and floats goes through the C encoder of a flat
    ``JSONEncoder`` in one call; a number never contains ``", "``, so
    replacing it in the flat encoding lays the items out. Lists of floats
    alone are memoized on their exact bits (``-0.0`` and ``0.0`` differ,
    ``1`` and ``1.0`` never share a key). ``newline`` is the line break plus
    the indentation of the current depth. Dicts with non-string keys fall
    back to ``json.dumps``, re-indented (encoded strings hold no raw line
    breaks).
    """
    scalar = _SCALAR_TEXT.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = newline + "  "
    if isinstance(obj, dict) and obj:
        if not all(isinstance(k, str) for k in obj):
            return json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline)
        # scalar values are written here rather than through a call each
        body = ("," + inner).join(
            [
                encode_basestring_ascii(k)
                + ": "
                + (_SCALAR_TEXT[type(v)](v) if type(v) in _SCALAR_TEXT else _json_indented(v, inner))
                for k, v in sorted(obj.items())
            ]
        )
        return "{" + inner + body + newline + "}"
    if isinstance(obj, (list, tuple)) and obj:
        types = set(map(type, obj))
        if types == {float}:
            body = _float_list_text(struct.pack(f"{len(obj)}d", *obj), "," + inner)
        elif types <= _NUMBER_TYPES:
            body = _encode_flat(obj)[1:-1].replace(", ", "," + inner)
        else:
            body = ("," + inner).join([_json_indented(x, inner) for x in obj])
        return "[" + inner + body + newline + "]"
    return _encode_flat(obj)


def _fields_dict(obj) -> dict:
    """Dataclass fields as built-in values: NumPy arrays and scalars via ``tolist``."""
    out = {f.name: getattr(obj, f.name) for f in fields(obj)}
    return {k: v.tolist() if isinstance(v, (np.ndarray, np.generic)) else v for k, v in out.items()}


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv(header: list[str], rows) -> str:
    """CSV text: float cells through ``_fmt``, every other cell through ``str``."""
    lines = [",".join(header)]
    lines += [",".join([_fmt(c) if isinstance(c, float) else str(c) for c in row]) for row in rows]
    return "\n".join(lines) + "\n"
