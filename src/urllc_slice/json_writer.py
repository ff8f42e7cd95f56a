"""Output text: every JSON file goes through ``_json_indented`` (exactly
``json.dumps(obj, indent=2, sort_keys=True)``, without its pure-Python
encoder) or, for a trace, ``_trace_json``, every CSV file through ``_csv``,
and dataclasses through ``_fields_dict``."""

from __future__ import annotations

import json
import math
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from operator import is_

import numpy as np

_encode_flat = json.JSONEncoder(sort_keys=True).encode
_NUMBER_TYPES = {int, float}


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


def _json_indented(obj, newline: str = "\n") -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)`` for acyclic data.

    ``indent`` switches ``json`` to its pure-Python encoder, which is slow on
    the long float lists of a trace. Here the dict and list layout is built in
    Python, and scalars are written by type as json writes them. A list of
    plain ints and floats goes through the C encoder of a flat
    ``JSONEncoder`` in one call; a number never contains ``", "``, so
    replacing it in the flat encoding lays the items out. ``newline`` is the
    line break plus the indentation of the current depth. Dicts with
    non-string keys fall back to ``json.dumps``, re-indented (encoded strings
    hold no raw line breaks).
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
        if set(map(type, obj)) <= _NUMBER_TYPES:
            body = _encode_flat(obj)[1:-1].replace(", ", "," + inner)
        else:
            body = ("," + inner).join([_json_indented(x, inner) for x in obj])
        return "[" + inner + body + newline + "]"
    return _encode_flat(obj)


# One slot of a trace: ``{"slot": ..., **AlternationTrace.to_dict()}`` with two
# entries, as ``_json_indented`` writes it inside the trace's list, with a
# ``%s`` hole for each value in key order. A list's text is laid out from the
# depth of the entry's keys, ``_ENTRY_NEWLINE``.
_ENTRY_KEYS = {
    "fractional_objective", "iteration", "placement_feasible", "rounded_objective", "user_bandwidth", "weights"
}
_SLOT_KEYS = {"converged", "iterations", "reason", "slot"}
_ENTRY_NEWLINE = "\n        "
_SLOT_TEMPLATE = _json_indented(
    {**dict.fromkeys(_SLOT_KEYS, "\0"), "iterations": [dict.fromkeys(_ENTRY_KEYS, "\0")] * 2}, "\n  "
).replace('"\\u0000"', "%s")


class _ListText:
    """The text of a list at the entries' depth. A list holding the very same
    objects as the last list written has the same text, whatever their types
    or signs, so it reuses that text."""

    def __init__(self):
        self.items, self.text = (), "[]"  # the text of an empty list

    def __call__(self, values) -> str:
        if type(values) is not list:
            return _json_indented(values, _ENTRY_NEWLINE)
        if len(values) != len(self.items) or not all(map(is_, values, self.items)):
            self.items, self.text = tuple(values), _json_indented(values, _ENTRY_NEWLINE)
        return self.text


def _scalar_text(x) -> str:
    """What json writes for a scalar of a type ``_SCALAR_TEXT`` names; a
    KeyError for any other value."""
    return _SCALAR_TEXT[type(x)](x)


def _slot_text(slot, weights: _ListText, bandwidth: _ListText) -> str | None:
    """``slot`` through ``_SLOT_TEMPLATE``, or None when it has another shape
    or a scalar of a type ``_SCALAR_TEXT`` does not name."""
    if type(slot) is not dict or slot.keys() != _SLOT_KEYS:
        return None
    entries = slot["iterations"]
    if type(entries) is not list or len(entries) != 2:
        return None
    try:
        values = [_scalar_text(slot["converged"])]
        for e in entries:
            if type(e) is not dict or e.keys() != _ENTRY_KEYS:
                return None
            scalars = e["fractional_objective"], e["iteration"], e["placement_feasible"], e["rounded_objective"]
            values += map(_scalar_text, scalars)
            values += bandwidth(e["user_bandwidth"]), weights(e["weights"])
        values += _scalar_text(slot["reason"]), _scalar_text(slot["slot"])
    except KeyError:
        return None
    return _SLOT_TEMPLATE % tuple(values)


def _trace_json(slots) -> str:
    """Exactly ``_json_indented(slots)``, for the list of per-slot traces that
    ``run_simulation`` collects. A two-entry slot is written from one fixed
    template: its scalars by type, each list through a ``_ListText`` for its
    key, so a slot's second weight list and every bandwidth list after the
    first reuse the text of a list with the same float objects. Any other
    value goes through ``_json_indented``."""
    if type(slots) is not list or not slots:
        return _json_indented(slots)
    weights, bandwidth = _ListText(), _ListText()
    texts = []
    for slot in slots:
        text = _slot_text(slot, weights, bandwidth)
        texts.append(_json_indented(slot, "\n  ") if text is None else text)
    return "[\n  " + ",\n  ".join(texts) + "\n]"


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
