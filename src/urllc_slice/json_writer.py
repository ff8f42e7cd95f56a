"""Output text: every JSON file has the text of ``_json_indented`` (exactly
``json.dumps(obj, indent=2, sort_keys=True)``, without its pure-Python
encoder); a trace file is written one slot at a time from the pieces of
``_trace_pieces``, which fills the slots of the simulator's chunk records
into the template of each slot's assignment straight from their arrays.
Every CSV file goes through ``_csv_lines``, and dataclasses through
``_fields_dict``. A float list written to a JSON file and a CSV file is
turned into text once, by ``_float_texts``."""

from __future__ import annotations

import json
import math
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

_encode_flat = json.JSONEncoder(sort_keys=True).encode
_NUMBER_TYPES = {int, float}


def _float_json(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


class _FloatTexts(list):
    """The JSON texts of a list of floats, which ``_json_indented`` lays out
    as it lays out the floats themselves."""


def _float_texts(values: list) -> _FloatTexts:
    """The JSON text of every float of ``values`` (``float.__repr__``, or
    ``NaN``, ``Infinity`` and ``-Infinity``), from one call of the C
    encoder: a number never contains ``", "``."""
    return _FloatTexts(_encode_flat(values)[1:-1].split(", ") if values else [])


# repr's text of each non-finite float, by its JSON text
_REPR_OF_JSON = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}


def _repr_texts(texts: list[str]) -> list[str]:
    """``repr`` of every float of ``_float_texts``: its CSV cell."""
    return [_REPR_OF_JSON.get(t, t) for t in texts]


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
    replacing it in the flat encoding lays the items out. A ``_FloatTexts``
    is laid out from its texts. ``newline`` is the line break plus the
    indentation of the current depth. Dicts with non-string keys fall back
    to ``json.dumps``, re-indented (encoded strings hold no raw line breaks).
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
        if type(obj) is _FloatTexts:
            body = ("," + inner).join(obj)
        elif set(map(type, obj)) <= _NUMBER_TYPES:
            body = _encode_flat(obj)[1:-1].replace(", ", "," + inner)
        else:
            body = ("," + inner).join([_json_indented(x, inner) for x in obj])
        return "[" + inner + body + newline + "]"
    return _encode_flat(obj)


class _TraceRecord(NamedTuple):
    """The traces of the proposed slots of one chunk, from slot ``start``
    on, in slot order. A row that ``rounds`` (the chunk's
    ``alternating.AllActiveRounds``) answers is the converged two-entry trace
    of ``alternating._answered_run`` at its entry of ``assignments`` (one
    ``AllActive`` a row): both entries hold the row's weights, objectives and
    feasibility and that assignment's ``rounded_values``. Every other row
    is the next slot dict of ``fallback``."""

    start: int
    assignments: list
    rounds: object
    fallback: list


class _TraceRecords(list):
    """A ``run_simulation`` trace sink that is extended with the simulator's
    ``_TraceRecord``s instead of one dict per slot."""


# An answered slot as ``_json_indented`` writes it inside the trace's list,
# with a ``%s`` hole per value that varies from slot to slot, in key order:
# per entry the fractional objective, feasibility, rounded objective and
# weights, then the slot. The weights' hole sits inside its list's brackets.
_HOLE = "\0"
_ENTRY = dict.fromkeys(["fractional_objective", "placement_feasible", "rounded_objective"], _HOLE)
_ENTRY["weights"] = [_HOLE]
_WEIGHT_SEP = ",\n          "  # between the items of an entry's list
_encode_weights = json.JSONEncoder(separators=(_WEIGHT_SEP, ": ")).encode


def _answered_template(bandwidth: list) -> str:
    entries = [{**_ENTRY, "iteration": it, "user_bandwidth": bandwidth} for it in (1, 2)]
    slot = {"converged": True, "iterations": entries, "reason": "tolerance", "slot": _HOLE}
    return _json_indented(slot, "\n  ").replace("%", "%%").replace('"\\u0000"', "%s")


def _record_pieces(record: _TraceRecord, templates: dict, sep: str):
    """The slots of ``record`` as ``_json_indented`` writes them inside the
    trace's list, one piece a slot, each led by its separator (``sep`` for the
    first). An answered row fills the template of its assignment's
    bandwidths (kept in ``templates``), looked up again only where a row's
    assignment is not the previous answered row's: all their weights go
    through one encoder call, split per row, and so do all their
    objectives."""
    answered, rows = record.rounds.answered, record.rounds.placement
    slots = (np.flatnonzero(answered) + record.start).tolist()
    # with no row answered, each split gives [""] and zip stops at once
    weights = _encode_weights(rows.weights[answered].tolist())[2:-2].split("]" + _WEIGHT_SEP + "[")
    objectives = _float_texts(record.rounds.objectives[answered].ravel().tolist())
    feasible = map(("false", "true").__getitem__, rows.feasible[answered].tolist())
    zipped = zip(slots, weights, objectives[::2], objectives[1::2], feasible)
    fills = ((f, b, r, w, f, b, r, w, slot) for slot, w, f, r, b in zipped)
    fallback, previous = iter(record.fallback), None
    for a, assignment in zip(answered.tolist(), record.assignments):
        if a and assignment is not previous:
            previous, key = assignment, assignment.rounded_bandwidth.tobytes()
            if key not in templates:
                templates[key] = _answered_template(list(assignment.rounded_values))
            template = templates[key]
        yield sep + (template % next(fills) if a else _json_indented(next(fallback), "\n  "))
        sep = ",\n  "


def _trace_pieces(records: list):
    """``_json_indented`` of the slot dicts of ``records``, a non-empty list
    of ``_TraceRecord``s, in pieces, one per slot and the closing bracket, so
    a writer holds one slot's text at a time."""
    templates = {}
    sep = "[\n  "
    for record in records:
        yield from _record_pieces(record, templates, sep)
        sep = ",\n  "
    yield "\n]"


def _fields_dict(obj) -> dict:
    """Dataclass fields as built-in values: NumPy arrays and scalars via ``tolist``."""
    out = {f.name: getattr(obj, f.name) for f in fields(obj)}
    return {k: v.tolist() if isinstance(v, (np.ndarray, np.generic)) else v for k, v in out.items()}


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_lines(header: list[str], rows) -> str:
    """CSV text of rows of cell texts."""
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def _csv(header: list[str], rows) -> str:
    """CSV text: float cells through ``_fmt``, every other cell through ``str``."""
    return _csv_lines(header, [[_fmt(c) if isinstance(c, float) else str(c) for c in row] for row in rows])
