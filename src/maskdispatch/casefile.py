"""Case files: JSON documents describing a market system.

Schema (version 1):

    {
      "schema": 1,
      "meta": {"name": ..., "T": 1, "reference_bus": "1"},
      "buses": ["1", "2", "3"],
      "lines": [{"from": "1", "to": "2", "x": 0.1, "capacity": 30.0}, ...],
      "generators": [{"name": "U1", "owner": "GENCO1", "bus": "1",
                      "segments": [{"price": 10.0, "min": 10.0, "max": 90.0}, ...],
                      "ramp_up": null, "ramp_down": null}, ...],
      "loads": [{"name": "L1", "owner": "LSE1", "bus": "3",
                 "segments": [...]}, ...]
    }

Serialization is canonical (fixed key order, 2-space indent, trailing
newline) so regenerating a case with the same inputs is byte-identical.
"""

from __future__ import annotations

import json

from maskdispatch.market import (
    MarketSystem, Line, Generator, Load, BidSegment,
)

SCHEMA_VERSION = 1


class CaseFileError(ValueError):
    """A case document is malformed; the message names the offending field."""


def _get(obj, key, path, cls=None):
    if not isinstance(obj, dict) or key not in obj:
        raise CaseFileError(f"missing field {path}.{key}")
    v = obj[key]
    if cls is not None:
        if cls is float:
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise CaseFileError(f"field {path}.{key} must be a number")
            return float(v)
        if not isinstance(v, cls):
            raise CaseFileError(f"field {path}.{key} must be {cls.__name__}")
    return v


def _optional_number(obj, key, path):
    return None if obj.get(key) is None else _get(obj, key, path, float)


def _segments(obj, path):
    segs = _get(obj, "segments", path, list)
    if not segs:
        raise CaseFileError(f"field {path}.segments must not be empty")
    out = []
    for k, s in enumerate(segs):
        p = f"{path}.segments[{k}]"
        out.append(BidSegment(price=_get(s, "price", p, float),
                              lo=_get(s, "min", p, float),
                              hi=_get(s, "max", p, float)))
    return out


def case_to_system(doc: dict) -> MarketSystem:
    """Build a MarketSystem from a parsed case document."""
    if _get(doc, "schema", "$") != SCHEMA_VERSION:
        raise CaseFileError(f"field $.schema must be {SCHEMA_VERSION}")
    meta = _get(doc, "meta", "$", dict)
    buses = _get(doc, "buses", "$", list)
    if not buses or not all(isinstance(b, str) for b in buses):
        raise CaseFileError("field $.buses must be a non-empty list of strings")

    lines = []
    for i, ln in enumerate(_get(doc, "lines", "$", list)):
        p = f"$.lines[{i}]"
        lines.append(Line(from_bus=_get(ln, "from", p, str),
                          to_bus=_get(ln, "to", p, str),
                          x=_get(ln, "x", p, float),
                          capacity=_get(ln, "capacity", p, float)))
    generators = []
    for i, g in enumerate(_get(doc, "generators", "$", list)):
        p = f"$.generators[{i}]"
        generators.append(Generator(
            name=_get(g, "name", p, str), owner=_get(g, "owner", p, str),
            bus=_get(g, "bus", p, str), segments=_segments(g, p),
            ramp_up=_optional_number(g, "ramp_up", p),
            ramp_dn=_optional_number(g, "ramp_down", p)))
    loads = []
    for i, d in enumerate(_get(doc, "loads", "$", list)):
        p = f"$.loads[{i}]"
        loads.append(Load(name=_get(d, "name", p, str),
                          owner=_get(d, "owner", p, str),
                          bus=_get(d, "bus", p, str),
                          segments=_segments(d, p)))
    hours = _get(meta, "T", "$.meta", float)
    if not hours.is_integer():
        raise CaseFileError(
            f"field $.meta.T must be a whole number of hours, got {hours}")
    try:
        return MarketSystem(
            name=_get(meta, "name", "$.meta", str),
            buses=buses,
            reference_bus=_get(meta, "reference_bus", "$.meta", str),
            lines=lines, generators=generators, loads=loads,
            horizon=int(hours))
    except ValueError as exc:
        raise CaseFileError(str(exc)) from exc


def system_to_case(system: MarketSystem) -> dict:
    def seg(s):
        return {"price": s.price, "min": s.lo, "max": s.hi}

    return {
        "schema": SCHEMA_VERSION,
        "meta": {"name": system.name, "T": system.horizon,
                 "reference_bus": system.reference_bus},
        "buses": list(system.buses),
        "lines": [{"from": l.from_bus, "to": l.to_bus, "x": l.x,
                   "capacity": l.capacity} for l in system.lines],
        "generators": [{"name": g.name, "owner": g.owner, "bus": g.bus,
                        "segments": [seg(s) for s in g.segments],
                        "ramp_up": g.ramp_up, "ramp_down": g.ramp_dn}
                       for g in system.generators],
        "loads": [{"name": d.name, "owner": d.owner, "bus": d.bus,
                   "segments": [seg(s) for s in d.segments]}
                  for d in system.loads],
    }


def load_case(path) -> MarketSystem:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CaseFileError(f"cannot read case file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CaseFileError(f"case file {path} is not valid JSON: {exc}") from exc
    return case_to_system(doc)


def save_case(system: MarketSystem, path):
    text = json.dumps(system_to_case(system), indent=2)
    with open(path, "w") as fh:
        fh.write(text + "\n")
