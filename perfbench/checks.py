"""Answer checks for every benchmark op, run outside the timed region.

Balanced codes are checked against answers checked in with the
benchmark (``expected.json``).  Unbalanced codes get only an exit-code
and JSON-shape check, because what is published for them is expected to
change.  Found filamentations are verified with ``verify_filamentation``;
walks are replayed move by move and the invariant must agree at both
ends; enumerations must produce the known class counts.
"""

from __future__ import annotations

import json

from corpus import WALK_STEPS, Op, crossing_count, digest


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _invariant_shape_ok(obj, n_components: int) -> bool:
    if not isinstance(obj, dict) or set(obj) != {"components", "pairs", "linking"}:
        return False
    comps = obj["components"]
    if len(comps) != n_components:
        return False
    if not all(set(c) == {"name", "poly"} and isinstance(c["poly"], dict)
               and all(_is_int(v) for v in c["poly"].values()) for c in comps):
        return False
    return (all(set(p) == {"a", "b", "coeff"} and _is_int(p["coeff"])
                for p in obj["pairs"])
            and all(set(p) == {"a", "b", "diff"} and _is_int(p["diff"])
                    for p in obj["linking"]))


def _filament_shape_ok(obj) -> bool:
    if obj == {"exists": False}:
        return True
    return (isinstance(obj, dict) and set(obj) == {"mono", "bi"}
            and all(isinstance(x, str) for x in obj["mono"])
            and all(isinstance(p, list) and len(p) == 2 for p in obj["bi"]))


def _filamentation_verified(fl, text: str, obj) -> bool:
    found = fl.Filamentation(tuple(obj["mono"]),
                             tuple(tuple(p) for p in obj["bi"]))
    try:
        return fl.verify_filamentation(fl.parse_flat_link(text), found) == []
    except fl.FlatLinkError:
        return False


def walk_ok(fl, text: str, obj, expect) -> bool:
    if digest(obj) != expect["walk"] or len(obj["log"]) != WALK_STEPS:
        return False
    start = fl.parse_flat_link(text)
    code = start
    try:
        for line in obj["log"]:
            code = fl.apply_move(code, fl.MoveSite.parse(line))
    except fl.FlatLinkError:
        return False
    end = fl.parse_flat_link(obj["code"])
    return (fl.render_flat_link(code) == obj["code"]
            and fl.link_polynomial(start) == fl.link_polynomial(end))


def _enumerate_ok(obj, shape, expected) -> bool:
    c, k = shape
    count = expected["enumerate"][f"{c}x{k}"]
    codes = obj["codes"]
    if obj["count"] != count or len(codes) != count or len(set(codes)) != count:
        return False
    return all(crossing_count(t) == c and t.count(";") == k - 1 for t in codes)


def check(fl, op: Op, rc: int, out: str, expected: dict) -> bool:
    """Whether one op answered correctly; ``fl`` is the package."""
    if rc != 0:
        return False
    try:
        obj = json.loads(out)
    except ValueError:
        return False
    entry = op.entry
    if entry is not None and entry.expect is None:
        return False
    if op.group == "invariant":
        if entry.expect["balanced"]:
            return obj == entry.expect["invariant"]
        return _invariant_shape_ok(obj, entry.text.count(";") + 1)
    if op.group == "filament":
        if not entry.expect["balanced"]:
            return _filament_shape_ok(obj)
        if obj == {"exists": False}:
            return not entry.expect["filament"]
        return (entry.expect["filament"] and _filament_shape_ok(obj)
                and _filamentation_verified(fl, entry.text, obj))
    if op.group == "walk":
        return walk_ok(fl, entry.text, obj, entry.expect)
    if op.group == "list":
        return digest(obj) == entry.expect["list"]
    if op.group == "search":
        return obj == expected["search"]
    if op.group == "enumerate":
        return _enumerate_ok(obj, op.shape, expected)
    raise ValueError(f"unknown op group {op.group!r}")
