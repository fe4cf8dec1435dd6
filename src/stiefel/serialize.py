"""JSON wire format for elements.

Stiefel element:
    {"n": int, "m": int, "coeff": "Z" | "Z/<m>", "minus_one_is_square": bool,
     "terms": [{"gens": [int, ...], "mcoeff": [{"k": int, "c": int}, ...]}, ...]}

Tate-target element: the same with "gens" replaced by "s" and "e" keys and
without "m".  The presentation names these fields.  Rendering is canonical
(normal-form term order), so parse and render are mutually inverse, bit
for bit.
"""

from __future__ import annotations

import json
import re

from .algebra import Element, Presentation, StiefelPresentation
from .coefficients import CoeffRing, FieldProfile, MCoefficient
from .errors import ElementParseError, digits_int, json_int

# the largest {-1}-power that element input takes: far above any power
# that the rings' relations or a README example give, while a product of
# two such classes still packs into a bitset (coefficients.pack) of 250 kB
MAX_MINUS_ONE_POWER = 10**6


def minus_one_power(k: int) -> int:
    """k if element input takes the power {-1}^k, else ElementParseError."""
    if k > MAX_MINUS_ONE_POWER:
        raise ElementParseError(
            f"{{-1}}-power {k} is above the {MAX_MINUS_ONE_POWER} that element input takes")
    return k


def parse_coeff(name: str) -> CoeffRing:
    if name == "Z":
        return CoeffRing()
    hit = re.fullmatch(r"Z/(\d+)", name)
    if not hit:
        raise ElementParseError(f'unrecognized coefficient ring {name!r}; use "Z" or "Z/<m>"')
    try:
        return CoeffRing(digits_int(hit.group(1), "modulus"))
    except ValueError as exc:
        raise ElementParseError(str(exc)) from exc


def _mcoeff_to_list(c: MCoefficient) -> list[dict]:
    return [{"k": k, "c": v} for k, v in c.terms]


def _mcoeff_from_list(data, ring: CoeffRing, profile: FieldProfile) -> MCoefficient:
    if not isinstance(data, list):
        raise ElementParseError("mcoeff must be a list")
    terms = []
    for entry in data:
        if not isinstance(entry, dict) or set(entry) != {"k", "c"}:
            raise ElementParseError(f"malformed mcoeff entry {entry!r}")
        terms.append((minus_one_power(json_int(entry["k"], "k")), json_int(entry["c"], "c")))
    try:
        return MCoefficient(ring, profile, tuple(terms))
    except ValueError as exc:
        raise ElementParseError(str(exc)) from exc


def element_to_dict(x: Element) -> dict:
    pres = x.pres
    return {
        **{name: getattr(pres, name) for name in pres.json_fields},
        "coeff": pres.ring.name,
        "minus_one_is_square": pres.profile.minus_one_is_square,
        "terms": [{**pres.key_to_json(key), "mcoeff": _mcoeff_to_list(c)}
                  for key, c in x.terms],
    }


def element_from_dict(data, kind: type[Presentation] = StiefelPresentation) -> Element:
    """Parse an element of the ring kind (StiefelPresentation or
    PGmPresentation) from its JSON object."""
    if not isinstance(data, dict):
        raise ElementParseError("element JSON must be an object")
    expected = {*kind.json_fields, "coeff", "minus_one_is_square", "terms"}
    if set(data) != expected:
        raise ElementParseError(f"element JSON needs exactly the keys {sorted(expected)}")
    if not isinstance(data["coeff"], str):
        raise ElementParseError("coeff must be a string")
    if not isinstance(data["minus_one_is_square"], bool):
        raise ElementParseError("minus_one_is_square must be a boolean")
    ring = parse_coeff(data["coeff"])
    profile = FieldProfile(minus_one_is_square=data["minus_one_is_square"])
    try:
        pres = kind(*[json_int(data[name], name) for name in kind.json_fields], ring, profile)
    except ValueError as exc:
        raise ElementParseError(str(exc)) from exc
    if not isinstance(data["terms"], list):
        raise ElementParseError("terms must be a list")
    term_fields = {*kind.key_fields, "mcoeff"}
    terms = []
    for entry in data["terms"]:
        if not isinstance(entry, dict) or set(entry) != term_fields:
            raise ElementParseError(f"malformed term {entry!r}")
        key = pres.key_from_json(entry)
        terms.append((key, _mcoeff_from_list(entry["mcoeff"], ring, profile)))
    try:
        return Element(pres, tuple(terms))
    except ValueError as exc:
        raise ElementParseError(str(exc)) from exc


def element_to_json(x: Element) -> str:
    return json.dumps(element_to_dict(x))


def element_from_json(text: str, kind: type[Presentation] = StiefelPresentation) -> Element:
    # digits_int refuses integers of more digits than Python converts, and
    # a RecursionError stands for nesting deeper than json parses
    try:
        data = json.loads(text, parse_int=digits_int)
    except ElementParseError:
        raise
    except (ValueError, RecursionError) as exc:
        raise ElementParseError(f"invalid JSON: {exc}") from exc
    return element_from_dict(data, kind)
