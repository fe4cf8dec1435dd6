import json

import pytest

from stiefel.algebra import StiefelPresentation, random_element
from stiefel.coefficients import CoeffRing, FieldProfile
from stiefel.errors import ElementParseError
from stiefel.serialize import (MAX_MINUS_ONE_POWER, element_from_dict, element_from_json,
                               element_to_dict, element_to_json, parse_coeff)
from stiefel.targets import PGmPresentation


class TestCoeffNames:
    def test_parse(self):
        assert parse_coeff("Z") == CoeffRing()
        assert parse_coeff("Z/2") == CoeffRing(2)
        assert parse_coeff("Z/12") == CoeffRing(12)

    def test_reject(self):
        for bad in ("Q", "Z/", "Z/1", "Z/x", "z/2"):
            with pytest.raises(ElementParseError):
                parse_coeff(bad)


class TestSchema:
    def test_shape(self):
        pres = StiefelPresentation(3, 2, CoeffRing(2))
        x = pres.minus_one() * pres.gen(3) + pres.monomial((2, 3))
        data = element_to_dict(x)
        assert set(data) == {"n", "m", "coeff", "minus_one_is_square", "terms"}
        assert data["n"] == 3 and data["m"] == 2 and data["coeff"] == "Z/2"
        assert data["minus_one_is_square"] is False
        assert data["terms"] == [
            {"gens": [3], "mcoeff": [{"k": 1, "c": 1}]},
            {"gens": [2, 3], "mcoeff": [{"k": 0, "c": 1}]},
        ]

    def test_pgm_shape(self):
        pres = PGmPresentation(3, CoeffRing(2))
        x = pres.sigma() * pres.eta(2)
        data = element_to_dict(x)
        assert set(data) == {"n", "coeff", "minus_one_is_square", "terms"}
        assert data["terms"] == [{"s": 1, "e": 2, "mcoeff": [{"k": 0, "c": 1}]}]

    def test_roundtrip_exact(self):
        pres = StiefelPresentation(4, 4, CoeffRing())
        x = pres.gen(1) * pres.gen(2) + pres.minus_one(2) * pres.gen(3) - pres.unit(7)
        text = element_to_json(x)
        back = element_from_json(text)
        assert back == x
        assert element_to_json(back) == text

    def test_seeded_roundtrips(self):
        rings = [CoeffRing(), CoeffRing(2), CoeffRing(3), CoeffRing(4)]
        for seed in range(200):
            ring = rings[seed % 4]
            profile = FieldProfile(minus_one_is_square=(seed % 7 == 0))
            pres = StiefelPresentation(1 + seed % 5, (seed % 5), ring, profile)
            x = random_element(pres, None, seed=seed)
            assert element_from_json(element_to_json(x)) == x

    def test_pgm_roundtrips(self):
        for seed in range(100):
            pres = PGmPresentation(1 + seed % 6, CoeffRing(2))
            x = random_element(pres, None, seed=seed)
            text = element_to_json(x)
            assert element_from_json(text, PGmPresentation) == x


R1 = {"n": 3, "m": 3, "coeff": "Z", "minus_one_is_square": False,
      "terms": [{"gens": [1], "mcoeff": [{"k": 0, "c": 1}]}]}
ETA = {"n": 3, "coeff": "Z", "minus_one_is_square": False,
       "terms": [{"s": 1, "e": 0, "mcoeff": [{"k": 0, "c": 1}]}]}
REFUSED = [
    # the CLI reads a token as JSON only when it starts with "{"
    ("[1]", StiefelPresentation, "element JSON must be an object"),
    ({**R1, "terms": [{"gens": [1], "mcoeff": 5}]}, StiefelPresentation,
     "mcoeff must be a list"),
    ({**R1, "coeff": 2}, StiefelPresentation, "coeff must be a string"),
    ({**R1, "minus_one_is_square": 1}, StiefelPresentation,
     "minus_one_is_square must be a boolean"),
    ({**R1, "terms": [{"gens": [1], "mcoeff": [{"k": -1, "c": 1}]}]}, StiefelPresentation,
     "negative power of {-1}"),
    ({**ETA, "terms": [{**ETA["terms"][0], "s": 2}]}, PGmPresentation,
     "sigma exponent must be 0 or 1, got 2"),
    ({**ETA, "terms": [{**ETA["terms"][0], "e": 3}]}, PGmPresentation,
     "eta exponent out of range: 3 (n=3)"),
    ({**ETA, "terms": [{**ETA["terms"][0], "e": -1}]}, PGmPresentation,
     "eta exponent out of range: -1 (n=3)"),
]


@pytest.mark.parametrize("data, kind, message", REFUSED, ids=[
    "not an object", "mcoeff", "coeff", "minus_one_is_square", "negative k", "sigma", "eta",
    "negative eta"])
def test_refusal_messages(data, kind, message):
    text = data if isinstance(data, str) else json.dumps(data)
    with pytest.raises(ElementParseError) as caught:
        element_from_json(text, kind)
    assert type(caught.value) is ElementParseError
    assert str(caught.value) == message


class TestRejection:
    def test_bad_json(self):
        with pytest.raises(ElementParseError):
            element_from_json("{not json")

    def test_missing_keys(self):
        with pytest.raises(ElementParseError):
            element_from_dict({"n": 2, "m": 2})

    def test_extra_keys(self):
        pres = StiefelPresentation(2, 2)
        data = element_to_dict(pres.gen(1))
        data["extra"] = 1
        with pytest.raises(ElementParseError):
            element_from_dict(data)

    def test_bad_generator(self):
        data = {"n": 2, "m": 1, "coeff": "Z", "minus_one_is_square": False,
                "terms": [{"gens": [1], "mcoeff": [{"k": 0, "c": 1}]}]}
        with pytest.raises(ElementParseError):
            element_from_dict(data)

    def test_bad_presentation(self):
        data = {"n": 1, "m": 2, "coeff": "Z", "minus_one_is_square": False, "terms": []}
        with pytest.raises(ElementParseError):
            element_from_dict(data)

    def test_bool_is_not_int(self):
        data = {"n": 2, "m": True, "coeff": "Z", "minus_one_is_square": False, "terms": []}
        with pytest.raises(ElementParseError):
            element_from_dict(data)

    def test_malformed_terms(self):
        base = {"n": 2, "m": 2, "coeff": "Z", "minus_one_is_square": False}
        for terms in ({"gens": []},
                      [{"gens": [1]}],
                      [{"gens": [1], "mcoeff": [{"k": 0}]}],
                      [{"gens": "1", "mcoeff": []}]):
            with pytest.raises(ElementParseError):
                element_from_dict({**base, "terms": terms})

    def test_huge_integers_and_deep_nesting(self):
        # more digits than Python converts from a string, and more nesting
        # than json parses, are parse errors, not a ValueError or RecursionError
        text = element_to_json(StiefelPresentation(3, 3).gen(1))
        for bad in ('{"n": ' + "[" * 1500, '{"n": ' + "[" * 1500 + "]" * 1500 + "}"):
            with pytest.raises(ElementParseError, match="^invalid JSON: ") as caught:
                element_from_json(bad)
            assert type(caught.value) is ElementParseError
        for digits in ("1" * 5000, "-" + "1" * 5000):
            with pytest.raises(ElementParseError) as caught:
                element_from_json(text.replace('"n": 3', '"n": ' + digits))
            assert str(caught.value) == (
                "JSON integer of 5000 digits is longer than element input takes")
            assert type(caught.value) is ElementParseError

    def test_minus_one_power_bound(self):
        base = {"n": 2, "m": 2, "coeff": "Z", "minus_one_is_square": False}
        for kind, key in ((StiefelPresentation, {"gens": [1]}),
                          (PGmPresentation, {"s": 0, "e": 1})):
            data = {**base, "terms": [{**key, "mcoeff": [{"k": MAX_MINUS_ONE_POWER, "c": 1}]}]}
            if kind is PGmPresentation:
                del data["m"]
            x = element_from_dict(data, kind)
            assert x.terms[0][1].powers() == (MAX_MINUS_ONE_POWER,)
            data["terms"][0]["mcoeff"][0]["k"] += 1
            with pytest.raises(ElementParseError, match="above the 1000000"):
                element_from_dict(data, kind)

    def test_canonical_json_is_stable(self):
        pres = StiefelPresentation(3, 3, CoeffRing(2))
        x = pres.gen(2) + pres.gen(1)
        data = json.loads(element_to_json(x))
        assert data["terms"][0]["gens"] == [1]
        assert data["terms"][1]["gens"] == [2]
