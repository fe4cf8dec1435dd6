import json

import pytest

from stiefel.algebra import StiefelPresentation, random_element
from stiefel.coefficients import CoeffRing, FieldProfile
from stiefel.errors import ElementParseError
from stiefel.serialize import (element_from_dict, element_from_json, element_to_dict,
                               element_to_json, parse_coeff)
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

    def test_canonical_json_is_stable(self):
        pres = StiefelPresentation(3, 3, CoeffRing(2))
        x = pres.gen(2) + pres.gen(1)
        data = json.loads(element_to_json(x))
        assert data["terms"][0]["gens"] == [1]
        assert data["terms"][1]["gens"] == [2]
