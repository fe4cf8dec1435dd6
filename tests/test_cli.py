import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import stiefel
from stiefel import suites
from stiefel.algebra import StiefelPresentation, basis_element, basis_in_bidegree, piece_size
from stiefel.cli import build_presentation, main
from stiefel.coefficients import CoeffRing, FieldProfile
from stiefel.render import basis_report, element_text
from stiefel.serialize import MAX_MINUS_ONE_POWER, element_from_json, element_to_json

from suite_runs import shared_result, suite_run
from test_operations import one_step_sq2


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


class TestPresent:
    def test_gl3(self):
        result = run("present", "-n", "3", "-m", "3")
        assert result.exit_code == 0
        assert "r2^2 = {-1} r3" in result.output
        assert "r3^2 = 0" in result.output

    def test_trivial(self):
        result = run("present", "-n", "4", "-m", "0")
        assert result.exit_code == 0
        assert "trivial" in result.output

    def test_m_bigger_than_n(self):
        result = run("present", "-n", "2", "-m", "5")
        assert result.exit_code == 2
        assert "m > n" in result.output

    def test_latex_standalone(self):
        result = run("present", "-n", "3", "-m", "2", "--format", "latex")
        assert result.exit_code == 0
        assert result.output.startswith("\\documentclass")
        assert "\\end{document}" in result.output
        assert "\\rho_{2}" in result.output

    def test_json(self):
        result = run("present", "-n", "3", "-m", "3", "--format", "json")
        data = json.loads(result.output)
        assert [g["i"] for g in data["generators"]] == [1, 2, 3]

    def test_guard_refuses_quickly(self):
        # -n 100000000 had grown to 3.8 GB of RSS after 5 minutes before the guard
        start = time.perf_counter()
        result = run("present", "-n", "100000000")
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 3
        assert result.output.splitlines() == [
            "error: W(100000000,100000000) has 100000000 generators, "
            "more than the 10000 that present prints"]

    @pytest.mark.parametrize("fmt", ["text", "json", "latex"])
    def test_guard_lets_the_largest_presentation_through(self, fmt):
        start = time.perf_counter()
        result = run("present", "-n", "1000000", "-m", "10000", "--format", fmt)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 0
        assert run("present", "-n", "10001", "--format", fmt).exit_code == 3


class TestMul:
    def test_spec_example(self):
        result = run("mul", "r2", "r2", "-n", "3", "-m", "3", "--coeff", "Z")
        assert result.exit_code == 0
        assert result.output.strip() == "{-1} r3"

    def test_json_roundtrip(self):
        result = run("mul", "r2", "r3", "-n", "5", "-m", "5", "--coeff", "Z",
                     "--format", "json")
        assert result.exit_code == 0
        x = element_from_json(result.output)
        again = run("mul", result.output.strip(), "1", "-n", "5", "-m", "5", "--coeff", "Z",
                    "--format", "json")
        assert element_from_json(again.output) == x

    def test_json_context_mismatch(self):
        payload = json.dumps({"n": 4, "m": 4, "coeff": "Z", "minus_one_is_square": False,
                              "terms": [{"gens": [4], "mcoeff": [{"k": 0, "c": 1}]}]})
        result = run("mul", payload, "r3", "-n", "3", "-m", "3", "--coeff", "Z")
        assert result.exit_code == 3

    def test_json_with_char(self):
        # element JSON records no characteristic; --char must not make it
        # look like a different context
        product = run("mul", "r1", "r2", "-n", "3", "--coeff", "Z/3", "--format", "json")
        assert product.exit_code == 0
        result = run("mul", product.output.strip(), "r3", "-n", "3", "--coeff", "Z/3",
                     "--char", "5")
        assert result.exit_code == 0
        assert result.output.strip() == "r1 r2 r3"

    def test_json_with_char_keeps_coeff_mismatch(self):
        product = run("mul", "r1", "r2", "-n", "3", "--coeff", "Z/3", "--format", "json")
        result = run("mul", product.output.strip(), "r3", "-n", "3", "--coeff", "Z/5",
                     "--char", "5")
        assert result.exit_code == 3
        assert "element JSON context differs" in result.output

    def test_json_element_takes_the_command_characteristic(self):
        # Sq^2 is inadmissible in characteristic 2, also on a JSON element
        x = run("mul", "r2", "1", "-n", "3", "--format", "json").output.strip()
        assert run("sq", "-i", "2", x, "-n", "3").output.strip() == "r3"
        assert run("sq", "-i", "2", x, "-n", "3", "--char", "2").exit_code == 3

    def test_parse_error(self):
        result = run("mul", "bogus", "r2", "-n", "3", "-m", "3")
        assert result.exit_code == 2

    def test_high_generators_answer_quickly(self):
        # the product's mask has two set bits near bit 10^6
        start = time.perf_counter()
        result = run("mul", "r999999", "r999998", "-n", "1000000")
        assert time.perf_counter() - start < 5.0
        assert result.exit_code == 0
        assert result.output == "r999998 r999999\n"

    def test_zero_token(self):
        result = run("mul", "0", "r2", "-n", "3", "--format", "json")
        assert result.exit_code == 0
        assert not element_from_json(result.output)

    def test_generator_out_of_range(self):
        result = run("mul", "r9", "r2", "-n", "3", "-m", "3")
        assert result.exit_code == 3
        result = run("mul", "r0", "r2", "-n", "3")
        assert result.exit_code == 3
        assert result.output.splitlines() == ["error: rho_0 is not a generator of W(3,3)"]


class TestOperations:
    def test_sq_spec_example(self):
        result = run("sq", "-i", "2", "r2", "-n", "3", "-m", "3")
        assert result.exit_code == 0
        assert result.output.strip() == "r3"

    def test_sq_on_a_long_monomial(self):
        # a monomial of 1,100 generators, each a level of the Cartan sum
        pres = StiefelPresentation(2200, 2200, CoeffRing(2), FieldProfile())
        mono = tuple(range(1, 1101))
        start = time.perf_counter()
        result = run("sq", "-i", "2", element_to_json(pres.monomial(mono)), "-n", "2200",
                     "--format", "json")
        assert time.perf_counter() - start < 2
        assert result.exit_code == 0
        assert element_from_json(result.output) == one_step_sq2(pres, mono)

    def test_sq_odd_vanishes(self):
        result = run("sq", "-i", "1", "r2", "-n", "3", "-m", "3")
        assert result.output.strip() == "0"

    def test_sq_needs_mod2(self):
        result = run("sq", "-i", "2", "r2", "-n", "3", "-m", "3", "--coeff", "Z")
        assert result.exit_code == 3

    def test_sq_characteristic_two(self):
        result = run("sq", "-i", "2", "r2", "-n", "3", "-m", "3", "--char", "2")
        assert result.exit_code == 3

    def test_power(self):
        result = run("power", "-i", "1", "-p", "3", "r2", "-n", "4", "-m", "4",
                     "--coeff", "Z/3")
        assert result.output.strip() == "r4"

    def test_power_coefficient_two(self):
        result = run("power", "-i", "1", "-p", "3", "r3", "-n", "5", "-m", "5",
                     "--coeff", "Z/3")
        assert result.output.strip() == "2 r5"

    def test_bockstein(self):
        result = run("power", "--bockstein", "-p", "3", "r2", "-n", "4", "-m", "4",
                     "--coeff", "Z/3")
        assert result.output.strip() == "0"

    def test_power_even_prime(self):
        result = run("power", "-i", "1", "-p", "2", "r2", "-n", "4", "-m", "4")
        assert result.exit_code == 2

    def test_sq_huge_index_answers_zero(self):
        # the generator table stops at n, so no loop runs over the index
        result = run("sq", "-i", "2000000000", "r3", "-n", "3", "-m", "3", "--coeff", "Z/2")
        assert result.exit_code == 0
        assert result.output.strip() == "0"

    def test_sq_negative_index(self):
        result = run("sq", "-i", "-2", "r1", "-n", "3")
        assert result.exit_code == 2
        assert result.output.splitlines()[-1] == "Error: operation index must be nonnegative"


class TestBadCharacteristic:
    @pytest.mark.parametrize("char", ["4", "-5"])
    def test_rejected_with_usage_error(self, char):
        result = run("mul", "r2", "r2", "-n", "3", "--char", char)
        assert result.exit_code == 2
        assert result.output.splitlines()[-1] == (
            f"Error: the characteristic of a field is 0 or a prime, got {char}")


M61 = 2**61 - 1  # a Mersenne prime, past the reach of trial division
PSI_13 = 3317044064679887385961981  # from here on primality is not decided
HUGE = "1" * 5000
N20 = "9" * 20


def minus_one_json(k):
    return json.dumps({"n": 3, "m": 3, "coeff": "Z", "minus_one_is_square": False,
                       "terms": [{"gens": [1], "mcoeff": [{"k": k, "c": 1}]}]})


BOUNDED = [
    (["power", "-i", "1", "-p", str(M61), "r1", "-n", "3", "--coeff", f"Z/{M61}"], 0, "0"),
    (["mul", "r2", "r2", "-n", "3", "--char", str(M61)], 0, "{-1} r3"),
    (["mul", f"L^{MAX_MINUS_ONE_POWER}", f"L^{MAX_MINUS_ONE_POWER}", "-n", "3", "--coeff", "Z"],
     0, f"{{-1}}^{2 * MAX_MINUS_ONE_POWER}"),
    (["mul", "r2", "r2", "-n", "3", "--char", str(PSI_13)], 2,
     f"Error: cannot decide whether {PSI_13} is prime: primality is decided only below {PSI_13}"),
    (["power", "-i", "1", "-p", str(PSI_13), "r1", "-n", "3", "--coeff", f"Z/{PSI_13}"], 2,
     f"Error: cannot decide whether {PSI_13} is prime: primality is decided only below {PSI_13}"),
    (["mul", "L^1000000000000", "r1", "-n", "3", "--coeff", "Z"], 2,
     "Error: {-1}-power 1000000000000 is above the 1000000 that element input takes"),
    (["mul", minus_one_json(MAX_MINUS_ONE_POWER + 1), "r1", "-n", "3", "--coeff", "Z"], 2,
     "Error: {-1}-power 1000001 is above the 1000000 that element input takes"),
    # integers of more digits than Python converts from a string (4,300)
    (["mul", "r" + HUGE, "r1", "-n", "3"], 2,
     "Error: generator index of 5000 digits is longer than element input takes"),
    (["mul", "L^" + HUGE, "r1", "-n", "3"], 2,
     "Error: {-1}-power of 5000 digits is longer than element input takes"),
    (["mul", minus_one_json(0).replace('"k": 0', '"k": ' + HUGE), "r1", "-n", "3"], 2,
     "Error: JSON integer of 5000 digits is longer than element input takes"),
    # nesting deeper than json parses, in a 1.5 kB argument
    (["mul", '{"a":' + "[" * 1500, "r1", "-n", "3"], 2,
     "Error: invalid JSON: maximum recursion depth exceeded while decoding a JSON array "
     "from a unicode string"),
    # rings whose n has 20 digits: nothing n bits wide may be built for these
    (["present", "-n", N20], 3,
     f"error: W({N20},{N20}) has {N20} generators, more than the 10000 that present prints"),
    (["series", "-n", N20, "-m", "3"], 0,
     "1 + T^(199999999999999999993,99999999999999999997)"
     " + T^(199999999999999999995,99999999999999999998)"
     " + T^(199999999999999999997,99999999999999999999)"
     " + T^(399999999999999999988,199999999999999999995)"
     " + T^(399999999999999999990,199999999999999999996)"
     " + T^(399999999999999999992,199999999999999999997)"
     " + T^(599999999999999999985,299999999999999999994)"),
    (["basis", "-p", "1", "-q", "1", "-n", N20, "-m", "2"], 0, "  k=1: {-1}"),
    # maps on 40,000 generators, built without a product per generator
    (["map", "imm", "r3", "-n", "40000"], 0, "r3"),
    (["map", "neg", "r3", "-n", "40000"], 0, "r3"),
]


@pytest.mark.parametrize("args, code, last", BOUNDED, ids=[
    "power at 2^61-1", "char 2^61-1", "L^bound squared", "char psi_13", "power at psi_13",
    "L^10^12", "json k above bound", "r<5000 digits>", "L^<5000 digits>",
    "json int of 5000 digits", "json nested 1500 deep", "present at n of 20 digits",
    "series at n of 20 digits", "basis at n of 20 digits", "imm on GL(40000)",
    "neg on GL(40000)"])
def test_large_primes_and_powers_answer_or_refuse_fast(args, code, last):
    start = time.perf_counter()
    result = run(*args)
    assert time.perf_counter() - start < 1
    assert result.exit_code == code
    assert result.output.splitlines()[-1] == last
    assert code != 3 or len(result.output.splitlines()) == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)


# each ring command with arguments of its own that fail too, so that the
# presentation's error must come first
RING_COMMANDS = {
    "present": [], "mul": ["bad", "bad"], "sq": ["-i", "-1", "bad"],
    "power": ["-p", "4", "bad"], "basis": ["-p", "1", "-q", "1"], "series": [],
    "map": ["proj", "bad"],
}
BAD_RINGS = [
    (["-n", "2", "-m", "3"], "Error: m > n: a full-rank 2x3 matrix cannot exist"),
    (["-n", "2", "--coeff", "Z/1"], "Error: modulus must be 0 (meaning Z) or at least 2, got 1"),
    (["-n", "2", "--char", "4"], "Error: the characteristic of a field is 0 or a prime, got 4"),
]


@pytest.mark.parametrize("command", list(RING_COMMANDS))
@pytest.mark.parametrize("ring_args, message", BAD_RINGS, ids=["m", "coeff", "char"])
def test_bad_ring_options_are_usage_errors(command, ring_args, message):
    result = run(command, *RING_COMMANDS[command], *ring_args)
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == message


def r1_json(**fields):
    """The JSON of rho_1 in GL(3) over Z, with fields replaced."""
    return json.dumps({"n": 3, "m": 3, "coeff": "Z", "minus_one_is_square": False,
                       "terms": [{"gens": [1], "mcoeff": [{"k": 0, "c": 1}]}], **fields})


REFUSED = [
    (["mul", r1_json(terms=[{"gens": [1], "mcoeff": 5}]), "r1"], "Error: mcoeff must be a list"),
    (["mul", r1_json(coeff=2), "r1"], "Error: coeff must be a string"),
    (["mul", r1_json(minus_one_is_square=1), "r1"],
     "Error: minus_one_is_square must be a boolean"),
    (["mul", minus_one_json(-1), "r1"], "Error: negative power of {-1}"),
    (["map", "perm", "r1", "--sigma", "a,b"], "Error: cannot parse permutation 'a,b'"),
]


@pytest.mark.parametrize("args, message", REFUSED, ids=[
    "mcoeff", "coeff", "minus_one_is_square", "negative k", "sigma"])
def test_refusals_are_usage_errors(args, message):
    result = run(*args, "-n", "3", "--coeff", "Z")
    assert result.exit_code == 2
    assert [line for line in result.output.splitlines() if line.startswith("Error:")] == [message]


class TestBasisAndSeries:
    def test_basis_gl2(self):
        result = run("basis", "-p", "4", "-q", "3", "-n", "2", "-m", "2", "--coeff", "Z")
        assert result.exit_code == 0
        assert "Z^1 (+) (Z/2)^1" in result.output
        assert "r1 r2" in result.output

    def test_basis_negative_weight(self):
        result = run("basis", "-p", "5", "-q", "-1", "-n", "2", "-m", "2")
        assert "0" in result.output

    def test_basis_json(self):
        result = run("basis", "-p", "4", "-q", "3", "-n", "2", "-m", "2",
                     "--coeff", "Z", "--format", "json")
        data = json.loads(result.output)
        assert data["lines"] == [{"gens": [1, 2], "k": 0}, {"gens": [2], "k": 1}]

    def test_basis_size_guard(self):
        # 1,310,802 lines over Z: refused before anything is listed
        result = run("basis", "-p", "300", "-q", "160", "-n", "28", "--coeff", "Z")
        assert result.exit_code == 3
        assert result.output.splitlines() == [
            "error: bidegree (300,160) of W(28,28) has 1310802 basis lines, "
            "more than the 100000 that basis lists"]

    def test_basis_size_guard_passes_empty_piece(self):
        # over Z/3 only free lines survive, and there are none in (300, 160)
        result = run("basis", "-p", "300", "-q", "160", "-n", "28", "--coeff", "Z/3")
        assert result.exit_code == 0
        assert result.output.strip() == "bidegree (300,160) of H(W(28,28); Z/3): 0"

    def test_basis_size_guard_counts_only_low_weights(self):
        # the count reads one Gaussian binomial coefficient per {-1}-power,
        # so GL(120)'s 288,101 bidegrees are never expanded for this piece
        start = time.perf_counter()
        result = run("basis", "-p", "3", "-q", "2", "-n", "120")
        assert time.perf_counter() - start < 5.0
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "bidegree (3,2) of H(W(120,120); Z/2): (Z/2)^1", "  k=0: r2"]

    @pytest.mark.parametrize("degree,weight,size", [
        ("3570", "1815", "7388217907812115418769229782"),
        ("7200", "3630", "801225408602022163737761136115732")])
    def test_basis_size_guard_refuses_huge_gl120_pieces_quickly(self, degree, weight, size):
        # the counts of the Poincare expansion up to weight q, which takes
        # 10-25 s at this size; the closed form refuses in under a second
        start = time.perf_counter()
        result = run("basis", "-p", degree, "-q", weight, "-n", "120")
        assert time.perf_counter() - start < 5.0
        assert result.exit_code == 3
        assert result.output.splitlines() == [
            f"error: bidegree ({degree},{weight}) of W(120,120) has {size} "
            "basis lines, more than the 100000 that basis lists"]

    @pytest.mark.parametrize("coeff,minus_one", [
        ("Z", "nonsquare"), ("Z/3", "nonsquare"), ("Z", "square")])
    def test_piece_size_counts_the_lines(self, coeff, minus_one):
        pres = build_presentation(7, 5, coeff, minus_one, None)
        for q in range(-1, 30):
            for p in range(q - 7, 2 * q + 2):
                assert piece_size(pres, (p, q)) == len(basis_in_bidegree(pres, (p, q)))

    @pytest.mark.parametrize("coeff,minus_one", [
        ("Z", "nonsquare"), ("Z/2", "nonsquare"), ("Z/3", "nonsquare"), ("Z", "square")])
    def test_report_lines_match_element_text(self, coeff, minus_one):
        # each line of basis_report reads as element_text of the line's element,
        # on every piece of W(n, m), n <= 7, of weight up to the top one + 1
        for n in range(1, 8):
            for m in range(0, n + 1):
                pres = build_presentation(n, m, coeff, minus_one, None)
                top = sum(pres.generators) + 1
                for q in range(0, top + 1):
                    for p in range(q - m, 2 * q + 1):
                        lines = basis_in_bidegree(pres, (p, q))
                        for latex in (False, True):
                            report = basis_report(pres, (p, q), lines, latex=latex)
                            assert report.splitlines()[1:] == [
                                f"  k={k}: {element_text(basis_element(pres, mono, k), latex)}"
                                for mono, k in lines]

    def test_series_gl2(self):
        result = run("series", "-n", "2", "-m", "2")
        assert result.output.strip() == "1 + T^(1,1) + T^(3,2) + T^(4,3)"

    def test_series_w_n0(self):
        result = run("series", "-n", "5", "-m", "0")
        assert result.output.strip() == "1"

    def test_series_json(self):
        result = run("series", "-n", "2", "-m", "2", "--format", "json")
        data = json.loads(result.output)
        assert {"p": 4, "q": 3, "count": 1} in data

    def test_series_guard_refuses_quickly(self):
        # -n 200 printed nothing in 120 s before the guard; the 1,333,501
        # terms are counted in closed form
        start = time.perf_counter()
        result = run("series", "-n", "200")
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 3
        assert result.output.splitlines() == [
            "error: the Poincare series of W(200,200) has 1333501 terms, "
            "more than the 10000 that series prints"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_series_guard_lets_the_largest_series_through(self, fmt):
        # m = 39 gives 9,920 terms, m = 40 gives 10,701
        start = time.perf_counter()
        result = run("series", "-n", "1000000", "-m", "39", "--format", fmt)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 0
        assert run("series", "-n", "40", "--format", fmt).exit_code == 3


class TestMap:
    def test_cmp_spec_example(self):
        result = run("map", "cmp", "r3", "-n", "3")
        assert result.exit_code == 0
        assert result.output.strip() == "s e^2"

    def test_cmp_rejects_partial_frames(self):
        result = run("map", "cmp", "r3", "-n", "3", "-m", "2")
        assert result.exit_code == 2

    def test_imm(self):
        result = run("map", "imm", "r3", "-n", "3", "-m", "3", "--coeff", "Z")
        assert result.output.strip() == "0"
        result = run("map", "imm", "r2", "-n", "3", "-m", "3", "--coeff", "Z")
        assert result.output.strip() == "r2"

    def test_proj(self):
        result = run("map", "proj", "r4", "-n", "4", "-m", "1", "--m-big", "3")
        assert result.output.strip() == "r4"
        missing = run("map", "proj", "r4", "-n", "4", "-m", "1")
        assert missing.exit_code == 2

    def test_perm_and_neg(self):
        result = run("map", "perm", "r2", "-n", "3", "-m", "3", "--sigma", "2,1,3")
        assert result.output.strip() == "r2"
        result = run("map", "neg", "r3", "-n", "4", "-m", "2", "--coeff", "Z")
        assert result.output.strip() == "r3"

    def test_bad_permutation(self):
        result = run("map", "perm", "r2", "-n", "3", "-m", "3", "--sigma", "1,1,2")
        assert result.exit_code == 2

    def test_cmp_json_output(self):
        from stiefel.serialize import MAX_MINUS_ONE_POWER, element_from_json, element_to_json
        from stiefel.targets import PGmPresentation
        result = run("map", "cmp", "r3", "-n", "3", "--format", "json")
        assert result.exit_code == 0
        element = element_from_json(result.output, PGmPresentation)
        assert element.terms[0][0] == (1, 2)
        data = json.loads(result.output)
        assert set(data) == {"n", "coeff", "minus_one_is_square", "terms"}


class TestCheck:
    def test_single_suite(self):
        result = run("check", "--suite", "commutativity", "--seed", "42")
        assert result.exit_code == 0
        assert "PASS commutativity" in result.output

    def test_cartan_oracle_suite(self, monkeypatch):
        # the seed-0 run that the acceptance and golden tests share
        monkeypatch.setattr(suites, "run_suite", shared_result)
        result = run("check", "--suite", "cartan-oracle")
        assert result.exit_code == 0
        assert "PASS cartan-oracle" in result.output

    def test_unknown_suite(self):
        result = run("check", "--suite", "nonsense")
        assert result.exit_code == 2
        assert f"unknown suite 'nonsense'; available: {', '.join(suites.SUITES)}" in result.output

    def test_key_error_inside_a_suite_is_not_a_usage_error(self, monkeypatch):
        def planted(seed):
            raise KeyError("raised by the suite body")

        monkeypatch.setitem(suites.SUITES, "planted", planted)
        result = run("check", "--suite", "planted")
        assert result.exit_code != 2
        assert isinstance(result.exception, KeyError)
        assert "unknown suite" not in result.output

    def test_seed_env_override(self, monkeypatch):
        # one shared run per seed: an ignored STIEFEL_SEED would show seed=123
        monkeypatch.setattr(suites, "run_suite", shared_result)
        with_flag = run("check", "--suite", "associativity", "--seed", "7")
        with_env = run("check", "--suite", "associativity", "--seed", "123",
                       env={"STIEFEL_SEED": "7"})
        assert with_env.output == with_flag.output
        assert "seed=7" in with_env.output

    def test_bad_env_seed(self):
        result = run("check", "--suite", "associativity", env={"STIEFEL_SEED": "pi"})
        assert result.exit_code == 2

    def test_determinism(self):
        one = run("check", "--suite", "json-roundtrip", "--seed", "5")
        two = run("check", "--suite", "json-roundtrip", "--seed", "5")
        assert one.output == two.output

    def test_json_format(self, monkeypatch):
        monkeypatch.setattr(suites, "run_suite", shared_result)
        result = run("check", "--format", "json")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert [entry["name"] for entry in data] == suites.suite_names()
        for entry in data:
            shared = suite_run(entry["name"], 0).result
            assert set(entry) == {"name", "cases", "seconds", "failures"}
            assert (entry["cases"], entry["failures"]) == (shared.cases, shared.failures)
            assert entry["seconds"] >= 0
        text = run("check")
        assert text.output.splitlines() == [
            f"PASS {e['name']} ({e['cases']} cases)" for e in data
        ] + [f"{len(data)}/{len(data)} suites passed, seed=0"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_failure_exits_4(self, monkeypatch, fmt):
        monkeypatch.setattr(suites, "run_suite",
                            lambda name, seed: suites.SuiteResult(name, 3, ["planted"]))
        result = run("check", "--suite", "rank", "--format", fmt)
        assert result.exit_code == 4
        if fmt == "json":
            [entry] = json.loads(result.output)
            assert (entry["name"], entry["cases"], entry["failures"]) == ("rank", 3, ["planted"])
        else:
            assert result.output.splitlines()[0] == "FAIL rank (3 cases): planted"


def fresh_modules(code: str) -> set[str]:
    """Run code in a fresh interpreter that imports stiefel from this
    checkout; return the stiefel modules it loaded, and fractions if it
    loaded that."""
    code = ("import json, sys\n" + code + "print(json.dumps(sorted(\n"
            "    m for m in sys.modules if m.startswith('stiefel.') or m == 'fractions')))\n")
    src = str(Path(stiefel.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


# the modules each command loads, run in a fresh interpreter; none loads fractions
_LEAN = {"stiefel.errors", "stiefel.coefficients", "stiefel.algebra", "stiefel.serialize",
         "stiefel.render", "stiefel.cli"}
_OPERATIONS = _LEAN | {"stiefel.operations"}
FOOTPRINTS = [
    (["present", "-n", "3"], _LEAN),
    (["mul", "r1", "r2", "-n", "3"], _LEAN),
    (["basis", "-p", "4", "-q", "3", "-n", "2"], _LEAN),
    (["series", "-n", "3"], _LEAN),
    (["--help"], _LEAN),
    (["sq", "-i", "2", "r2", "-n", "3"], _OPERATIONS),
    (["power", "-i", "1", "-p", "3", "r2", "-n", "4", "--coeff", "Z/3"], _OPERATIONS),
    (["map", "cmp", "r3", "-n", "3"], _LEAN | {"stiefel.maps", "stiefel.targets"}),
    (["check", "--suite", "rank"],
     _OPERATIONS | {"stiefel.maps", "stiefel.targets", "stiefel.suites"}),
]


@pytest.mark.parametrize("args, expected", FOOTPRINTS, ids=[a[0] for a, _ in FOOTPRINTS])
def test_import_footprint(args, expected):
    assert fresh_modules(f"import stiefel.cli\n"
                         f"stiefel.cli.main(args={args!r}, standalone_mode=False)\n") == expected


# what one function of a module runs, it imports at call time; linalg's
# helpers load no fractions even when called
@pytest.mark.parametrize("module, call, absent", [
    ("stiefel.targets", "", "stiefel.operations"),
    ("stiefel.maps", "", "stiefel.linalg"),
    ("stiefel.linalg", "", "fractions"),
    ("stiefel.linalg", "stiefel.linalg.solve_integer([[2, 0], [0, 3]], [[4, 3]])\n"
                       "stiefel.linalg.diagonalize([[1, 1], [2, 4]])\n", "fractions"),
], ids=["targets", "maps", "linalg", "linalg-calls"])
def test_import_leaves_out_what_only_a_call_runs(module, call, absent):
    loaded = fresh_modules(f"import {module}\n{call}")
    assert module in loaded
    assert absent not in loaded
