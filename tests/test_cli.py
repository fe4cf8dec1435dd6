import json

import pytest
from click.testing import CliRunner

from stiefel.algebra import basis_element, basis_in_bidegree
from stiefel.cli import _piece_size, build_presentation, main
from stiefel.render import basis_report, element_text
from stiefel.serialize import element_from_json


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

    def test_generator_out_of_range(self):
        result = run("mul", "r9", "r2", "-n", "3", "-m", "3")
        assert result.exit_code == 3


class TestOperations:
    def test_sq_spec_example(self):
        result = run("sq", "-i", "2", "r2", "-n", "3", "-m", "3")
        assert result.exit_code == 0
        assert result.output.strip() == "r3"

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

    @pytest.mark.parametrize("coeff,minus_one", [
        ("Z", "nonsquare"), ("Z/3", "nonsquare"), ("Z", "square")])
    def test_piece_size_counts_the_lines(self, coeff, minus_one):
        pres = build_presentation(7, 5, coeff, minus_one, None)
        for q in range(-1, 30):
            for p in range(q - 7, 2 * q + 2):
                assert _piece_size(pres, p, q) == len(basis_in_bidegree(pres, (p, q)))

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
        from stiefel.serialize import element_from_json
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

    def test_cartan_oracle_suite(self):
        result = run("check", "--suite", "cartan-oracle")
        assert result.exit_code == 0
        assert "PASS cartan-oracle" in result.output

    def test_unknown_suite(self):
        result = run("check", "--suite", "nonsense")
        assert result.exit_code == 2

    def test_seed_env_override(self):
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
