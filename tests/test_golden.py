"""Golden digests of the package's observable output.

Each group renders a fixed, seeded set of requests to text and compares
the sha256 of that text with a digest recorded from a known-good build: CLI
text, JSON and LaTeX output, the --help text of every command, the JSON
wire format, products and sums in both rings, Tate lines and random
elements, operations, comparison-map images, the graded-piece kernels of
every total built-in map and of random multi-term maps, every suite
verdict with its case count, the (ok, message) of every check the suites
make, and the failures they report under a planted failure rule.  A
refactor that is meant to change no output must leave every digest as it
is.  `python tests/test_golden.py [GROUP ...]` prints the current digests
of the named groups, or of all of them.
"""

from __future__ import annotations

import hashlib
import random
import sys
import zlib
from unittest import mock

import pytest
from click.testing import CliRunner

from stiefel import algebra, suites, targets
from stiefel.algebra import StiefelPresentation
from stiefel.cli import main
from stiefel.coefficients import CoeffRing, FieldProfile, MCoefficient
from stiefel.maps import (SymmetryKind, apply_map, comparison_map, immersion_pullback,
                          kernel_basis, projection_pullback, symmetry_pullback)
from stiefel.operations import apply_operation, bockstein, power, square
from stiefel.render import element_text
from stiefel.serialize import element_to_json
from stiefel.targets import PGmElement, PGmPresentation

from random_maps import random_total_maps
from suite_runs import shared_result, suite_run

RINGS = (CoeffRing(), CoeffRing(2), CoeffRing(3), CoeffRing(4))
PROFILES = (FieldProfile(), FieldProfile(minus_one_is_square=True))


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _contexts(max_n: int):
    for ring in RINGS:
        for profile in PROFILES:
            for n in range(1, max_n + 1):
                yield ring, profile, n


def _shown(x) -> list[str]:
    return [element_to_json(x), element_text(x), element_text(x, latex=True)]


def _random_tate(pres: PGmPresentation, rng: random.Random):
    """Up to four terms sigma^s eta^e with mixed {-1}-power coefficients,
    built directly on the constructor."""
    terms = []
    for _ in range(rng.randint(0, 4)):
        key = (rng.randint(0, 1), rng.randrange(pres.n))
        powers = tuple((k, rng.randint(-3, 3)) for k in rng.sample((0, 1, 2), rng.randint(1, 2)))
        terms.append((key, MCoefficient(pres.ring, pres.profile, powers)))
    return PGmElement(pres, tuple(terms))


def group_check() -> list[str]:
    with mock.patch.object(suites, "run_suite", shared_result):
        result = CliRunner().invoke(main, ["check", "--suite", "all", "--seed", "0"])
    return [str(result.exit_code), result.output]


def group_suite_cases() -> list[str]:
    """The case log of every suite at seed 0, from the run `check` shows."""
    return [f"{name} {suite_run(name, 0).case_log}" for name in suites.suite_names()]


def group_suite_failures() -> list[str]:
    """Every suite at seeds 0 and 1 with the verdict of each check whose
    message has a crc32 divisible by 5 flipped, so that each suite reaches
    its stops at saturation."""
    check = suites.SuiteResult.check

    def planted(self, ok, message):
        check(self, ok != (zlib.crc32(message.encode()) % 5 == 0), message)

    out = []
    with mock.patch.object(suites.SuiteResult, "check", planted):
        for seed in (0, 1):
            for name in suites.suite_names():
                result = suites.run_suite(name, seed)
                out.append(f"{seed} {result.name} {result.cases} {result.failures}")
    return out


def group_stiefel_arithmetic() -> list[str]:
    out = []
    for ring, profile, n in _contexts(7):
        for m in range(n + 1):
            pres = StiefelPresentation(n, m, ring, profile)
            for seed in range(2):
                x = algebra.random_element(pres, None, seed=17 * seed + n)
                y = algebra.random_element(pres, None, seed=31 * seed + m + 100)
                out += _shown(x * y) + _shown(x + y) + [element_to_json(x - y)]
    return out


def group_tate_arithmetic() -> list[str]:
    out = []
    rng = random.Random(7)
    for ring, profile, n in _contexts(7):
        pres = PGmPresentation(n, ring, profile)
        for _ in range(6):
            x, y = _random_tate(pres, rng), _random_tate(pres, rng)
            out += _shown(x) + _shown(x * y) + _shown(x + y)
            out += [element_to_json(y * x), element_to_json(x - y), element_to_json(x * 3)]
        out += _shown(pres.sigma() * pres.sigma()) + _shown(pres.eta(n - 1) * pres.eta(1))
    return out


def group_tate_lines() -> list[str]:
    out = []
    for ring, profile, n in _contexts(7):
        pres = PGmPresentation(n, ring, profile)
        for p in range(-1, 2 * n + 3):
            for q in range(-1, n + 3):
                lines = targets.basis_in_bidegree(pres, (p, q))
                out.append(f"{n} {ring.name} {profile.minus_one_is_square} ({p},{q}) {lines}")
                if lines:
                    out.append(element_to_json(algebra.random_element(pres, (p, q), seed=p * q)))
        for seed in range(4):
            out.append(element_to_json(algebra.random_element(pres, None, seed=seed)))
    return out


def group_tate_operations() -> list[str]:
    out = []
    rng = random.Random(11)
    for p in (2, 3, 5):
        ring = CoeffRing(p)
        ops = ([square(i) for i in range(7)] if p == 2
               else [power(i, p) for i in range(4)] + [bockstein(p)])
        for profile in PROFILES:
            for n in range(1, 8):
                pres = PGmPresentation(n, ring, profile)
                for _ in range(3):
                    x = _random_tate(pres, rng)
                    out += [element_to_json(apply_operation(op, x)) for op in ops]
                f = comparison_map(n, ring, profile)
                for seed in range(3):
                    x = algebra.random_element(f.source, None, seed=seed + 10 * n)
                    out += _shown(apply_map(f, x))
                for q in range(n + 2):
                    for deg in range(2 * q + 1):
                        out += [element_to_json(k) for k in kernel_basis(f, (deg, q))]
    return out


def _total_maps(n, ring, profile):
    """Every total built-in map out of a Stiefel ring with ambient dimension n."""
    for m_big in range(n + 1):
        for m_small in range(m_big + 1):
            yield projection_pullback(n, m_small, m_big, ring, profile)
    for m in range(n + 1):
        if n >= 2 and m >= 1:
            yield immersion_pullback(n, m, ring, profile)
        yield symmetry_pullback(n, m, SymmetryKind.PERMUTATION, ring=ring, profile=profile)
        if m >= 1:
            yield symmetry_pullback(n, m, SymmetryKind.NEGATE_FIRST_COLUMN,
                                    ring=ring, profile=profile)
    yield comparison_map(n, ring, profile)


def _kernel_lines(f) -> list[str]:
    out = []
    top = sum(f.source.generators)
    for q in range(top + 2):
        for deg in range(q, 2 * q + 1):
            kernel = kernel_basis(f, (deg, q))
            if kernel:
                out.append(f"{f.label} {f.source} ({deg},{q})")
                out += [element_to_json(k) for k in kernel]
    return out


def group_kernels() -> list[str]:
    out = []
    for ring, profile, n in _contexts(5):
        for f in _total_maps(n, ring, profile):
            out += _kernel_lines(f)
    for f in random_total_maps(RINGS):
        out += [f"{f.target}"] + [element_to_json(img) for _, img in f.images]
        out += _kernel_lines(f)
    return out


def _ring_args(n, m, ring, fmt, square_profile=False):
    args = ["-n", str(n), "-m", str(m), "--coeff", ring, "--format", fmt]
    return args + (["--minus-one", "square"] if square_profile else [])


def _cli_requests() -> list[list[str]]:
    reqs = []
    for fmt in ("text", "json", "latex"):
        for ring in ("Z", "Z/2", "Z/3", "Z/4"):
            for n in range(1, 7):
                for m in {n // 2, n}:
                    args = _ring_args(n, m, ring, fmt, square_profile=(n + m) % 3 == 0)
                    reqs.append(["present", *args])
                    reqs.append(["series", *args])
                    reqs.append(["basis", "-p", str(2 * n - 1), "-q", str(n), *args])
                    reqs.append(["basis", "-p", str(n + 2), "-q", str(n // 2 + 2), *args])
                    if m:
                        top, low = f"r{n}", f"r{n - m + 1}"
                        reqs.append(["mul", low, low, *args])
                        reqs.append(["mul", low, top, *args])
                        reqs.append(["mul", "L", top, *args])
                        reqs.append(["map", "imm", top, *args] if n > 1 else ["mul", "1", top, *args])
            for n in range(1, 7):
                reqs.append(["map", "cmp", f"r{n}", *_ring_args(n, n, ring, fmt)])
                reqs.append(["map", "cmp", "L", *_ring_args(n, n, ring, fmt, True)])
        for n in range(2, 7):
            for i in range(0, 5):
                reqs.append(["sq", "-i", str(i), f"r{n // 2 + 1}", *_ring_args(n, n, "Z/2", fmt)])
            reqs.append(["power", "-i", "1", "-p", "3", "r2", *_ring_args(n, n, "Z/3", fmt)])
    return reqs


def group_cli() -> list[str]:
    runner = CliRunner()
    out = []
    for argv in _cli_requests():
        result = runner.invoke(main, argv)
        out.append(f"{' '.join(argv)} -> {result.exit_code}\n{result.output}")
    return out


def group_cli_json_elements() -> list[str]:
    runner = CliRunner()
    out = []
    rng = random.Random(3)
    for ring, profile, n in _contexts(6):
        pres = StiefelPresentation(n, n, ring, profile)
        args = _ring_args(n, n, ring.name, "json", profile.minus_one_is_square)
        x = algebra.random_element(pres, None, seed=rng.randrange(1000))
        y = algebra.random_element(pres, None, seed=rng.randrange(1000))
        result = runner.invoke(main, ["mul", element_to_json(x), element_to_json(y), *args])
        out.append(f"{result.exit_code}\n{result.output}")
        tate = _random_tate(PGmPresentation(n, ring, profile), rng)
        # a Tate document is not a Stiefel element: a usage error
        result = runner.invoke(main, ["mul", element_to_json(tate), "r1", *args])
        out.append(f"{result.exit_code}\n{result.output}")
    return out


def group_help() -> list[str]:
    """The --help text of the group and of each of its commands, at a fixed width."""
    runner = CliRunner()
    out = []
    for argv in ([], *([name] for name in main.commands)):
        result = runner.invoke(main, [*argv, "--help"], terminal_width=80)
        out.append(f"{' '.join(argv)} -> {result.exit_code}\n{result.output}")
    return out


GROUPS = {
    "check": group_check,
    "stiefel-arithmetic": group_stiefel_arithmetic,
    "tate-arithmetic": group_tate_arithmetic,
    "tate-lines": group_tate_lines,
    "tate-operations": group_tate_operations,
    "cli": group_cli,
    "cli-json-elements": group_cli_json_elements,
    "kernels": group_kernels,
    "suite-cases": group_suite_cases,
    "suite-failures": group_suite_failures,
    "help": group_help,
}

GOLDEN = {
    "check": "51dcb538acb2bd006b62983423abfe5ee47c213f7af3d190df6e80198ca294e0",
    "stiefel-arithmetic": "6ce484189c8af7db3f9e35f27abb860afae72d512230820164fff867b59450a8",
    "tate-arithmetic": "c96f7dd856ad252c6b1f76948ffabd9ae030f02b8b9d8ae975d5453b9cc9a398",
    "tate-lines": "27735e21ea77d404da5b0090e73de0ebaae6db2fc4181ad8244517bfcc15c093",
    "tate-operations": "6de1a34ad10f97784ee0d88955dac8351780cc26d13dadab0dcddcc233910738",
    "cli": "362e7e9fd3702eafc04edb3801409323110aaf18483881f594226ecb914490d0",
    "cli-json-elements": "5ef9c036fc4afcd3bf0acb6237100101c7ad8e1d43319d1fdbf40cea7eed3908",
    "kernels": "65fb22a8d10b50643529f16c94cc51d0a55129c000239468a7764b48c2eec3d8",
    "suite-cases": "82b04be9a10fdf121800a59cae49b4540adc5870b4c103c9c51acdb04870c73b",
    "suite-failures": "1dc00d00a5714ce61227f952dea2398c0401ce8c84a40de8e8f502ed213b1eff",
    "help": "7d9ee36296c9a81c6258f03fd810fa4fe27ca5a9bc5251f62d4ff2e1e02ac777",
}


@pytest.mark.parametrize("name", list(GROUPS))
def test_output_matches_golden_digest(name):
    assert _digest(GROUPS[name]()) == GOLDEN[name]


if __name__ == "__main__":
    for name in sys.argv[1:] or GROUPS:
        print(f'    "{name}": "{_digest(GROUPS[name]())}",')
