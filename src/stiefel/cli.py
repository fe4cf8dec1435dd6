"""Command-line surface.

Exit codes: 0 success, 2 usage error, 3 math-context error (also a basis
piece of more than MAX_BASIS_LINES lines, a Poincare series of more than
MAX_SERIES_TERMS terms, a presentation of more than MAX_PRESENT_GENERATORS
generators, or a map whose source has more than MAX_MAP_GENERATORS), 4
property failure.  The environment variable STIEFEL_SEED overrides --seed.

Every ring command takes its ring through ring_options, which hands it one
StiefelPresentation built, like everything the command raises, inside
guarded.  Start-up is most of a short call, so `operations`, `maps` and
`suites` are imported inside the commands that run them, not here.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
import time

import click

from . import serialize
from .algebra import Element, StiefelPresentation, basis_in_bidegree, piece_size
from .coefficients import FieldProfile
from .errors import (ContextMismatch, ElementParseError, InvalidPresentation,
                     StiefelError, digits_int)
from .render import (basis_report, element_text, presentation_dict,
                     presentation_latex, presentation_text, series_entries,
                     series_text)

MATH_ERROR = 3
PROPERTY_FAILURE = 4
# `basis` refuses pieces with more lines than this, counted before listing
MAX_BASIS_LINES = 100_000
# `series` refuses series with more terms than this, counted before expanding:
# W(n, m) with m <= 39, which prints in well under a second
MAX_SERIES_TERMS = 10_000
# `present` refuses rings with more generators than this, before building
# anything: its output has a line or an entry per generator, and 10,000 of
# them print in well under a second
MAX_PRESENT_GENERATORS = 10_000
# `map` refuses sources with more generators than this, before building any of
# their images, one per generator: `map imm` on 50,000 answers in a third of a second
MAX_MAP_GENERATORS = 50_000


def guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (InvalidPresentation, ElementParseError) as exc:
            raise click.UsageError(str(exc))
        except StiefelError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(MATH_ERROR)
    return wrapper


def ring_options(fn):
    """Add the ring options to a command and call it with the presentation
    they give as its first argument.  The presentation is built before the
    command parses anything else, and both run inside guarded."""
    @click.option("-n", type=int, required=True, help="Ambient dimension.")
    @click.option("-m", type=int, default=None,
                  help="Frame length (defaults to n, giving GL(n)).")
    @click.option("--coeff", default="Z/2", show_default=True,
                  help='Coefficient ring: "Z" or "Z/<m>".')
    @click.option("--minus-one", type=click.Choice(["square", "nonsquare"]),
                  default="nonsquare", show_default=True,
                  help="Whether -1 is a square in the ground field.")
    @click.option("--char", "characteristic", type=int, default=None,
                  help="Record the characteristic of the ground field.")
    @click.option("--format", "fmt", type=click.Choice(["text", "json", "latex"]),
                  default="text", show_default=True, help="Output format.")
    @functools.wraps(fn)
    @guarded
    def command(n, m, coeff, minus_one, characteristic, **kwargs):
        return fn(build_presentation(n, m, coeff, minus_one, characteristic), **kwargs)
    return command


def build_presentation(n, m, coeff, minus_one, characteristic) -> StiefelPresentation:
    ring = serialize.parse_coeff(coeff)
    profile = FieldProfile(minus_one == "square", characteristic)
    return StiefelPresentation(n, n if m is None else m, ring, profile)


def parse_element(token: str, pres: StiefelPresentation) -> Element:
    token = token.strip()
    if token.startswith("{"):
        element = serialize.element_from_json(token)
        # element JSON records no characteristic: compare what it carries,
        # then rebuild the element in the command's presentation
        if ((element.pres.n, element.pres.m, element.pres.ring,
             element.pres.profile.minus_one_is_square)
                != (pres.n, pres.m, pres.ring, pres.profile.minus_one_is_square)):
            raise ContextMismatch("element JSON context differs from the command options")
        return pres.from_table(element.pres.table(element))
    if token == "0":
        return pres.zero()
    if token == "1":
        return pres.unit()
    hit = re.fullmatch(r"r(\d+)", token)
    if hit:
        return pres.gen(digits_int(hit.group(1), "generator index"))
    hit = re.fullmatch(r"L(?:\^(\d+))?", token)
    if hit:
        k = digits_int(hit.group(1) or "1", "{-1}-power")
        return pres.minus_one(serialize.minus_one_power(k))
    raise ElementParseError(
        f"cannot parse element {token!r}: use r<i>, L, L^<k>, 0, 1 or element JSON")


def emit_element(x, fmt: str) -> None:
    if fmt == "json":
        click.echo(serialize.element_to_json(x))
    elif fmt == "latex":
        click.echo(element_text(x, latex=True))
    else:
        click.echo(element_text(x))


def _emit_operation(make_op, pres: StiefelPresentation, x: str, fmt: str) -> None:
    """Emit make_op() applied to the element x; make_op's ValueError is a usage error."""
    from .operations import apply_operation

    try:
        op = make_op()
    except ValueError as exc:
        raise click.UsageError(str(exc))
    emit_element(apply_operation(op, parse_element(x, pres)), fmt)


@click.group()
def main():
    """Exact cohomology of Stiefel varieties: presentations, products,
    Steenrod operations, induced maps, and property suites."""


@main.command()
@ring_options
def present(pres, fmt):
    """Print the ring presentation of H(W(n, m))."""
    if pres.m > MAX_PRESENT_GENERATORS:
        raise StiefelError(f"W({pres.n},{pres.m}) has {pres.m} generators, "
                           f"more than the {MAX_PRESENT_GENERATORS} that present prints")
    if fmt == "json":
        click.echo(json.dumps(presentation_dict(pres)))
    elif fmt == "latex":
        click.echo(presentation_latex(pres))
    else:
        click.echo(presentation_text(pres))


@main.command()
@click.argument("x")
@click.argument("y")
@ring_options
def mul(pres, x, y, fmt):
    """Multiply two elements."""
    emit_element(parse_element(x, pres) * parse_element(y, pres), fmt)


@main.command()
@click.option("-i", "index", type=int, required=True, help="Apply Sq^i.")
@click.argument("x")
@ring_options
def sq(pres, index, x, fmt):
    """Apply the motivic Steenrod square Sq^i (odd i gives zero)."""
    from .operations import square

    _emit_operation(lambda: square(index), pres, x, fmt)


@main.command("power")
@click.option("-i", "index", type=int, default=0, show_default=True, help="Apply P^i.")
@click.option("-p", "prime", type=int, required=True, help="The odd prime.")
@click.option("--bockstein", "use_bockstein", is_flag=True,
              help="Apply the Bockstein instead of P^i.")
@click.argument("x")
@ring_options
def power_cmd(pres, index, prime, use_bockstein, x, fmt):
    """Apply the reduced power P^i (or the Bockstein) at an odd prime."""
    from .operations import bockstein, power

    _emit_operation(lambda: bockstein(prime) if use_bockstein else power(index, prime),
                    pres, x, fmt)


@main.command()
@click.option("-p", "degree", type=int, required=True, help="Cohomological degree.")
@click.option("-q", "weight", type=int, required=True, help="Weight.")
@ring_options
def basis(pres, degree, weight, fmt):
    """List the basis lines of one graded piece."""
    size = piece_size(pres, (degree, weight))
    if size > MAX_BASIS_LINES:
        raise StiefelError(f"bidegree ({degree},{weight}) of W({pres.n},{pres.m}) has {size} "
                           f"basis lines, more than the {MAX_BASIS_LINES} that basis lists")
    lines = basis_in_bidegree(pres, (degree, weight))
    if fmt == "json":
        click.echo(json.dumps({
            "p": degree, "q": weight,
            "lines": [{"gens": list(mono), "k": k} for mono, k in lines]}))
    else:
        click.echo(basis_report(pres, (degree, weight), lines, latex=(fmt == "latex")))


@main.command()
@ring_options
def series(pres, fmt):
    """Print the bigraded Poincare polynomial of H(W(n, m))."""
    # the L-subsets of m consecutive generators reach every sum between the
    # least and the greatest (see basis_in_bidegree), so the series has
    # sum over L of L(m - L) + 1 terms
    m = pres.m
    size = (m**3 - m) // 6 + m + 1
    if size > MAX_SERIES_TERMS:
        raise StiefelError(f"the Poincare series of W({pres.n},{m}) has {size} terms, "
                           f"more than the {MAX_SERIES_TERMS} that series prints")
    if fmt == "json":
        click.echo(json.dumps([{"p": bd.p, "q": bd.q, "count": c}
                               for bd, c in series_entries(pres)]))
    else:
        click.echo(series_text(pres, latex=(fmt == "latex")))


@main.command("map")
@click.argument("label", type=click.Choice(["proj", "imm", "perm", "neg", "cmp"]))
@click.argument("x")
@click.option("--m-big", type=int, default=None,
              help="Target frame length for the projection pullback.")
@click.option("--sigma", "sigma_text", default=None,
              help='Column permutation for "perm", e.g. "2,1,3".')
@ring_options
def map_cmd(pres, label, x, m_big, sigma_text, fmt):
    """Apply one of the induced ring maps to an element of its source."""
    if pres.m > MAX_MAP_GENERATORS:
        raise StiefelError(f"W({pres.n},{pres.m}) has {pres.m} generators, "
                           f"more than the {MAX_MAP_GENERATORS} that map takes")
    from .maps import (SymmetryKind, apply_map, comparison_map, immersion_pullback,
                       projection_pullback, symmetry_pullback)

    n, ring, profile = pres.n, pres.ring, pres.profile
    if label == "proj":
        if m_big is None:
            raise click.UsageError("the projection pullback needs --m-big")
        f = projection_pullback(n, pres.m, m_big, ring, profile)
    elif label == "imm":
        f = immersion_pullback(n, pres.m, ring, profile)
    elif label == "perm":
        perm = None
        if sigma_text is not None:
            try:
                perm = [int(part) for part in sigma_text.split(",")]
            except ValueError:
                raise click.UsageError(f"cannot parse permutation {sigma_text!r}")
        f = symmetry_pullback(n, pres.m, SymmetryKind.PERMUTATION, perm, ring, profile)
    elif label == "neg":
        f = symmetry_pullback(n, pres.m, SymmetryKind.NEGATE_FIRST_COLUMN,
                              ring=ring, profile=profile)
    else:
        if pres.m != n:
            raise click.UsageError("the comparison map starts at GL(n); omit -m or set m = n")
        f = comparison_map(n, ring, profile)
    emit_element(apply_map(f, parse_element(x, f.source)), fmt)


@main.command()
@click.option("--suite", default="all", show_default=True,
              help='Suite name or "all".')
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for the randomized suites (STIEFEL_SEED overrides).")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True,
              help="Output format; json gives one {name, cases, seconds, failures} per suite.")
@guarded
def check(suite, seed, fmt):
    """Run the property suites and report pass/fail per suite."""
    from . import suites

    env = os.environ.get("STIEFEL_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise click.UsageError(f"STIEFEL_SEED must be an integer, got {env!r}")
    # checked here, so that a KeyError raised inside a suite is not a usage error
    if suite != "all" and suite not in suites.SUITES:
        raise click.UsageError(f"unknown suite {suite!r}; available: {', '.join(suites.SUITES)}")
    names = suites.suite_names() if suite == "all" else [suite]
    results, seconds = [], []
    for name in names:
        start = time.perf_counter()
        results.append(suites.run_suite(name, seed))
        seconds.append(time.perf_counter() - start)
    if fmt == "json":
        click.echo(json.dumps([{"name": r.name, "cases": r.cases, "seconds": s,
                                "failures": r.failures} for r, s in zip(results, seconds)]))
    else:
        for result in results:
            status = "PASS" if result.passed else "FAIL"
            line = f"{status} {result.name} ({result.cases} cases)"
            if not result.passed:
                line += f": {result.failures[0]}"
            click.echo(line)
        click.echo(f"{sum(r.passed for r in results)}/{len(results)} suites passed, seed={seed}")
    if not all(r.passed for r in results):
        sys.exit(PROPERTY_FAILURE)


if __name__ == "__main__":
    main()
