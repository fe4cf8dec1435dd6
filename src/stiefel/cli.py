"""Command-line surface.

Exit codes: 0 success, 2 usage error, 3 math-context error, 4 property
failure.  The environment variable STIEFEL_SEED overrides --seed.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys

import click

from . import serialize, suites
from .algebra import Element, StiefelPresentation, basis_in_bidegree
from .coefficients import FieldProfile
from .errors import (ContextMismatch, ElementParseError, InvalidPresentation,
                     StiefelError)
from .maps import (SymmetryKind, apply_map, comparison_map, immersion_pullback,
                   projection_pullback, symmetry_pullback)
from .operations import apply_operation, bockstein, power, square
from .render import (basis_report, element_text, presentation_dict,
                     presentation_latex, presentation_text, series_entries,
                     series_text)

MATH_ERROR = 3
PROPERTY_FAILURE = 4


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
    fn = click.option("--format", "fmt", type=click.Choice(["text", "json", "latex"]),
                      default="text", show_default=True, help="Output format.")(fn)
    fn = click.option("--char", "characteristic", type=int, default=None,
                      help="Record the characteristic of the ground field.")(fn)
    fn = click.option("--minus-one", type=click.Choice(["square", "nonsquare"]),
                      default="nonsquare", show_default=True,
                      help="Whether -1 is a square in the ground field.")(fn)
    fn = click.option("--coeff", default="Z/2", show_default=True,
                      help='Coefficient ring: "Z" or "Z/<m>".')(fn)
    fn = click.option("-m", type=int, default=None,
                      help="Frame length (defaults to n, giving GL(n)).")(fn)
    fn = click.option("-n", type=int, required=True, help="Ambient dimension.")(fn)
    return fn


def build_presentation(n, m, coeff, minus_one, characteristic) -> StiefelPresentation:
    ring = serialize.parse_coeff(coeff)
    profile = FieldProfile(minus_one == "square", characteristic)
    return StiefelPresentation(n, n if m is None else m, ring, profile)


def parse_element(token: str, pres: StiefelPresentation) -> Element:
    token = token.strip()
    if token.startswith("{"):
        element = serialize.element_from_json(token)
        if element.pres != pres:
            raise ContextMismatch("element JSON context differs from the command options")
        return element
    if token == "0":
        return pres.zero()
    if token == "1":
        return pres.unit()
    hit = re.fullmatch(r"r(\d+)", token)
    if hit:
        return pres.gen(int(hit.group(1)))
    hit = re.fullmatch(r"L(?:\^(\d+))?", token)
    if hit:
        return pres.minus_one(int(hit.group(1) or 1))
    raise ElementParseError(
        f"cannot parse element {token!r}: use r<i>, L, L^<k>, 0, 1 or element JSON")


def emit_element(x, fmt: str) -> None:
    if fmt == "json":
        click.echo(serialize.element_to_json(x))
    elif fmt == "latex":
        click.echo(element_text(x, latex=True))
    else:
        click.echo(element_text(x))


@click.group()
def main():
    """Exact cohomology of Stiefel varieties: presentations, products,
    Steenrod operations, induced maps, and property suites."""


@main.command()
@ring_options
@guarded
def present(n, m, coeff, minus_one, characteristic, fmt):
    """Print the ring presentation of H(W(n, m))."""
    pres = build_presentation(n, m, coeff, minus_one, characteristic)
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
@guarded
def mul(x, y, n, m, coeff, minus_one, characteristic, fmt):
    """Multiply two elements."""
    pres = build_presentation(n, m, coeff, minus_one, characteristic)
    emit_element(parse_element(x, pres) * parse_element(y, pres), fmt)


@main.command()
@click.option("-i", "index", type=int, required=True, help="Apply Sq^i.")
@click.argument("x")
@ring_options
@guarded
def sq(index, x, n, m, coeff, minus_one, characteristic, fmt):
    """Apply the motivic Steenrod square Sq^i (odd i gives zero)."""
    pres = build_presentation(n, m, coeff, minus_one, characteristic)
    try:
        op = square(index)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    emit_element(apply_operation(op, parse_element(x, pres)), fmt)


@main.command("power")
@click.option("-i", "index", type=int, default=0, show_default=True, help="Apply P^i.")
@click.option("-p", "prime", type=int, required=True, help="The odd prime.")
@click.option("--bockstein", "use_bockstein", is_flag=True,
              help="Apply the Bockstein instead of P^i.")
@click.argument("x")
@ring_options
@guarded
def power_cmd(index, prime, use_bockstein, x, n, m, coeff, minus_one, characteristic, fmt):
    """Apply the reduced power P^i (or the Bockstein) at an odd prime."""
    pres = build_presentation(n, m, coeff, minus_one, characteristic)
    try:
        op = bockstein(prime) if use_bockstein else power(index, prime)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    emit_element(apply_operation(op, parse_element(x, pres)), fmt)


@main.command()
@click.option("-p", "degree", type=int, required=True, help="Cohomological degree.")
@click.option("-q", "weight", type=int, required=True, help="Weight.")
@ring_options
@guarded
def basis(degree, weight, n, m, coeff, minus_one, characteristic, fmt):
    """List the basis lines of one graded piece."""
    pres = build_presentation(n, m, coeff, minus_one, characteristic)
    lines = basis_in_bidegree(pres, (degree, weight))
    if fmt == "json":
        click.echo(json.dumps({
            "p": degree, "q": weight,
            "lines": [{"gens": list(mono), "k": k} for mono, k in lines]}))
    else:
        click.echo(basis_report(pres, (degree, weight), lines, latex=(fmt == "latex")))


@main.command()
@ring_options
@guarded
def series(n, m, coeff, minus_one, characteristic, fmt):
    """Print the bigraded Poincare polynomial of H(W(n, m))."""
    pres = build_presentation(n, m, coeff, minus_one, characteristic)
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
@guarded
def map_cmd(label, x, m_big, sigma_text, n, m, coeff, minus_one, characteristic, fmt):
    """Apply one of the induced ring maps to an element of its source."""
    pres = build_presentation(n, m, coeff, minus_one, characteristic)
    ring, profile = pres.ring, pres.profile
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
@guarded
def check(suite, seed):
    """Run the property suites and report pass/fail per suite."""
    env = os.environ.get("STIEFEL_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise click.UsageError(f"STIEFEL_SEED must be an integer, got {env!r}")
    names = suites.suite_names() if suite == "all" else [suite]
    try:
        results = [suites.run_suite(name, seed) for name in names]
    except KeyError as exc:
        raise click.UsageError(str(exc.args[0]))
    failed = False
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        line = f"{status} {result.name} ({result.cases} cases)"
        if not result.passed:
            line += f": {result.failures[0]}"
            failed = True
        click.echo(line)
    click.echo(f"{sum(r.passed for r in results)}/{len(results)} suites passed, seed={seed}")
    if failed:
        sys.exit(PROPERTY_FAILURE)


if __name__ == "__main__":
    main()
