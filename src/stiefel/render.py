"""Text and LaTeX rendering.

ASCII naming on the text side: r<i> for rho_i, s for sigma, e for eta, and
{-1} for the base class; LaTeX uses the usual symbols.
"""

from __future__ import annotations

from .algebra import Element, StiefelPresentation, monomial_bidegree, poincare_polynomial
from .coefficients import Bidegree


def _power(base: str, k: int, latex: bool) -> str:
    if k == 1:
        return base
    return f"{base}^{{{k}}}" if latex else f"{base}^{k}"


def _coeff_text(terms, latex: bool) -> str:
    """The text of a coefficient given by its (k, value) terms.  A positive
    {-1}-power has its value in R/2R, so it is 1 and not printed."""
    minus_one = r"\{-1\}" if latex else "{-1}"
    parts = [str(v) if k == 0 else _power(minus_one, k, latex) for k, v in terms]
    return " + ".join(parts) if parts else "0"


def _term_text(mono_str: str, terms, latex: bool) -> str:
    if not mono_str:
        return _coeff_text(terms, latex)
    if terms == ((0, 1),):
        return mono_str
    coeff = _coeff_text(terms, latex)
    if len(terms) > 1:
        coeff = f"({coeff})"
    return f"{coeff}{mono_str}" if latex else f"{coeff} {mono_str}"


def _stiefel_mono(mono, latex: bool) -> str:
    if latex:
        return "".join(f"\\rho_{{{i}}}" for i in mono)
    return " ".join(f"r{i}" for i in mono)


def _pgm_mono(key, latex: bool) -> str:
    s, e = key
    parts = []
    if s:
        parts.append("\\sigma" if latex else "s")
    if e:
        parts.append(_power("\\eta" if latex else "e", e, latex))
    return "".join(parts) if latex else " ".join(parts)


def element_text(x: Element, latex: bool = False) -> str:
    if not x.terms:
        return "0"
    key_text = _stiefel_mono if isinstance(x.pres, StiefelPresentation) else _pgm_mono
    return " + ".join(_term_text(key_text(key, latex), c.terms, latex) for key, c in x.terms)


def presentation_text(pres: StiefelPresentation) -> str:
    profile = "square" if pres.profile.minus_one_is_square else "nonsquare"
    lines = [f"H(W({pres.n},{pres.m}); {pres.ring.name})   [{{-1}} {profile}]"]
    if pres.m == 0:
        lines.append("trivial ring: W(n,0) is a point, no generators")
        return "\n".join(lines)
    lines.append("generators:")
    for i in pres.generators:
        lines.append(f"  r{i}  bidegree {monomial_bidegree((i,))}")
    lines.append("relations:")
    for i in pres.generators:
        square = pres.gen_square(i)
        lines.append(f"  r{i}^2 = {element_text(square)}")
    return "\n".join(lines)


def presentation_latex(pres: StiefelPresentation) -> str:
    gens = ", ".join(f"\\rho_{{{i}}}" for i in pres.generators)
    rels = []
    for i in pres.generators:
        square = pres.gen_square(i)
        rels.append(f"\\rho_{{{i}}}^2 - {element_text(square, latex=True)}"
                    if square else f"\\rho_{{{i}}}^2")
    body = (f"H^{{*,*}}(W({pres.n},{pres.m}); {_latex_ring(pres)}) = "
            f"\\mathbb{{M}}[{gens}] / ({', '.join(rels)})"
            if pres.m else
            f"H^{{*,*}}(W({pres.n},{pres.m})) = \\mathbb{{M}}")
    degrees = " \\quad ".join(
        f"|\\rho_{{{i}}}| = {monomial_bidegree((i,))}" for i in pres.generators)
    lines = [
        "\\documentclass{article}",
        "\\usepackage{amsmath,amssymb}",
        "\\begin{document}",
        f"\\[ {body} \\]",
    ]
    if degrees:
        lines.append(f"\\[ {degrees} \\]")
    lines.append("\\end{document}")
    return "\n".join(lines)


def _latex_ring(pres) -> str:
    return "\\mathbb{Z}" if pres.ring.modulus == 0 else f"\\mathbb{{Z}}/{pres.ring.modulus}"


def presentation_dict(pres: StiefelPresentation) -> dict:
    from .serialize import element_to_dict

    return {
        "n": pres.n,
        "m": pres.m,
        "coeff": pres.ring.name,
        "minus_one_is_square": pres.profile.minus_one_is_square,
        "generators": [{"i": i, **monomial_bidegree((i,))._asdict()} for i in pres.generators],
        "relations": [{"i": i, "square": element_to_dict(pres.gen_square(i))["terms"]}
                      for i in pres.generators],
    }


def series_entries(pres: StiefelPresentation) -> list[tuple[Bidegree, int]]:
    series = poincare_polynomial(pres)
    return sorted(series.items())


def series_text(pres: StiefelPresentation, latex: bool = False) -> str:
    pieces = []
    for bd, count in series_entries(pres):
        if bd == (0, 0):
            term = str(count)
        else:
            term = f"T^{{({bd.p},{bd.q})}}" if latex else f"T^({bd.p},{bd.q})"
            if count != 1:
                term = f"{count} {term}" if not latex else f"{count}{term}"
        pieces.append(term)
    body = " + ".join(pieces)
    return f"\\[ {body} \\]" if latex else body


def basis_report(pres: StiefelPresentation, bd, lines, latex: bool = False) -> str:
    free = sum(1 for _, k in lines if k == 0)
    torsion = len(lines) - free
    ring = pres.ring.name
    group = []
    if free:
        base = f"({ring})" if "/" in ring else ring
        group.append(f"{base}^{free}")
    if torsion:
        # lines with k >= 1 carry R/2R, which is Z/2 whenever it is nonzero
        group.append(f"(Z/2)^{torsion}")
    header = (f"bidegree ({bd[0]},{bd[1]}) of H(W({pres.n},{pres.m}); {ring}): "
              + (" (+) ".join(group) if group else "0"))
    out = [header]
    # a line {-1}^k * mono has the unit coefficient of R (k = 0) or of R/2R,
    # so it is rendered from its terms without building the element
    for mono, k in lines:
        out.append(f"  k={k}: {_term_text(_stiefel_mono(mono, latex), ((k, 1),), latex)}")
    return "\n".join(out)
