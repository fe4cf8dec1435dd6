"""Seeded random maps for the kernel tests and the golden digests.

The golden `kernels` digest and the Smith-form oracle of `module_kernel`
both read their random multi-term ring maps from `random_total_maps`; the
golden `linalg` digest and the `module_kernel` tests read their integer
matrices between cyclic-group sums from `random_well_defined_map`.
"""

from __future__ import annotations

import math
import random

from stiefel import algebra
from stiefel.algebra import StiefelPresentation
from stiefel.coefficients import FieldProfile
from stiefel.maps import ring_map
from stiefel.targets import PGmPresentation

PROFILES = (FieldProfile(), FieldProfile(minus_one_is_square=True))


def random_total_maps(rings, count: int | None = 12):
    """Total ring_maps over `rings` (seed s takes rings[s % len(rings)])
    whose generator images are whole random graded pieces, so that a
    generator may go to several terms; Stiefel and Tate targets alternate.
    Yields the first `count` such maps of seeds 0-199, or all of them."""
    found = 0
    for seed in range(200):
        rng = random.Random(seed)
        ring, profile = rings[seed % len(rings)], PROFILES[seed % 3 == 0]
        n = rng.randint(1, 5)
        source = StiefelPresentation(n, rng.randint(1, n), ring, profile)
        if seed % 2:
            target = PGmPresentation(rng.randint(1, 6), ring, profile)
        else:
            big = rng.randint(n, 6)
            target = StiefelPresentation(big, rng.randint(0, big), ring, profile)
        images = {i: algebra.random_element(target, (2 * i - 1, i), seed=1000 * seed + i)
                  for i in source.generators}
        f = ring_map(source, target, images, f"random-{seed}")
        if not f.generator_level_only and any(len(img.terms) > 1 for img in images.values()):
            yield f
            found += 1
            if found == count:
                return


def random_well_defined_map(rng, src_moduli, tgt_moduli):
    """Matrix entries chosen so each column kills its source annihilator
    (modulus 0 marks a copy of Z)."""
    matrix = []
    for t in tgt_moduli:
        row = []
        for s in src_moduli:
            if not t:
                # hom(Z, Z) = Z and hom(Z/s, Z) = 0
                row.append(0 if s else rng.randint(-6, 6))
                continue
            # hom(Z/s, Z/t) is generated by t / gcd(s, t); gcd(0, t) = t
            step = t // math.gcd(s, t)
            row.append(step * rng.randrange(0, max(1, t // step)))
        matrix.append(row)
    return matrix
