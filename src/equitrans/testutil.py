"""Seeded generators for synthetic verification data.

Used by the acceptance batteries and the test suite; deterministic given
the generator state.
"""

from __future__ import annotations

import numpy as np

from . import floer, linalg


def coherent_three_level_table(rng: np.random.Generator,
                               lattice: floer.HomologyLattice,
                               n0: int = 3, n1: int = 3, n2: int = 2):
    """Random moduli counts whose differential squares to zero by
    construction: the level-2 -> level-1 block is assembled inside the
    kernel of the level-1 -> level-0 block (broken-gluing cancellation)."""
    names0 = [f"a{i}" for i in range(n0)]
    names1 = [f"b{i}" for i in range(n1)]
    names2 = [f"c{i}" for i in range(n2)]
    gens = floer.GeneratorSet(
        tuple(names0 + names1 + names2),
        {**{x: 0 for x in names0}, **{x: 1 for x in names1},
         **{x: 2 for x in names2}},
        {**{x: 0 for x in names0}, **{x: 1 for x in names1},
         **{x: 2 for x in names2}},
    )
    b = rng.integers(-2, 3, size=(n0, n1))
    cols = linalg.nullspace(linalg.frac_array(b.tolist())).T.tolist()
    zero = lattice.zero
    counts = {}
    for i, x in enumerate(names0):
        for j, y in enumerate(names1):
            if b[i, j]:
                counts[(x, y, zero)] = int(b[i, j])
    a = np.zeros((n1, n2), dtype=int)
    for k in range(n2):
        if cols:
            pick = cols[k % len(cols)]
            weight = int(rng.integers(1, 3))
            a[:, k] = [weight * p for p in pick]
    for j, y in enumerate(names1):
        for k, z in enumerate(names2):
            if a[j, k]:
                counts[(y, z, zero)] = int(a[j, k])
    return gens, floer.ModuliCountTable(lattice, counts)
