import functools
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dqs import gen_cube, gen_torus  # noqa: E402
from dqs.coverings import gen_cube_double_cover  # noqa: E402
from dqs.surface import QuadComplex  # noqa: E402


@functools.lru_cache(maxsize=16)
def incidences(cx):
    """Reference incidence table: per vertex, its (quad, slot) incidences
    in ascending order, read from the quad tuples one quad at a time."""
    inc = [[] for _ in range(cx.nv)]
    for q, t in enumerate(cx.quads):
        for slot, v in enumerate(t):
            inc[v].append((q, slot))
    return tuple(map(tuple, inc))


@pytest.fixture(scope="session")
def cube():
    return gen_cube()


@pytest.fixture(scope="session")
def torus44():
    return gen_torus(4, 4, 1j)


@pytest.fixture(scope="session")
def torus46():
    return gen_torus(4, 6, 0.3 + 1.2j)


@pytest.fixture(scope="session")
def cube_cover():
    return gen_cube_double_cover()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


class _CountingQuads(tuple):
    """Quad table that counts the quad tuples read from it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)

    def __iter__(self):
        for t in tuple.__iter__(self):
            self.reads += 1
            yield t


@pytest.fixture()
def counted_quads():
    """Copy of a complex whose ``quads.reads`` counts the quads read so far.

    Every search over the quads of a surface, the diagonal lookups
    included, reads them from this table, so the count bounds the work
    of a combinatorial algorithm without timing it.
    """
    def wrap(cx):
        return QuadComplex(cx.colors, _CountingQuads(cx.quads), cx.rho)
    return wrap
