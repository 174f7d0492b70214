import os
import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import settings

from perfcode import BitMatrix, PointPerm, automorphisms, catalog_taus, enumerate_regular_subgroups, rank
from perfcode.codes import kernel_dims

# CI runs draw the same examples every time and print a reproduction blob
# on failure, so a property-test failure there reproduces locally with
# `CI=1 pytest ...`; local runs keep hypothesis' defaults
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def r3_catalog():
    catalog = catalog_taus(3)
    assert catalog.complete
    return catalog


@pytest.fixture(scope="session")
def r3_taus(r3_catalog):
    return [r3_catalog.perm(i) for i in range(len(r3_catalog))]


@pytest.fixture(scope="session")
def r4_prefix_min_kernel():
    """The distinct taus of the first 12 regular subgroups of GA(4,2) with
    kernel dimension 24, the least in that prefix (kernel 22 first appears
    at group 164); they form one isomorphism class."""
    taus = {}
    for group in islice(enumerate_regular_subgroups(4), 12):
        for aut in automorphisms(group):
            taus.setdefault(aut.perm.images, aut.perm)
    images = np.array(list(taus), dtype=np.int8)
    keep = kernel_dims(images) == 24
    assert keep.sum() == 256
    return [tau for tau, k in zip(taus.values(), keep) if k]


def random_zero_fixing(r: int, rng: random.Random) -> PointPerm:
    rest = list(range(1, 1 << r))
    rng.shuffle(rest)
    return PointPerm(r, tuple([0] + rest))


def random_gl(r: int, rng: random.Random) -> BitMatrix:
    while True:
        m = BitMatrix(r, r, tuple(rng.randrange(1, 1 << r) for _ in range(r)))
        if rank(m) == r:
            return m


@pytest.fixture()
def rng():
    return random.Random(20240817)
