"""Shared fixtures: the heavyweight construction pipelines are built
once per session and reused by the unit and acceptance suites."""

import pytest

from patgraphs.atlas import seed_psl28_gamma
from patgraphs.construct import (
    bipartite_construction,
    product_action_construction,
    theta_reading_counts,
    valency64_construction,
)


@pytest.fixture(scope="session")
def pa4():
    return product_action_construction(4)


@pytest.fixture(scope="session")
def pa7():
    return product_action_construction(7)


@pytest.fixture(scope="session")
def v64():
    seed = seed_psl28_gamma()
    return valency64_construction(seed, theta_reading_counts(seed, "primary"))


@pytest.fixture(scope="session")
def bip5_symmetric():
    return bipartite_construction(5, "symmetric")


@pytest.fixture(scope="session")
def bip5_pgl2():
    return bipartite_construction(5, "pgl2")
