import pytest

from greenwalk.groups import GroupModel
from greenwalk.kernels import build_kernel_table
from greenwalk.measures import tree_exit_measure
from greenwalk.sampler import harmonic_measure_estimate
from greenwalk.walks import drift_z, srw_free, wreath_walk


def cell_contains(prefix: tuple, word: tuple) -> bool:
    """True when C(word) is inside C(prefix): the brute-force reference
    for the leaf ranges."""
    return len(word) >= len(prefix) and word[: len(prefix)] == prefix


@pytest.fixture(scope="session")
def t_f2():
    return build_kernel_table(srw_free(2), radius=8, method="linear-solve")


@pytest.fixture(scope="session")
def t_drift():
    return build_kernel_table(drift_z(0.7), radius=20)


@pytest.fixture(scope="session")
def t_wreath():
    return build_kernel_table(wreath_walk(2, 0.75, 0.4))


@pytest.fixture(scope="session")
def m_f2():
    """Sampled exit law on the F_2 boundary, shared by statistical tests."""
    return harmonic_measure_estimate(srw_free(2), depth=4,
                                     n_samples=100_000, seed=7, workers=2)


@pytest.fixture(scope="session")
def m_exact():
    return tree_exit_measure(GroupModel.free(2), 4)
