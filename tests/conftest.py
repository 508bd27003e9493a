import pytest

from annsim import _native
from annsim.core import Params, Point
from annsim.harness import DatasetSpec, trial_instance
from annsim.randomness import coin_for_trial


@pytest.fixture
def coin():
    return coin_for_trial(424242, 0, 0)


@pytest.fixture(scope="class")
def numpy_kernel():
    """Switch the C kernels off for one class: bernoulli_matrix, raw64_block,
    the sketch kernels and the oracle's column kernel then run their numpy
    kernels. Class-scoped, so
    hypothesis tests may use it."""
    saved = _native._state
    _native._state = (None, "numpy (switched off by the test)")
    yield
    _native._state = saved


def make_params(n=32, d=64, gamma=4.0, k=2, c1=8.0, c2=8.0, **kw):
    return Params(n=n, d=d, gamma=gamma, k=k, c1=c1, c2=c2, **kw)


def make_instance(n=32, d=64, seed=1, dataset=DatasetSpec(), trial=0):
    return trial_instance(seed, trial, n, d, dataset)


def point_from_bits(bits: str) -> Point:
    """Point from a coordinate string, coordinate 0 first."""
    return Point(len(bits), sum(1 << i for i, b in enumerate(bits) if b == "1"))
