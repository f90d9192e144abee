import os

import pytest
from hypothesis import HealthCheck, settings

import netval
from netval import build_network

# tests that start ``python -m netval.cli`` in a subprocess must load the
# netval this session imports, also when it was found via pytest's pythonpath
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(netval.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def cycle_full():
    return build_network([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0]], 1.0, 1.0)


@pytest.fixture
def cycle_half():
    return build_network([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0]], 0.5, 0.5)


@pytest.fixture
def two_bank():
    return build_network([[0.0, 7.0, 3.0], [3.0, 0.0, 3.0]], 1.0, 1.0)
