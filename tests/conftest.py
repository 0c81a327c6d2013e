import pytest
from hypothesis import settings

from segcalc import LineRegistry

# one profile for every property test: reproducible, no example database, no deadline
settings.register_profile("segcalc", max_examples=100, deadline=None, derandomize=True, database=None)
settings.load_profile("segcalc")


@pytest.fixture
def registry():
    return LineRegistry.standard()


@pytest.fixture
def paired_registry():
    reg = LineRegistry()
    reg.register("rho", 1, unramified=True)
    reg.register("tau", 2)
    reg.register("a", 1)
    reg.register("b", 1, dual="a")
    return reg
