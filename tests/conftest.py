import pytest

from segcalc import LineRegistry


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
