import numpy as np
import pytest

from puredist import io
from puredist.sampling import basis_povm
from puredist.states import DensityOperator


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_addoption(parser):
    parser.addoption("--trials", action="store", type=int, default=None,
                     help="override trial counts in the heavy property suites")


@pytest.fixture
def trials(request):
    return request.config.getoption("--trials")


@pytest.fixture
def bell_file(tmp_path):
    bell = np.zeros((4, 4))
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    path = tmp_path / "bell.json"
    io.save_state(DensityOperator([("A", 2), ("B", 2)], bell), str(path))
    return str(path)


@pytest.fixture
def basis_file(tmp_path):
    path = tmp_path / "basis.json"
    io.save_povm(basis_povm(2, "A"), str(path))
    return str(path)
