import math
import random

import numpy as np
import pytest

from ncjoin import corpus
from ncjoin.algebra import single_block_system


@pytest.fixture(scope="session")
def c2():
    return corpus.system("c2")


@pytest.fixture(scope="session")
def c3():
    return corpus.system("c3")


@pytest.fixture(scope="session")
def c5():
    return corpus.system("c5")


@pytest.fixture(scope="session")
def id2():
    return corpus.system("id2")


@pytest.fixture(scope="session")
def id3():
    return corpus.system("id3")


@pytest.fixture(scope="session")
def pauli():
    return corpus.system("pauli")


@pytest.fixture(scope="session")
def gibbs():
    return corpus.system("gibbs")


@pytest.fixture(scope="session")
def dual_shift():
    return corpus.dual("dual_shift")


@pytest.fixture(scope="session")
def dual_cycle2():
    return corpus.dual("dual_cycle2")


@pytest.fixture(scope="session")
def dual_mixed():
    return corpus.dual("dual_mixed")


@pytest.fixture(scope="session")
def dual_finperm():
    return corpus.dual("dual_finperm_shift")


@pytest.fixture(scope="session")
def ladder_m2():
    """The Ad(u) M2 system of the benchmark's ladder at seed 1: a fixed Haar
    unitary conjugated by a seeded diagonal phase."""
    rng = np.random.default_rng(2008)
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    u0 = q * (np.diag(r) / abs(np.diag(r)))
    phase = np.diag([1.0, np.exp(1j * random.Random(1).uniform(0, 2 * math.pi))])
    return single_block_system(phase @ u0 @ phase.conj().T)
