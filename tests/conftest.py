import os

import numpy as np
import pytest

from slepmoments import DpssParams, compute_dpss, smooth_test_image


@pytest.fixture(scope="session")
def basis64():
    return compute_dpss(DpssParams(n_len=64, half_bandwidth=0.2, n_seq=10))


@pytest.fixture(scope="session")
def basis32():
    return compute_dpss(DpssParams(n_len=32, half_bandwidth=0.2, n_seq=5))


@pytest.fixture(scope="session")
def test_image():
    return smooth_test_image(128)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def cpus(monkeypatch):
    """``cpus(n)`` makes ``harness._fork_rows`` see n usable CPUs and returns the list
    of the children it forks from then on."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        forks.clear()
        return forks

    monkeypatch.setattr(os, "fork", fork)
    return use
