import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import semifold as sf
from branching import ladder_fold, make_branch

settings.register_profile("suite", max_examples=25, derandomize=True,
                          deadline=None)
settings.load_profile("suite")

FIXDIR = Path(__file__).parent / "fixtures"


@pytest.fixture
def traced_peak():
    """run(fn): fn() and the peak, in bytes, of the memory that Python
    and numpy allocated while it ran (tracemalloc)."""
    def run(fn):
        tracemalloc.start()
        try:
            out = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out, peak
    return run


@pytest.fixture(scope="session")
def fixture_data():
    return json.loads((FIXDIR / "canonical.json").read_text())


@pytest.fixture(scope="session")
def canonical():
    """The shared instance: N=3, P=(1+r^2)^-3, softplus ramp, R=40, n=4000."""
    return sf.canonical_instance()


@pytest.fixture(scope="session")
def coarse():
    return sf.canonical_instance(R=40.0, n=1000)


@pytest.fixture(scope="session")
def canonical_fold(canonical):
    return ladder_fold(canonical)


@pytest.fixture(scope="session")
def canonical_branch(canonical, canonical_fold):
    return make_branch(canonical, canonical_fold)


@pytest.fixture(scope="session")
def fixture_solutions(fixture_data):
    out = []
    for meta in fixture_data["solutions"]:
        arr = np.loadtxt(FIXDIR / meta["file"], delimiter=",", skiprows=1)
        out.append((float(meta["t"]), arr[:, 1]))
    return out
