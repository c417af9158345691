import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import semifold as sf
from branching import make_branch
from semifold.continuation import detect_fold

settings.register_profile("suite", max_examples=25, derandomize=True,
                          deadline=None)
settings.load_profile("suite")

FIXDIR = Path(__file__).parent / "fixtures"


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
def canonical_branch(canonical):
    return make_branch(canonical)


@pytest.fixture(scope="session")
def canonical_fold(canonical, canonical_branch):
    return detect_fold(canonical_branch, canonical)


@pytest.fixture(scope="session")
def fixture_solutions(fixture_data):
    out = []
    for meta in fixture_data["solutions"]:
        arr = np.loadtxt(FIXDIR / meta["file"], delimiter=",", skiprows=1)
        out.append((float(meta["t"]), arr[:, 1]))
    return out
