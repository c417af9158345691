import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import semifold as sf
from semifold import config
from semifold.config import (CANONICAL_CONFIG, COARSE_N, KEYS, LADDER_N,
                             build_scenario_instance, load_config,
                             parse_config)
from semifold.errors import ConfigError

SMALL = CANONICAL_CONFIG.replace("n = 4000", "n = 400")


def test_round_trip_stability():
    cfg = parse_config(CANONICAL_CONFIG)
    again = parse_config(cfg.serialize())
    assert again.serialize() == cfg.serialize()
    assert again.scenario_id() == cfg.scenario_id()


def test_scenario_id_tracks_content():
    cfg = parse_config(CANONICAL_CONFIG)
    other = parse_config(CANONICAL_CONFIG.replace("t = 0.0", "t = 1.0"))
    assert cfg.scenario_id() != other.scenario_id()
    assert len(cfg.scenario_id()) == 12


def test_missing_section_named_in_error():
    text = "\n".join(line for line in CANONICAL_CONFIG.splitlines()
                     if "forcing" not in line and "t = 0.0" not in line
                     and "f1 = zero" not in line)
    with pytest.raises(ConfigError, match=r"\[forcing\]"):
        parse_config(text)


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        parse_config(CANONICAL_CONFIG.replace("n = 4000", "n = 2"))
    with pytest.raises(ConfigError):
        parse_config(CANONICAL_CONFIG.replace("r = 40.0", "r = -1.0"))
    with pytest.raises(ConfigError):
        parse_config(CANONICAL_CONFIG.replace(
            "farfield = robin_decay", "farfield = absorbing"))
    with pytest.raises(ConfigError):
        parse_config(CANONICAL_CONFIG.replace(
            "preset = rational_decay", "preset = mystery"))
    with pytest.raises(ConfigError):
        parse_config(CANONICAL_CONFIG.replace("r = 40.0", "r = forty"))


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigError, match=r"'strech'.*\[grid\]"):
        parse_config(CANONICAL_CONFIG.replace("stretch =", "strech ="))


def test_docs_list_exactly_the_keys():
    """The key column of each section table in docs/config.md is that
    section's KEYS, in order."""
    doc = Path(__file__).resolve().parents[1] / "docs" / "config.md"
    tables = re.findall(r"^## \[(\w+)\]\n(.*?)(?=^## |\Z)", doc.read_text(),
                        re.M | re.S)
    documented = {section: [name for line in body.splitlines()
                            if line.startswith("| `")
                            for name in re.findall(r"`([^`]+)`",
                                                   line.split("|")[1])]
                  for section, body in tables}
    assert documented == {section: list(keys) for section, keys in KEYS.items()}


def test_load_config(tmp_path):
    path = tmp_path / "s.ini"
    path.write_text(SMALL)
    cfg = load_config(path)
    assert cfg.grid["n"] == "400"


def test_built_instance_matches_canonical():
    cfg = parse_config(CANONICAL_CONFIG.replace("n = 4000", "n = 500"))
    inst = build_scenario_instance(cfg)
    ref = sf.canonical_instance(R=40.0, n=500)
    assert inst.eigen.lambda1 == pytest.approx(ref.eigen.lambda1, rel=1e-12)
    assert inst.nonlinearity.mu_lower == pytest.approx(
        ref.nonlinearity.mu_lower, rel=1e-12)


# the levels of each n's chain, the instance's own grid first
CHAINS = {LADDER_N: [LADDER_N], 400: [400, LADDER_N],
          COARSE_N: [COARSE_N, LADDER_N],
          16000: [16000, COARSE_N, LADDER_N]}


@pytest.mark.parametrize("n", list(CHAINS))
def test_each_twin_is_the_next_smaller_level(n, monkeypatch):
    """An instance's twin is the scenario at the largest of COARSE_N and
    LADDER_N below its n, and so on down to LADDER_N, which has none.
    The build solves one eigenproblem per level, the bottom one first
    from the default start with no shift, and each level above it from
    its twin's phi1, lifted, shifted by its twin's lambda1."""
    solved = []
    eigenpair = config.first_eigenpair

    def recorded(grid, A, mP, start=None, shift=0.0):
        solved.append((grid.n, start is None, shift))
        return eigenpair(grid, A, mP, start=start, shift=shift)

    monkeypatch.setattr(config, "first_eigenpair", recorded)
    levels = [sf.canonical_instance(n=n)]
    while levels[-1].twin is not None:
        levels.append(levels[-1].twin)
    assert [level.grid.n for level in levels] == CHAINS[n]
    assert solved == [(level.grid.n, level.twin is None,
                       0.0 if level.twin is None
                       else level.twin.eigen.lambda1)
                      for level in reversed(levels)]


def test_an_instance_build_holds_only_live_vectors(traced_peak):
    """A build at n = 16000 allocates at most 18 vectors of n floats at
    its peak (17.01 measured): the eigenpair lets go of its lifted start after one step
    and of its factor before it normalizes.  Its f1 = zero stores no
    array, only a read-only view of one zero."""
    cfg = parse_config(CANONICAL_CONFIG.replace("n = 4000", "n = 16000"))
    inst, peak = traced_peak(lambda: build_scenario_instance(cfg))
    n = inst.grid.n
    assert peak <= 18 * 8 * n
    f1 = inst.forcing.f1
    assert f1.shape == (n,) and f1.strides == (0,)
    assert not f1.flags.writeable and not f1.any()


def test_an_instance_holds_seven_vectors(traced_peak):
    """A built instance at n = 16000, its 4000-node twin included, holds
    at most 9.5 vectors of n floats: nodes, cell volumes, P, A's three
    diagonals and phi1 (7 each, 8.75 together), and no cached row sums
    or forcing."""
    def built():
        inst = sf.canonical_instance(n=16000)
        tracemalloc.reset_peak()  # from here the peak is what it holds
        return inst

    inst, held = traced_peak(built)
    assert inst.twin is not None
    assert held <= 9.5 * 8 * inst.grid.n


def test_an_instance_build_makes_no_blas_dot(monkeypatch):
    """The eigenpair's sums go through grid.dot, so a build wakes no
    OpenBLAS helper thread, and lambda1's bits do not depend on the
    core count."""
    def refused(*args, **kwargs):
        raise AssertionError("numpy.dot called")

    monkeypatch.setattr(np, "dot", refused)
    assert sf.canonical_instance(n=16000).eigen.iterations >= 1


def test_linear_preset_skips_straddle_check():
    text = SMALL.replace(
        "preset = smooth_ramp", "preset = linear"
    ).replace("mu_lower_factor = 0.5", "slope = 0.1"
              ).replace("mu_upper_factor = 2.0", "").replace("offset = 1.0", "")
    cfg = parse_config(text)
    inst = build_scenario_instance(cfg)
    assert inst.eigen is not None
    nl = inst.nonlinearity
    assert nl.mu_lower == nl.mu_upper == 0.1 and nl.theta == 0.0


def test_table_weight_preset():
    text = SMALL.replace("preset = rational_decay",
                         "preset = table\ntable = 0:1, 10:0.5, 40:0.1"
                         ).replace("power = 3.0", "")
    cfg = parse_config(text)
    inst = build_scenario_instance(cfg)
    assert inst.weight_values[0] == pytest.approx(1.0)
    assert inst.weight_values[-1] == pytest.approx(0.1)


def test_table_radii_must_increase_strictly():
    # a decreasing table is one of test_cli's config mistakes
    text = SMALL.replace("preset = rational_decay",
                         "preset = table\ntable = 0:1, 10:0.5, 10:0.1")
    with pytest.raises(ConfigError, match="r0 < r1"):
        parse_config(text)
