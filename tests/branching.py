"""Branch and fold construction shared by the test modules and their
fixtures."""

import dataclasses

import numpy as np

from semifold.config import KEYS
from semifold.continuation import (find_fold, fold_branch, ladder_range,
                                   refine_fold)
from semifold.nonlinear import monotone_rise


def ladder_fold(inst, t0=None):
    """find_fold on inst's own grid from the minimal solution at t0, by
    default -10 |tau*|.  This is the CLI's ladder only at n <= LADDER_N:
    above it the CLI climbs on the bottom of inst's chain of twins and
    refines the fold once on each level above it (cli._fold), while a
    fold from here, as acceptance 5's at n = 8000, is the single-level
    ladder's."""
    t0, t_max = ladder_range(inst, t0)
    return find_fold(inst, t0, monotone_rise(inst, t0)[0], t_max)


def make_branch(inst, fold=None, **kwargs):
    """fold_branch's (t, u) rows from t0 = -10 |tau*| through `fold`, by
    default ladder_fold's, at the config's default step_ds and
    max_points; keyword arguments override those two."""
    kwargs = {key: KEYS["run"][key][0] for key in ("step_ds", "max_points")
              } | kwargs
    fold = ladder_fold(inst) if fold is None else fold
    return fold_branch(inst, fold, ladder_range(inst)[0], **kwargs)


def fold_seed(rows, start="mid"):
    """refine_fold's seed (u, t, v0) from the two rows on either side of
    the fold row: the lower one, the upper one or their midpoint, at
    their common t, with their secant as v0."""
    idx = len(rows) // 2
    (t, lower), (_, upper) = rows[idx - 1], rows[idx + 1]
    u = {"lower": lower, "upper": upper, "mid": 0.5 * (lower + upper)}[start]
    v0 = upper - lower
    return u.copy(), t, v0 / np.abs(v0).max()


def row_fold(inst, rows=None, start="mid"):
    """refine_fold from fold_seed(rows, start): the fold reached from
    the branch rows, not from the ladder's last rung."""
    rows = make_branch(inst) if rows is None else rows
    return refine_fold(inst, *fold_seed(rows, start))


def flipped_curvature(inst):
    """inst with g'' negated, so that the fold's kappa is negative."""
    nl = inst.nonlinearity
    return dataclasses.replace(inst, nonlinearity=dataclasses.replace(
        nl, g_second=lambda s: -nl.g_second(s)))
