"""Branch and fold construction shared by the test modules and their
fixtures."""

import dataclasses

import numpy as np

from semifold.continuation import find_fold, refine_fold, trace_branch
from semifold.nonlinear import monotone_rise
from semifold.verify import tau_star


def make_branch(inst, **kwargs):
    """The branch from the minimal solution at t0 = -10 |tau*| over the
    window t0 - 1 ... tau* + 1; keyword arguments override
    trace_branch's."""
    ts = tau_star(inst)
    t0 = -10.0 * abs(ts)
    kwargs = {"step_ds": 0.5, "t_window": (t0 - 1.0, ts + 1.0), **kwargs}
    return trace_branch(inst, t0, monotone_rise(inst, t0)[0], **kwargs)


def ladder_fold(inst, t0=None):
    """find_fold from the minimal solution at t0, by default -10 |tau*|,
    as the CLI runs it."""
    ts = tau_star(inst)
    t0 = -10.0 * abs(ts) if t0 is None else t0
    return find_fold(inst, t0, monotone_rise(inst, t0)[0], ts + 1.0)


def traced_fold(inst, branch=None):
    """refine_fold from the turn of a traced branch, seeded with the
    branch secant across it: the fold found without the ladder."""
    branch = make_branch(inst) if branch is None else branch
    idx = int(np.argmax(branch.t_values))
    v0 = branch.points[idx + 1].u - branch.points[idx - 1].u
    return refine_fold(inst, branch.points[idx].u.copy(), branch.points[idx].t,
                       v0 / np.abs(v0).max())


def flipped_curvature(inst):
    """inst with g'' negated, so that the fold's kappa is negative."""
    nl = inst.nonlinearity
    return dataclasses.replace(inst, nonlinearity=dataclasses.replace(
        nl, g_second=lambda s: -nl.g_second(s)))
