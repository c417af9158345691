"""Branch construction shared by the test modules and their fixtures."""

from semifold.continuation import trace_branch
from semifold.nonlinear import newton_solve
from semifold.subsuper import build_subsolution
from semifold.verify import tau_star


def make_branch(inst):
    ts = tau_star(inst)
    t0 = -10.0 * abs(ts)
    start = newton_solve(inst, build_subsolution(inst, t0), t0)
    return trace_branch(inst, t0, start.u, step_ds=0.5,
                        t_window=(t0 - 1.0, ts + 1.0))
