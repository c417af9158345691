"""Branch construction shared by the test modules and their fixtures."""

from semifold.continuation import trace_branch
from semifold.nonlinear import newton_solve
from semifold.subsuper import build_subsolution
from semifold.verify import tau_star


def make_branch(inst, **kwargs):
    """The branch from t0 = -10 |tau*| over the window t0 - 1 ... tau* + 1;
    keyword arguments override trace_branch's."""
    ts = tau_star(inst)
    t0 = -10.0 * abs(ts)
    start = newton_solve(inst, build_subsolution(inst, t0), t0)
    kwargs = {"step_ds": 0.5, "t_window": (t0 - 1.0, ts + 1.0), **kwargs}
    return trace_branch(inst, t0, start.u, **kwargs)
