"""Scenario configuration: INI-style files with sections
[weight], [nonlinearity], [forcing], [grid], [run].

See docs/config.md for the grammar; KEYS holds every key's default and
parser.  Parsing is round-trip stable: parse -> serialize -> parse
reproduces the same scenario.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .eigen import first_eigenpair
from .errors import (BadGridConfig, ConfigError, SemifoldError,
                     SingularOperator, SlopeViolation)
from .grid import (DIRICHLET, ROBIN_DECAY, _checked_row_scale,
                   assemble_laplacian, assemble_weight_mass, build_grid)
from .problem import (ForcingSpec, ProblemInstance, exponential_weight,
                      linear_nonlinearity, rational_decay_weight,
                      smooth_ramp_nonlinearity, table_weight)

REQUIRED_SECTIONS = ("weight", "nonlinearity", "forcing", "grid")
REQUIRED = object()  # the default of a key that must be given
# the levels of an instance's chain of twins: above n nodes its twin is
# the scenario at the largest of these below n, so n > 4000 gives n ->
# 4000 -> 125, 125 < n <= 4000 gives n -> 125, and n <= 125 no twin; a
# level that cannot be built ends the chain (_twin).  Each twin's first
# eigenfunction starts its parent's eigenpair; alpha, two and branch climb
# the fold ladder on the chain's bottom and refine its fold once on each
# level above it (mesh independence of Newton)
COARSE_N = 4000
LADDER_N = 125


def _number(least=-np.inf, *, strict=False, integer=False):
    """Parser of a finite number >= least (> least if strict); an integer
    is any number without a fractional part, such as 5, 5.0 or 5e2."""
    accepted = ("an integer" if integer else "a finite number") + (
        "" if least == -np.inf else f" {'>' if strict else '>='} {least:g}")

    def parse(text):
        try:
            x = float(text)
        except ValueError:
            x = np.nan
        if not (np.isfinite(x) and (x > least if strict else x >= least)
                and (x.is_integer() or not integer)):
            raise ValueError(accepted)
        return int(x) if integer else x
    return parse


def _choice(*options):
    def parse(text):
        if text not in options:
            raise ValueError("one of " + ", ".join(options))
        return text
    return parse


def _pairs(text):
    """Inline table 'r0:v0, r1:v1, ...' as finite (r, v) pairs with
    strictly increasing r, the abscissae np.interp needs."""
    try:
        pairs = [tuple(map(float, item.split(":"))) for item in text.split(",")]
    except ValueError:
        pairs = [()]
    if any(len(p) != 2 or not np.isfinite(p).all() for p in pairs) or \
            any(a[0] >= b[0] for a, b in zip(pairs, pairs[1:])):
        raise ValueError("pairs r0:v0, r1:v1, ... of finite numbers "
                         "with r0 < r1 < ...")
    return pairs


# section -> key -> (default, parser); docs/config.md lists the same keys
KEYS = {
    "weight": {
        "preset": ("rational_decay",
                   _choice("rational_decay", "exponential", "table")),
        "dimension": (3, _number(3, integer=True)),
        "power": (3.0, _number()),
        "scale": (1.0, _number()),
        "table": (None, _pairs),
    },
    "nonlinearity": {
        "preset": ("smooth_ramp", _choice("smooth_ramp", "linear")),
        "mu_lower": (None, _number()),
        "mu_upper": (None, _number()),
        "mu_lower_factor": (0.5, _number()),
        "mu_upper_factor": (2.0, _number()),
        "offset": (1.0, _number()),
        "slope": (None, _number()),
    },
    "forcing": {"t": (0.0, _number()), "f1": ("zero", _choice("zero"))},
    "grid": {
        "r": (REQUIRED, _number(0, strict=True)),
        "n": (REQUIRED, _number(5, integer=True)),
        "stretch": (1.0, _number(1)),
        "farfield": (ROBIN_DECAY, _choice(ROBIN_DECAY, DIRICHLET)),
    },
    "run": {
        "seed": (0, _number(0, integer=True)),
        "outdir": ("out", str),
        "t_start": (None, _number()),  # None: -10 |tau*|, set where read
        "step_ds": (2.0, _number(0, strict=True)),
        "max_points": (600, _number(1, integer=True)),
    },
}


@dataclass
class ScenarioConfig:
    weight: dict
    nonlinearity: dict
    forcing: dict
    grid: dict
    run: dict = field(default_factory=dict)

    def get(self, section: str, key: str):
        """The parsed value of `key` in [section], or its default."""
        default, parse = KEYS[section][key]
        raw = getattr(self, section).get(key)
        if raw is None:
            if default is REQUIRED:
                raise ConfigError(f"missing key '{key}' in section [{section}]")
            return default
        try:
            return parse(raw)
        except ValueError as exc:
            raise ConfigError(f"'{key}' in [{section}] must be {exc}, "
                              f"got {raw!r}") from None

    def scenario_id(self) -> str:
        return self.content_hash()[:12]

    def content_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()

    def serialize(self) -> str:
        cp = configparser.ConfigParser(interpolation=None)
        for name in KEYS:
            cp[name] = {k: str(v) for k, v in sorted(getattr(self, name).items())}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()


def parse_config(text: str) -> ScenarioConfig:
    # values are literal: '%' is a character, not an interpolation
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    for name in REQUIRED_SECTIONS:
        if name not in cp:
            raise ConfigError(f"missing config section [{name}]")
    for name in cp.sections():
        if name not in KEYS:
            raise ConfigError(f"unknown config section [{name}]")
    cfg = ScenarioConfig(**{name: dict(cp[name]) if name in cp else {}
                            for name in KEYS})
    # every key is parsed here, whichever command runs
    for section, keys in KEYS.items():
        for key in getattr(cfg, section):
            if key not in keys:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
        for key in keys:
            cfg.get(section, key)
    if ("mu_lower" in cfg.nonlinearity) != ("mu_upper" in cfg.nonlinearity):
        raise ConfigError("[nonlinearity] mu_lower and mu_upper come as a pair")
    for section, preset, key in (("weight", "table", "table"),
                                 ("nonlinearity", "linear", "slope")):
        if cfg.get(section, "preset") == preset and cfg.get(section, key) is None:
            raise ConfigError(f"[{section}] preset '{preset}' needs key '{key}'")
    return cfg


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _build_weight(cfg: ScenarioConfig):
    """The evaluator r -> P(r) of [weight]."""
    preset = cfg.get("weight", "preset")
    if preset == "rational_decay":
        return rational_decay_weight(cfg.get("weight", "power"))
    if preset == "exponential":
        return exponential_weight(cfg.get("weight", "scale"))
    return table_weight(*zip(*cfg.get("weight", "table")))


def build_scenario_instance(cfg: ScenarioConfig) -> ProblemInstance:
    """The one assembly of an instance: grid, weight, operator, first
    eigenpair, nonlinearity (slopes possibly relative to lambda1), forcing.

    Above LADDER_N nodes it first builds the instance's twin (_twin), the
    next coarser level of its chain, and keeps it as `twin`; the
    eigenpair's inverse iteration starts from the twin's first
    eigenfunction, interpolated linearly onto the nodes, shifted by the
    twin's lambda1, and takes a few steps where it takes over ten from
    1/(1 + r^2) unshifted, as it does where the twin cannot be built."""
    grid = build_grid(cfg.get("weight", "dimension"), cfg.get("grid", "r"),
                      cfg.get("grid", "n"), cfg.get("grid", "stretch"))
    A = assemble_laplacian(grid, cfg.get("grid", "farfield"))
    try:
        _checked_row_scale(A)
    except SingularOperator as exc:
        raise BadGridConfig(
            f"grid N = {grid.N}, R = {grid.R}, n = {grid.n}, stretch = "
            f"{cfg.get('grid', 'stretch')} is not usable: its operator's "
            f"row sums span more than 1e14 (first cell volume "
            f"{grid.volumes[0]:.1e})") from exc
    pvals = assemble_weight_mass(grid, _build_weight(cfg))
    twin = _twin(cfg, grid.n)
    # the lifted start goes to first_eigenpair alone, which frees it
    # once its first step is taken
    eig = first_eigenpair(
        grid, A, pvals,
        start=None if twin is None else grid.lift(twin.grid, twin.eigen.phi1),
        shift=0.0 if twin is None else twin.eigen.lambda1)

    nlc = partial(cfg.get, "nonlinearity")
    if nlc("preset") == "linear":
        # a diagnostic preset, not a fold problem: no straddle check
        nl = linear_nonlinearity(nlc("slope"))
    else:
        mu_lo, mu_hi = nlc("mu_lower"), nlc("mu_upper")
        if mu_lo is None:
            mu_lo = nlc("mu_lower_factor") * eig.lambda1
            mu_hi = nlc("mu_upper_factor") * eig.lambda1
        if not (mu_lo < eig.lambda1 < mu_hi):
            raise SlopeViolation(f"slack slopes ({mu_lo}, {mu_hi}) do not "
                                 f"straddle lambda1 = {eig.lambda1} on the "
                                 f"{grid.n}-node grid")
        nl = smooth_ramp_nonlinearity(mu_lo, mu_hi, nlc("offset"))
    # f1 = zero is the only preset a file can name (docs/config.md); a
    # view of one zero adds the same bits as a vector of zeros
    forcing = ForcingSpec(t=cfg.get("forcing", "t"),
                          f1=np.broadcast_to(0.0, grid.n))
    return ProblemInstance(nonlinearity=nl, forcing=forcing, grid=grid,
                           weight_values=pvals, A=A, eigen=eig, twin=twin)


def _twin(cfg: ScenarioConfig, n: int) -> ProblemInstance | None:
    """The scenario of `cfg` built at the largest of COARSE_N and LADDER_N
    below n nodes, or None at n <= LADDER_N or where that build raises: a
    twin only speeds its parent up, and the parent's own build decides the
    scenario (slopes may straddle lambda1 on its grid but not the twin's)."""
    below = [m for m in (COARSE_N, LADDER_N) if m < n]
    try:
        return build_scenario_instance(replace(
            cfg, grid={**cfg.grid, "n": str(below[0])})) if below else None
    except SemifoldError:
        return None


CANONICAL_CONFIG = """\
[weight]
preset = rational_decay
power = 3.0
dimension = 3

[nonlinearity]
preset = smooth_ramp
mu_lower_factor = 0.5
mu_upper_factor = 2.0
offset = 1.0

[forcing]
t = 0.0
f1 = zero

[grid]
r = 40.0
n = 4000
stretch = 1.0
farfield = robin_decay

[run]
seed = 0
outdir = out
"""


def canonical_instance(R: float = 40.0, n: int = 4000) -> ProblemInstance:
    """Shared cross-module fixture: CANONICAL_CONFIG (N=3, P=(1+r^2)^-3,
    softplus-ramp g with slopes (0.5, 2) * lambda1, f1 = 0, Theta = 1)
    with its [grid] r and n set to R and n."""
    cfg = parse_config(CANONICAL_CONFIG)
    cfg.grid.update(r=repr(float(R)), n=str(n))
    return build_scenario_instance(parse_config(cfg.serialize()))
