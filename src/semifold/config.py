"""Scenario configuration: INI-style files with sections
[weight], [nonlinearity], [forcing], [grid], [run].

See docs/config.md for the grammar.  Parsing is round-trip stable:
parse -> serialize -> parse reproduces the same scenario.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field

import numpy as np

from .eigen import first_eigenpair
from .errors import ConfigError, SlopeViolation
from .grid import (DIRICHLET, ROBIN_DECAY, assemble_laplacian,
                   assemble_weight_mass, build_grid)
from .problem import (ForcingSpec, ProblemInstance, WeightSpec,
                      exponential_weight, linear_nonlinearity,
                      rational_decay_weight, smooth_ramp_nonlinearity,
                      table_weight)

REQUIRED_SECTIONS = ("weight", "nonlinearity", "forcing", "grid")


@dataclass
class ScenarioConfig:
    weight: dict
    nonlinearity: dict
    forcing: dict
    grid: dict
    run: dict = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return int(_get_float(self.run, "seed", 0.0, where="run"))

    @property
    def outdir(self) -> str:
        return self.run.get("outdir", "out")

    def scenario_id(self) -> str:
        return self.content_hash()[:12]

    def content_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()

    def serialize(self) -> str:
        cp = configparser.ConfigParser(interpolation=None)
        for name in ("weight", "nonlinearity", "forcing", "grid", "run"):
            section = getattr(self, name)
            cp[name] = {k: str(v) for k, v in sorted(section.items())}
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
    cfg = ScenarioConfig(weight=dict(cp["weight"]),
                         nonlinearity=dict(cp["nonlinearity"]),
                         forcing=dict(cp["forcing"]),
                         grid=dict(cp["grid"]),
                         run=dict(cp["run"]) if "run" in cp else {})
    _validate(cfg)
    return cfg


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _get_float(section, key, default=None, *, where):
    if key not in section:
        if default is None:
            raise ConfigError(f"missing key '{key}' in section [{where}]")
        return default
    try:
        return float(section[key])
    except ValueError as exc:
        raise ConfigError(f"bad float for '{key}' in [{where}]: "
                          f"{section[key]!r}") from exc


def _validate(cfg: ScenarioConfig) -> None:
    g = cfg.grid
    R = _get_float(g, "r", where="grid")
    n = _get_float(g, "n", where="grid")
    if not n.is_integer():
        raise ConfigError(f"grid n must be an integer, got {g['n']!r}")
    if R <= 0 or n < 5:
        raise ConfigError(f"bad grid: R = {R}, n = {n}")
    if not _get_float(cfg.weight, "dimension", 3.0, where="weight").is_integer():
        raise ConfigError(f"weight dimension must be an integer, "
                          f"got {cfg.weight['dimension']!r}")
    farfield = g.get("farfield", ROBIN_DECAY)
    if farfield not in (ROBIN_DECAY, DIRICHLET):
        raise ConfigError(f"unknown farfield {farfield!r}")
    # an absent [run] key gets a stand-in that passes: its default lives
    # where the key is read
    run = cfg.run
    for key, least in (("seed", 0), ("max_points", 1)):
        value = _get_float(run, key, float(least), where="run")
        if not value.is_integer() or value < least:
            raise ConfigError(f"'{key}' in [run] must be an integer >= "
                              f"{least}, got {run[key]!r}")
    for key in ("eigen_tol", "newton_tol", "step_ds"):
        value = _get_float(run, key, 1.0, where="run")
        if not (np.isfinite(value) and value > 0.0):
            raise ConfigError(f"'{key}' in [run] must be finite and positive, "
                              f"got {run[key]!r}")
    if not np.isfinite(_get_float(run, "t_start", 0.0, where="run")):
        raise ConfigError(f"'t_start' in [run] must be finite, "
                          f"got {run['t_start']!r}")
    if cfg.weight.get("preset", "rational_decay") not in (
            "rational_decay", "exponential", "table"):
        raise ConfigError(f"unknown weight preset {cfg.weight.get('preset')!r}")
    if cfg.nonlinearity.get("preset", "smooth_ramp") not in (
            "smooth_ramp", "linear"):
        raise ConfigError(
            f"unknown nonlinearity preset {cfg.nonlinearity.get('preset')!r}")


def _build_weight(cfg: ScenarioConfig) -> WeightSpec:
    w = cfg.weight
    N = int(_get_float(w, "dimension", 3, where="weight"))
    preset = w.get("preset", "rational_decay")
    if preset == "rational_decay":
        power = _get_float(w, "power", 3.0, where="weight")
        return WeightSpec(rational_decay_weight(power), "rational_decay", N)
    if preset == "exponential":
        scale = _get_float(w, "scale", 1.0, where="weight")
        return WeightSpec(exponential_weight(scale), "exponential", N)
    # inline coefficient table: "r0:v0, r1:v1, ..."
    try:
        pairs = [tuple(map(float, item.split(":")))
                 for item in w["table"].split(",")]
    except (KeyError, ValueError) as exc:
        raise ConfigError("weight preset 'table' needs key "
                          "table = r0:v0, r1:v1, ...") from exc
    radii, values = zip(*pairs)
    return WeightSpec(table_weight(radii, values), "table", N)


def build_scenario_instance(cfg: ScenarioConfig) -> ProblemInstance:
    """The one assembly of an instance: grid, weight, operator, first
    eigenpair, nonlinearity (slopes possibly relative to lambda1), forcing."""
    weight = _build_weight(cfg)
    g = cfg.grid
    grid = build_grid(weight.N, _get_float(g, "r", where="grid"),
                      int(_get_float(g, "n", where="grid")),
                      _get_float(g, "stretch", 1.0, where="grid"))
    pvals = assemble_weight_mass(grid, weight.evaluator)
    A = assemble_laplacian(grid, g.get("farfield", ROBIN_DECAY))
    eig = first_eigenpair(grid, A, pvals,
                          tol=float(cfg.run.get("eigen_tol", 1e-12)))

    nlc = cfg.nonlinearity
    preset = nlc.get("preset", "smooth_ramp")
    if preset == "linear":
        nl = linear_nonlinearity(_get_float(nlc, "slope", where="nonlinearity"))
    else:
        if "mu_lower" in nlc:
            mu_lo = _get_float(nlc, "mu_lower", where="nonlinearity")
            mu_hi = _get_float(nlc, "mu_upper", where="nonlinearity")
        else:
            mu_lo = _get_float(nlc, "mu_lower_factor", 0.5,
                               where="nonlinearity") * eig.lambda1
            mu_hi = _get_float(nlc, "mu_upper_factor", 2.0,
                               where="nonlinearity") * eig.lambda1
        nl = smooth_ramp_nonlinearity(mu_lo, mu_hi,
                                      _get_float(nlc, "offset", 1.0,
                                                 where="nonlinearity"))

    fc = cfg.forcing
    t = _get_float(fc, "t", 0.0, where="forcing")
    f1_kind = fc.get("f1", "zero")
    if f1_kind == "zero":
        f1 = np.zeros(grid.n)
    else:
        raise ConfigError(f"unknown f1 preset {f1_kind!r} (use 'zero' or "
                          "decompose a raw forcing programmatically)")

    # the linear preset is a diagnostic, not a fold problem
    if preset != "linear" and not (nl.mu_lower < eig.lambda1 < nl.mu_upper):
        raise SlopeViolation(
            f"slack slopes ({nl.mu_lower}, {nl.mu_upper}) do not straddle "
            f"lambda1 = {eig.lambda1}")
    return ProblemInstance(weight=weight, nonlinearity=nl,
                           forcing=ForcingSpec(t=t, f1=f1), grid=grid,
                           weight_values=pvals, A=A, eigen=eig)


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


def canonical_instance(R: float = 40.0, n: int = 4000,
                       farfield: str = ROBIN_DECAY,
                       mu_factors=(0.5, 2.0)) -> ProblemInstance:
    """Shared cross-module fixture: CANONICAL_CONFIG (N=3, P=(1+r^2)^-3,
    softplus-ramp g with slopes mu_factors * lambda1, f1 = 0, Theta = 1)
    with the given keys overridden."""
    cfg = parse_config(CANONICAL_CONFIG)
    cfg.grid.update(r=repr(float(R)), n=str(n), farfield=farfield)
    cfg.nonlinearity.update(mu_lower_factor=repr(float(mu_factors[0])),
                            mu_upper_factor=repr(float(mu_factors[1])))
    _validate(cfg)
    return build_scenario_instance(cfg)
