"""Declarative experiment configuration: sectioned key-value files.

Every key maps to one physical parameter or numerical knob; parsing
validates everything and reports all violations at once, and
parse(serialize(cfg)) round-trips exactly.
"""

from __future__ import annotations

import configparser
import io
import os
from dataclasses import dataclass, field, fields

from .poly import Nonlinearity

MODES = ("simulate", "spectrum", "constants", "classify", "sweep", "pairs")
SIDES = ("left", "right", "bottom", "top", "all", "none")
ENV_PREFIX = "TRANSMISSION_"


class ConfigError(ValueError):
    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  " + "\n  ".join(violations))


@dataclass
class GeometryConfig:
    n: int = 16
    interface: str = "segment"        # segment | koch
    y0: float = 0.5
    koch_level: int = 1
    dirichlet_side: str = "left"
    total_mass: float = 1.0


@dataclass
class PhysicsConfig:
    d11: float = 1.0
    d12: float = 0.0
    d22: float = 1.0
    d0: float = 1.0
    beta: float = 1.0
    beta0: float = 1.0
    s: float = 0.5
    c0: float = 1.0
    c1: float = 1.0
    delta: int = 1


@dataclass
class NonlinearityConfig:
    terms: str = ""                  # "coef:exponent" pairs, ';'-separated
    constant: float = 0.0

    def pairs(self) -> list[tuple[float, float]]:
        out = []
        for chunk in self.terms.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                c, e = chunk.split(":")
                out.append((float(c), float(e)))
            except ValueError:
                raise ValueError(f"{chunk!r}: expected 'coef:exponent' pairs") from None
        return out

    def build(self) -> Nonlinearity:
        """The validated nonlinearity; ValueError on a bad term or constant."""
        return Nonlinearity(terms=tuple(self.pairs()), constant=self.constant)


@dataclass
class InitialConfig:
    kind: str = "eigenvector"        # eigenvector | expression | file
    scale: float = 1.0
    index: int = 1
    expression: str = "sin(pi*x)*sin(pi*y)"
    path: str = ""


@dataclass
class TimeConfig:
    horizon: float = 1.0
    dt0: float = 1e-3
    dt_min: float = 1e-18
    dt_max: float = 0.1
    growth_cap: float = 1.5
    blow_up_threshold: float = 1e8


@dataclass
class RunConfig:
    mode: str = "simulate"
    out: str = "out"
    seed: int = 0
    jobs: int = 1
    spectrum_count: int = 10
    ultra_fit: bool = False          # spectrum mode: also fit the 2->inf decay
    snapshot_stride: int = 0
    alpha: str = "auto"              # "auto" or a float > 2
    eps: str = "auto"                # "auto" or a float in (0, d0)
    safety_factor: float = 2.0


@dataclass
class SweepConfig:
    p_values: str = "0,1"
    q_values: str = "1,2,3"
    c_f: float = 1.0
    c_h: float = 1.0
    cf_values: str = ""
    ch_values: str = ""
    simulate: bool = False

    @staticmethod
    def _floats(text: str) -> list[float]:
        return [float(v) for v in text.split(",") if v.strip() != ""]

    def grid(self) -> list[dict]:
        """Cell parameter dicts, either over (p, q) or over (c_f, c_h)."""
        cells = []
        cfs, chs = self._floats(self.cf_values), self._floats(self.ch_values)
        if cfs and chs:
            for cf in cfs:
                for ch in chs:
                    cells.append({"p": self._floats(self.p_values)[0],
                                  "q": self._floats(self.q_values)[0],
                                  "c_f": cf, "c_h": ch})
            return cells
        for p in self._floats(self.p_values):
            for q in self._floats(self.q_values):
                cells.append({"p": p, "q": q, "c_f": self.c_f, "c_h": self.c_h})
        return cells


@dataclass
class PairsConfig:
    perturbation: float = 1e-2
    horizon: float = 10.0


@dataclass
class SimConfig:
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    physics: PhysicsConfig = field(default_factory=PhysicsConfig)
    bulk_nonlinearity: NonlinearityConfig = field(default_factory=NonlinearityConfig)
    interface_nonlinearity: NonlinearityConfig = field(default_factory=NonlinearityConfig)
    initial: InitialConfig = field(default_factory=InitialConfig)
    time: TimeConfig = field(default_factory=TimeConfig)
    run: RunConfig = field(default_factory=RunConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    pairs: PairsConfig = field(default_factory=PairsConfig)

    def validate(self) -> list[str]:
        v = []
        g, ph, t, r = self.geometry, self.physics, self.time, self.run
        if g.n < 2:
            v.append(f"geometry.n = {g.n}: need n >= 2")
        if g.interface not in ("segment", "koch"):
            v.append(f"geometry.interface = {g.interface!r}: expected segment or koch")
        if not (0.0 < g.y0 < 1.0):
            v.append(f"geometry.y0 = {g.y0}: admissible range (0, 1)")
        if g.koch_level < 0:
            v.append(f"geometry.koch_level = {g.koch_level}: must be >= 0")
        if g.dirichlet_side not in SIDES:
            v.append(f"geometry.dirichlet_side = {g.dirichlet_side!r}: expected one of {SIDES}")
        if g.total_mass <= 0.0:
            v.append(f"geometry.total_mass = {g.total_mass}: must be positive")
        if ph.d0 <= 0.0:
            v.append(f"physics.d0 = {ph.d0}: admissible range d0 > 0")
        if not (0.0 < ph.s < 1.0):
            v.append(f"physics.s = {ph.s}: admissible range s in (0, 1)")
        if ph.beta0 < 0.0:
            v.append(f"physics.beta0 = {ph.beta0}: must be >= 0")
        if ph.beta < ph.beta0:
            v.append(f"physics.beta = {ph.beta}: must be >= beta0 = {ph.beta0}")
        if ph.delta not in (0, 1):
            v.append(f"physics.delta = {ph.delta}: admissible values 0 or 1")
        if not (0.0 < ph.c0 <= ph.c1):
            v.append(f"physics kernel constants c0 = {ph.c0}, c1 = {ph.c1}: need 0 < c0 <= c1")
        if g.dirichlet_side == "none" and ph.beta0 <= 0.0:
            v.append("physics.beta0 must be positive when geometry.dirichlet_side = none")
        for name, nl in (("bulk_nonlinearity", self.bulk_nonlinearity),
                         ("interface_nonlinearity", self.interface_nonlinearity)):
            try:
                nl.build()
            except ValueError as exc:
                v.append(f"{name}: {exc}")
        if self.initial.kind not in ("eigenvector", "expression", "file"):
            v.append(f"initial.kind = {self.initial.kind!r}: "
                     "expected eigenvector, expression or file")
        if self.initial.kind == "eigenvector" and self.initial.index < 1:
            v.append(f"initial.index = {self.initial.index}: must be >= 1")
        if t.horizon <= 0.0:
            v.append(f"time.horizon = {t.horizon}: must be positive")
        if not (0.0 < t.dt_min < t.dt0 <= t.dt_max):
            v.append(f"time steps dt_min = {t.dt_min}, dt0 = {t.dt0}, "
                     f"dt_max = {t.dt_max}: need 0 < dt_min < dt0 <= dt_max")
        if t.growth_cap <= 1.0:
            v.append(f"time.growth_cap = {t.growth_cap}: must exceed 1")
        if t.blow_up_threshold <= 0.0:
            v.append(f"time.blow_up_threshold = {t.blow_up_threshold}: must be positive")
        if r.mode not in MODES:
            v.append(f"run.mode = {r.mode!r}: expected one of {MODES}")
        if r.jobs < 1:
            v.append(f"run.jobs = {r.jobs}: must be >= 1")
        if r.alpha != "auto":
            try:
                if float(r.alpha) <= 2.0:
                    v.append(f"run.alpha = {r.alpha}: admissible range alpha > 2")
            except ValueError:
                v.append(f"run.alpha = {r.alpha!r}: expected 'auto' or a number")
        if r.eps != "auto":
            try:
                if not (0.0 < float(r.eps) < ph.d0):
                    v.append(f"run.eps = {r.eps}: admissible range (0, d0 = {ph.d0})")
            except ValueError:
                v.append(f"run.eps = {r.eps!r}: expected 'auto' or a number")
        if self.pairs.perturbation <= 0.0:
            v.append(f"pairs.perturbation = {self.pairs.perturbation}: must be positive")
        return v


_SECTIONS = {f.name: f.type for f in fields(SimConfig)}


def _coerce(current, text: str):
    if isinstance(current, bool):
        low = text.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    if isinstance(current, int):
        return int(text)
    if isinstance(current, float):
        return float(text)
    return text.strip()


def parse_config_text(text: str, env: dict | None = None) -> SimConfig:
    """Parse and validate; raises ConfigError carrying every violation."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"unparsable config: {exc}"]) from exc

    cfg = SimConfig()
    violations: list[str] = []
    for section in cp.sections():
        if section not in _SECTIONS:
            violations.append(f"unknown section [{section}]")
            continue
        target = getattr(cfg, section)
        known = {f.name for f in fields(target)}
        for key, raw in cp.items(section):
            if key not in known:
                violations.append(f"unknown key {section}.{key}")
                continue
            try:
                setattr(target, key, _coerce(getattr(target, key), raw))
            except ValueError as exc:
                violations.append(f"{section}.{key} = {raw!r}: {exc}")

    for env_key, raw in sorted((env or {}).items()):
        if not env_key.startswith(ENV_PREFIX):
            continue
        rest = env_key[len(ENV_PREFIX):]
        if "__" not in rest:
            violations.append(f"environment override {env_key}: expected "
                              f"{ENV_PREFIX}SECTION__KEY")
            continue
        section, key = rest.lower().split("__", 1)
        if section not in _SECTIONS:
            violations.append(f"environment override {env_key}: unknown section {section}")
            continue
        target = getattr(cfg, section)
        if key not in {f.name for f in fields(target)}:
            violations.append(f"environment override {env_key}: unknown key {key}")
            continue
        try:
            setattr(target, key, _coerce(getattr(target, key), raw))
        except ValueError as exc:
            violations.append(f"environment override {env_key} = {raw!r}: {exc}")

    violations.extend(cfg.validate())
    if violations:
        raise ConfigError(violations)
    return cfg


def parse_config(path, use_env: bool = False) -> SimConfig:
    with open(path) as fh:
        text = fh.read()
    return parse_config_text(text, env=dict(os.environ) if use_env else None)


def serialize_config(cfg: SimConfig) -> str:
    cp = configparser.ConfigParser(interpolation=None)
    for section in _SECTIONS:
        target = getattr(cfg, section)
        cp[section] = {}
        for f in fields(target):
            val = getattr(target, f.name)
            if isinstance(val, bool):
                cp[section][f.name] = "true" if val else "false"
            elif isinstance(val, float):
                cp[section][f.name] = repr(val)
            else:
                cp[section][f.name] = str(val)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
