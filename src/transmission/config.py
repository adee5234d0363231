"""Declarative experiment configuration: sectioned key-value files.

Every key maps to one physical parameter or numerical knob.  A value
reaches a config from the file, then from TRANSMISSION_SECTION__KEY
variables, which override it; all of them pass through one typed
assignment, then one validation reports every violation at once.  Float
values must be finite, and parse(serialize(cfg)) round-trips exactly.
"""

from __future__ import annotations

import configparser
import io
import itertools
import math
from dataclasses import dataclass, field, fields

from .dynamics import StepControl
from .geometry import DIRICHLET_SIDES as SIDES
from .poly import Nonlinearity

MODES = ("simulate", "spectrum", "constants", "classify", "sweep", "pairs")
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
    """The horizon and the step control; the defaults are StepControl's."""
    horizon: float = 1.0
    dt0: float = StepControl.dt0
    dt_min: float = StepControl.dt_min
    dt_max: float = StepControl.dt_max
    growth_cap: float = StepControl.growth_cap
    blow_up_threshold: float = StepControl.blow_up_threshold


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
    """Cells f = c_f |u|^q u, h = c_h |u|^p u over the product of the lists."""
    p_values: tuple[float, ...] = (0.0, 1.0)
    q_values: tuple[float, ...] = (1.0, 2.0, 3.0)
    cf_values: tuple[float, ...] = (1.0,)
    ch_values: tuple[float, ...] = (1.0,)
    simulate: bool = False

    def grid(self) -> list[tuple[float, float, float, float]]:
        """The (p, q, c_f, c_h) cells, the last list varying fastest."""
        return list(itertools.product(self.p_values, self.q_values,
                                      self.cf_values, self.ch_values))


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
        if r.seed < 0:
            v.append(f"run.seed = {r.seed}: must be >= 0")
        if r.jobs < 1:
            v.append(f"run.jobs = {r.jobs}: must be >= 1")
        if r.spectrum_count < 1:
            v.append(f"run.spectrum_count = {r.spectrum_count}: must be >= 1")
        if r.snapshot_stride < 0:
            v.append(f"run.snapshot_stride = {r.snapshot_stride}: must be >= 0")
        if r.safety_factor <= 0.0:
            v.append(f"run.safety_factor = {r.safety_factor}: must be positive")
        for key, admissible, where in (("alpha", lambda a: a > 2.0, "alpha > 2"),
                                       ("eps", lambda e: 0.0 < e < ph.d0,
                                        f"(0, d0 = {ph.d0})")):
            raw = getattr(r, key)
            if raw == "auto":
                continue
            try:
                if not admissible(_finite(raw)):
                    v.append(f"run.{key} = {raw}: admissible range {where}")
            except ValueError:
                v.append(f"run.{key} = {raw!r}: expected 'auto' or a finite number")
        for name in ("p_values", "q_values", "cf_values", "ch_values"):
            if not getattr(self.sweep, name):
                v.append(f"sweep.{name} is empty: need at least one value")
        for name in ("p_values", "q_values"):
            negative = [e for e in getattr(self.sweep, name) if e < 0.0]
            if negative:
                v.append(f"sweep.{name} has exponents {negative}: each must be >= 0")
        if self.pairs.perturbation <= 0.0:
            v.append(f"pairs.perturbation = {self.pairs.perturbation}: must be positive")
        if self.pairs.horizon <= 0.0:
            v.append(f"pairs.horizon = {self.pairs.horizon}: must be positive")
        return v


_SECTIONS = {f.name: f.type for f in fields(SimConfig)}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text.strip()!r}")
    return value


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
        return _finite(text)
    if isinstance(current, tuple):
        return tuple(_finite(v) for v in text.split(",") if v.strip())
    return text.strip()


def _assign(cfg: SimConfig, section: str, key: str, raw: str) -> None:
    """Set cfg.<section>.<key> from its text; ValueError says what is wrong."""
    if section not in _SECTIONS:
        raise ValueError(f"unknown section [{section}]")
    target = getattr(cfg, section)
    if key not in {f.name for f in fields(target)}:
        raise ValueError(f"unknown key {section}.{key}")
    try:
        setattr(target, key, _coerce(getattr(target, key), raw))
    except ValueError as exc:
        raise ValueError(f"{section}.{key} = {raw!r}: {exc}") from None


def parse_config_text(text: str, env: dict | None = None) -> SimConfig:
    """Parse the text, apply the TRANSMISSION_SECTION__KEY entries of `env`
    over it and validate; raises ConfigError carrying every violation."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"unparsable config: {exc}"]) from exc

    entries = [("", section, key, raw)
               for section in cp.sections() for key, raw in cp.items(section)]
    for name, raw in sorted((env or {}).items()):
        if name.startswith(ENV_PREFIX):
            section, _, key = name[len(ENV_PREFIX):].lower().partition("__")
            entries.append((f"environment override {name}: ", section, key, raw))
    cfg = SimConfig()
    violations: list[str] = []
    for origin, section, key, raw in entries:
        try:
            _assign(cfg, section, key, raw)
        except ValueError as exc:
            if origin + str(exc) not in violations:
                violations.append(origin + str(exc))
    violations.extend(cfg.validate())
    if violations:
        raise ConfigError(violations)
    return cfg


def parse_config(path, env: dict | None = None) -> SimConfig:
    with open(path) as fh:
        text = fh.read()
    return parse_config_text(text, env)


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return str(value)


def serialize_config(cfg: SimConfig) -> str:
    cp = configparser.ConfigParser(interpolation=None)
    for section in _SECTIONS:
        target = getattr(cfg, section)
        cp[section] = {f.name: _text(getattr(target, f.name)) for f in fields(target)}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
