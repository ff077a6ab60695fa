"""Flat key=value run configuration: parsing, validation, serialization.

Each key sets one field of EngineConfig, RestitutionModel or
InitialCondition; a key that a config leaves out keeps that field's default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dsmc import EngineConfig, InitialCondition
from .errors import ConfigError
from .restitution import CONSTANT, POWER_LAW, VISCOELASTIC, RestitutionModel

# key -> (part of the RunSetup, field of that part, converter)
KEYS = {
    "engine.N": ("engine", "n", int),
    "engine.dt": ("engine", "dt", float),
    "engine.mu": ("engine", "mu", float),
    "engine.seed": ("engine", "seed", int),
    "restitution.kind": ("model", "kind", str),
    "restitution.a": ("model", "a", float),
    "restitution.gamma": ("model", "gamma", float),
    "restitution.e0": ("model", "e0", float),
    "restitution.lambda": ("model", "lambda_scale", float),
    "init.kind": ("init", "kind", str),
    "init.T0": ("init", "t0", float),
    "init.v0": ("init", "v0", float),
    "init.R": ("init", "radius", float),
    "run.max_steps": ("engine", "max_steps", int),
    "run.window": ("engine", "window", int),
    "run.tol": ("engine", "tol", float),
    "run.sample_every": ("engine", "sample_every", int),
    "run.diss_pairs": ("engine", "diss_pairs", int),
}
REQUIRED = ("engine.N", "engine.dt", "engine.mu", "restitution.kind")
# The key a law cannot do without, beyond restitution.kind.
_LAW_NEEDS = {CONSTANT: "restitution.e0", POWER_LAW: "restitution.gamma"}

_LAW_ALIASES = {
    "constant": CONSTANT,
    "power_law": POWER_LAW,
    "powerlaw": POWER_LAW,
    "viscoelastic": VISCOELASTIC,
}


def parse_config_text(text: str) -> dict:
    """Parse flat key=value lines; '#' starts a comment."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        conv = KEYS[key][2]
        try:
            values[key] = conv(val)
            if conv is float and not math.isfinite(values[key]):
                raise ValueError(val)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from None
    for key in REQUIRED:
        if key not in values:
            raise ConfigError(f"missing required key {key}")
    return values


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def serialize_config(values: dict) -> str:
    return "".join(f"{k} = {repr(v) if isinstance(v, float) else v}\n"
                   for k, v in sorted(values.items()))


@dataclass(frozen=True)
class RunSetup:
    engine: EngineConfig
    model: RestitutionModel
    init: InitialCondition


def build_setup(values: dict) -> RunSetup:
    """Materialize engine/model/init objects from parsed key=value pairs."""
    kind = str(values["restitution.kind"]).lower()
    if kind not in _LAW_ALIASES:
        raise ConfigError(f"restitution.kind must be one of "
                          f"{sorted(_LAW_ALIASES)}, got {kind!r}")
    kind = _LAW_ALIASES[kind]
    if kind in _LAW_NEEDS and _LAW_NEEDS[kind] not in values:
        raise ConfigError(f"{kind} restitution requires {_LAW_NEEDS[kind]}")
    parts: dict[str, dict] = {"engine": {}, "model": {}, "init": {}}
    for key, value in values.items():
        part, name, _ = KEYS[key]
        parts[part][name] = value
    parts["model"]["kind"] = kind
    return RunSetup(engine=EngineConfig(**parts["engine"]),
                    model=RestitutionModel(**parts["model"]),
                    init=InitialCondition(**parts["init"]))
