"""Flat key=value run configuration: parsing, validation, serialization."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dsmc import EngineConfig, InitialCondition
from .errors import ConfigError
from .restitution import (CONSTANT, POWER_LAW, VISCOELASTIC, RestitutionModel,
                          rescale)

_BOOL = {"true": True, "1": True, "yes": True, "on": True,
         "false": False, "0": False, "no": False, "off": False}

# key -> (converter, required)
_SCHEMA = {
    "engine.N": (int, True),
    "engine.dt": (float, True),
    "engine.mu": (float, True),
    "engine.seed": (int, False),
    "engine.recenter": ("bool", False),
    "restitution.kind": (str, True),
    "restitution.a": (float, False),
    "restitution.gamma": (float, False),
    "restitution.gamma_bar": (float, False),
    "restitution.e0": (float, False),
    "restitution.lambda": (float, False),
    "init.kind": (str, False),
    "init.T0": (float, False),
    "init.v0": (float, False),
    "init.R": (float, False),
    "run.max_steps": (int, False),
    "run.window": (int, False),
    "run.tol": (float, False),
    "run.sample_every": (int, False),
    "run.diss_pairs": (int, False),
}

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
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        conv, _ = _SCHEMA[key]
        try:
            if conv == "bool":
                values[key] = _BOOL[val.lower()]
            else:
                values[key] = conv(val)
            if conv is float and not math.isfinite(values[key]):
                raise ValueError(val)
        except (ValueError, KeyError):
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from None
    for key, (_, required) in _SCHEMA.items():
        if required and key not in values:
            raise ConfigError(f"missing required key {key}")
    return values


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def serialize_config(values: dict) -> str:
    return "".join(f"{k} = {_fmt(v)}\n" for k, v in sorted(values.items()))


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else str(v)


@dataclass(frozen=True)
class RunSetup:
    engine: EngineConfig
    model: RestitutionModel
    init: InitialCondition
    raw: dict


def build_setup(values: dict) -> RunSetup:
    """Materialize engine/model/init objects from parsed key=value pairs."""
    kind_raw = str(values["restitution.kind"]).lower()
    if kind_raw not in _LAW_ALIASES:
        raise ConfigError(f"restitution.kind must be one of "
                          f"{sorted(set(_LAW_ALIASES))}, got {kind_raw!r}")
    kind = _LAW_ALIASES[kind_raw]
    kwargs: dict = {"kind": kind}
    if kind == CONSTANT:
        if "restitution.e0" not in values:
            raise ConfigError("constant restitution requires restitution.e0")
        kwargs["e0"] = values["restitution.e0"]
    else:
        kwargs["a"] = values.get("restitution.a", 1.0)
        if kind == POWER_LAW:
            if "restitution.gamma" not in values:
                raise ConfigError("power_law restitution requires restitution.gamma")
            kwargs["gamma"] = values["restitution.gamma"]
        if "restitution.gamma_bar" in values:
            kwargs["gamma_bar"] = values["restitution.gamma_bar"]
    model = RestitutionModel(**kwargs)
    if "restitution.lambda" in values:
        model = rescale(model, values["restitution.lambda"])

    engine = EngineConfig(
        n=values["engine.N"],
        dt=values["engine.dt"],
        mu=values["engine.mu"],
        seed=values.get("engine.seed", 0),
        recenter=values.get("engine.recenter", True),
        max_steps=values.get("run.max_steps", 20000),
        window=values.get("run.window", 200),
        tol=values.get("run.tol", 0.01),
        sample_every=values.get("run.sample_every", 10),
        diss_pairs=values.get("run.diss_pairs", 100_000),
    )
    init = InitialCondition(
        kind=values.get("init.kind", "maxwellian"),
        t0=values.get("init.T0", 1.0),
        v0=values.get("init.v0", 1.0),
        radius=values.get("init.R", 1.0),
    )
    return RunSetup(engine=engine, model=model, init=init, raw=dict(values))
