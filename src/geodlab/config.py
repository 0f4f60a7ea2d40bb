"""Experiment configuration: typed key = value files with fail-fast checks.

A config file is plain text, one `key = value` per line, with blank
lines and `#` comments ignored.  Every experiment declares its keys in a
registry.  Unknown keys, malformed values, grids that are not strictly
increasing and positive, and values outside a key's range are rejected
with the offending key named.  The ranges are the probabilities' open
interval, minima, the bounds that the runners' modules enforce, and the
fewest points a slope fit, or a thin-to-thick ratio, needs.
Each experiment names the one module that owns it; a config imports
that module when it is built, so a run loads only its own layer, and
reads those bounds from it by name.
Values given on the command line override file values.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """A configuration value failed validation."""


class ResourceError(RuntimeError):
    """A requested computation exceeds its resource envelope."""


@dataclass(frozen=True)
class ParamSpec:
    """One config key: value kind, default, optional inclusive minimum
    and maximum; a grid's minimum and maximum bound each entry, and a
    grid holds at least `entries` values.  A bound given as a name is
    that constant of the experiment's owning module."""

    kind: str  # int | float | prob | grid | prob_grid
    default: object
    minimum: float | str | None = None
    maximum: float | str | None = None
    entries: int = 1


# Per-experiment key registries.  Grids are strictly increasing tuples;
# prob values, and each entry of a prob_grid, live in the open interval
# (0, 1); minima bound counts;
# bounds given by name are the ranges the owning modules enforce.
EXPERIMENTS: dict = {
    "count": {
        "r_grid": ParamSpec("grid", (3.0, 4.0, 5.0, 6.0),
                            maximum="MAX_ENUM_LENGTH"),
    },
    "thin": {
        "delta_grid": ParamSpec("prob_grid", (0.05, 0.1, 0.2)),
        "tau": ParamSpec("float", 1.5, minimum=0.5),
        "steps": ParamSpec("int", 5, minimum=3),
        "base_height": ParamSpec("float", 40.0, minimum=2.0),
        "tolerance": ParamSpec("float", 2.1, minimum=0.1),
    },
    "bias-verify": {
        "factors": ParamSpec("int", 1, minimum=1),
        # the detrended slope is fitted over the radii
        "tau_grid": ParamSpec("grid", (3.0, 4.0, 5.0, 6.0, 7.0),
                              maximum="MAX_CONTRACTION_RADIUS", entries=2),
        "samples": ParamSpec("int", 100_000, minimum=1000),
    },
    "walk": {
        "tau": ParamSpec("float", 2.0, minimum=0.5),
        "steps": ParamSpec("int", 4, minimum=2),
        "delta": ParamSpec("prob", 0.05),
    },
    "mix": {
        "time": ParamSpec("float", 6.0, minimum=1.0, maximum="MAX_MIX_TIME"),
        "samples": ParamSpec("int", 1_000_000, minimum="MIN_MIXING_SAMPLES",
                             maximum="MAX_MIX_SAMPLES"),
        "fraction": ParamSpec("prob", 0.02, maximum="MAX_BOX_FRACTION"),
    },
    "close": {
        "r_grid": ParamSpec("grid", (3.0, 4.0, 5.0), minimum="MIN_CENSUS_TIME",
                            maximum="MAX_CENSUS_TIME"),
        "samples": ParamSpec("int", 32_000, minimum=1000),
        "fraction": ParamSpec("prob", 0.02, maximum="MAX_BOX_FRACTION"),
    },
    "lattice": {
        "systole_grid": ParamSpec("grid", (0.01, 0.1, 1.0),
                                  minimum="MIN_SYSTOLE",
                                  maximum="MAX_SYSTOLE", entries=2),
        "tau_grid": ParamSpec("grid", (2.0, 3.0, 4.0, 5.0, 6.0),
                              maximum="MAX_ORBIT_RADIUS"),
        "spread_radius": ParamSpec("float", 0.5, minimum=0.05,
                                   maximum="MAX_SPREAD_RADIUS"),
    },
    "veech": {
        "max_length": ParamSpec("float", 6.0, minimum="MIN_FIT_LENGTH",
                                maximum="MAX_ENUM_LENGTH"),
        "step": ParamSpec("float", 0.02, minimum="MIN_AXIS_STEP",
                          maximum="MAX_AXIS_STEP"),
    },
    "recurrence": {
        "horizon": ParamSpec("int", 8, minimum=2),
        "samples": ParamSpec("int", 20_000, minimum=1000),
        "delta": ParamSpec("prob", 0.25),
        "theta": ParamSpec("prob", 0.5),
    },
    "assemble": {
        "r": ParamSpec("float", 6.0, minimum=1.0, maximum="MAX_ENUM_LENGTH"),
        "bands": ParamSpec("int", 3, minimum=1),
    },
}

# The module that owns each experiment: its runner calls into it, and
# its named bounds are read from it.
OWNERS = {
    "count": "words", "assemble": "words", "veech": "words",
    "walk": "walk", "thin": "walk",
    "recurrence": "flow", "mix": "flow", "close": "flow",
    "lattice": "lattice",
    "bias-verify": "products",
}

DEFAULT_SEED = 20260821


@dataclass
class ExperimentConfig:
    """Validated parameters for one experiment run."""

    experiment: str
    seed: int = DEFAULT_SEED
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment '{self.experiment}'; choose from "
                f"{', '.join(sorted(EXPERIMENTS))}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError("seed must be a 64-bit nonnegative integer")
        self.seed = int(self.seed)
        spec = EXPERIMENTS[self.experiment]
        unknown = set(self.params) - set(spec)
        if unknown:
            raise ConfigError(
                f"unknown key '{sorted(unknown)[0]}' for experiment "
                f"'{self.experiment}'; valid keys: {', '.join(sorted(spec))}")
        owner = importlib.import_module(f".{OWNERS[self.experiment]}",
                                        __package__)
        full = {}
        for key, ps in spec.items():
            raw = self.params.get(key, ps.default)
            full[key] = _coerce(self.experiment, key, ps, raw, owner)
        self.params = full


def _coerce(experiment: str, key: str, ps: ParamSpec, raw, owner):
    lo, hi = (getattr(owner, b) if isinstance(b, str) else b
              for b in (ps.minimum, ps.maximum))
    try:
        if ps.kind == "int":
            v = int(str(raw)) if not isinstance(raw, (int, float)) else int(raw)
            if isinstance(raw, float) and raw != v:
                raise ValueError
        elif ps.kind in ("float", "prob"):
            v = float(raw)
        elif ps.kind in ("grid", "prob_grid"):
            if isinstance(raw, str):
                parts = [p for p in raw.replace(",", " ").split() if p]
                v = tuple(float(p) for p in parts)
            else:
                v = tuple(float(p) for p in raw)
        else:  # pragma: no cover - registry is static
            raise ConfigError(f"bad kind {ps.kind}")
    except (TypeError, ValueError):
        raise ConfigError(
            f"{experiment}.{key}: cannot read {raw!r} as {ps.kind}") from None
    if ps.kind in ("grid", "prob_grid"):
        if len(v) < 1:
            raise ConfigError(f"{experiment}.{key}: grid is empty")
        if len(v) < ps.entries:
            raise ConfigError(f"{experiment}.{key}: grid needs at least "
                              f"{ps.entries} entries, got {v}")
        if any(b <= a for a, b in zip(v, v[1:])):
            raise ConfigError(
                f"{experiment}.{key}: grid must be strictly increasing, got {v}")
        if any(not math.isfinite(g) for g in v):
            raise ConfigError(f"{experiment}.{key}: grid entries must be finite")
        if v[0] <= 0.0:
            raise ConfigError(
                f"{experiment}.{key}: grid entries must be positive, got {v}")
        if ps.kind == "prob_grid" and not v[-1] < 1.0:
            raise ConfigError(
                f"{experiment}.{key}: entries must lie in (0, 1), got {v}")
        # the grid is increasing, so its ends bound every entry
        least, most, must = v[0], v[-1], f"{experiment}.{key}: entries must"
    else:
        if ps.kind == "prob" and not 0.0 < v < 1.0:
            raise ConfigError(
                f"{experiment}.{key}: must lie in (0, 1), got {v}")
        if ps.kind in ("float", "int") and not math.isfinite(float(v)):
            raise ConfigError(f"{experiment}.{key}: must be finite")
        least, most, must = v, v, f"{experiment}.{key}: must"
    if lo is not None and least < lo:
        raise ConfigError(f"{must} be at least {lo}, got {v}")
    if hi is not None and most > hi:
        raise ConfigError(f"{must} be at most {hi}, got {v}")
    return v


def parse_kv_text(text: str) -> dict:
    """key = value lines into a string dict; comments and blanks skipped."""
    out = {}
    for ln, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {ln}: expected 'key = value', got {line!r}")
        key, val = body.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {ln}: empty key")
        if key in out:
            raise ConfigError(f"line {ln}: duplicate key '{key}'")
        out[key] = val.strip()
    return out


def build_config(experiment: str, file_text: str | None = None,
                 overrides: dict | None = None) -> ExperimentConfig:
    """Merge file values and overrides (overrides win) into a config."""
    kv = parse_kv_text(file_text) if file_text else {}
    if overrides:
        kv.update({k: v for k, v in overrides.items() if v is not None})
    seed = kv.pop("seed", DEFAULT_SEED)
    try:
        seed = int(str(seed))
    except ValueError:
        raise ConfigError("seed must be an integer") from None
    return ExperimentConfig(experiment=experiment, seed=seed, params=kv)
