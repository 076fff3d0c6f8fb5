"""Run configuration: key=value text files, defaults, validation.

Config text is UTF-8, one `key=value` per line, '#' starts a comment.
Omitted keys take the field defaults. `RunConfig` extends
`model.Hyperparams`, so the prior hyperparameters and lambda_r are declared
there once, and the chains use the config itself as their hyperparameters.
A config is validated whenever it is built: by `RunConfig(...)`,
`dataclasses.replace` or `parse_config`. Every float setting must be
finite, the seed must be >= 0 (a negative sim_seed means "use seed"),
rho_lower must be >= 0, m must lie in 1..`model.M_MAX`, and lambda_r keeps
its default under model=conventional, whose outputs it does not reach. Not
keys: the neighbor-library margin (derived by `sampler.Chain`),
`sampler.RHO_STEP`, and the baseline's `KERNEL_WIDTH` and `LANDMARK_STRIDE`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .model import Hyperparams
from .synth import SCENARIO_DEFAULT_NOISE

MODELS = ("symmetric", "conventional")


@dataclass(frozen=True)
class RunConfig(Hyperparams):
    model: str = "symmetric"
    scenario: str = ""              # empty: the maps come from `maps`
    maps: tuple = ()
    n_subjects: int = 3
    noise_sd: float = -1.0          # < 0 means: use the scenario default
    sim_seed: int = -1              # < 0 means: use `seed`
    seed: int = 0
    total: int = 30000
    burn_in: int = 15000
    thin: int = 10
    lambda_r_grid: tuple = (0.1, 1.0, 10.0, 100.0)
    credible_level: float = 0.95
    init_iters: int = 10

    def __post_init__(self):
        super().__post_init__()
        if self.model not in MODELS:
            raise ValidationError(f"model must be one of {MODELS}")
        if self.model == "conventional" and self.lambda_r != Hyperparams.lambda_r:
            raise ValidationError("lambda_r reaches no output of model=conventional")
        if self.scenario and self.scenario not in SCENARIO_DEFAULT_NOISE:
            raise ValidationError(
                f"scenario must be one of {tuple(SCENARIO_DEFAULT_NOISE)} (or omitted)")
        if not self.burn_in < self.total:
            raise ValidationError("burn-in < total is required")
        if self.burn_in < 0:
            raise ValidationError("burn-in must be >= 0")
        if self.thin < 1:
            raise ValidationError("thin >= 1 is required")
        if not 0.0 < self.credible_level < 1.0:
            raise ValidationError("credible_level must lie in (0, 1)")
        if self.n_subjects < 1:
            raise ValidationError("n_subjects must be >= 1")
        if self.init_iters < 1:
            raise ValidationError("init_iters must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")

    def effective_sim_seed(self):
        return self.seed if self.sim_seed < 0 else self.sim_seed

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["maps"] = list(self.maps)
        d["lambda_r_grid"] = list(self.lambda_r_grid)
        return d

    def canonical_text(self):
        items = sorted(self.to_dict().items())
        return "\n".join(f"{k}={json.dumps(v, sort_keys=True)}" for k, v in items) + "\n"

    def config_hash(self):
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}
_EXPECTED = {int: "an integer", float: "a number"}


def parse_lambda_r_grid(text, line=None):
    """Comma-separated lambda_r values, as the config key and the CLI flag give them."""
    try:
        grid = tuple(float(s) for s in text.split(",") if s.strip())
        if grid:
            return grid
    except ValueError:
        pass
    raise ParseError(f"lambda_r_grid needs comma-separated numbers, got {text!r}", line=line)


def parse_config(text):
    """Parse key=value config text into a validated RunConfig.

    A scalar key takes the type of its field's default.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {raw!r}", line=lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _DEFAULTS:
            raise ParseError(f"unknown key {key!r}", line=lineno)
        if key == "maps":
            values[key] = tuple(p for p in (s.strip() for s in val.split(",")) if p)
        elif key == "lambda_r_grid":
            values[key] = parse_lambda_r_grid(val, line=lineno)
        else:
            kind = type(_DEFAULTS[key])
            try:
                values[key] = kind(val)
            except ValueError:
                raise ParseError(f"{key} needs {_EXPECTED[kind]}, got {val!r}", line=lineno)
    cfg = RunConfig(**values)
    for path in cfg.maps:
        if not os.path.exists(path):
            raise ValidationError(f"map path does not exist: {path}")
    return cfg


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
