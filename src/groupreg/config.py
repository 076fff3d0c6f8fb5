"""Run configuration: key=value text files, defaults, validation.

Config text is UTF-8, one `key=value` per line, '#' starts a comment.
Omitted keys take the defaults below (transform-prior shapes/rates 0.1,
neighborhood size 10, decay-range upper bound 3, chain 30000/15000/10).
The neighbor-library margin is not a key: `sampler.Chain` sizes it from the
initial transforms. Nor is the rho proposal step (`sampler.RHO_STEP`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .model import Hyperparams

MODELS = ("symmetric", "conventional")
SCENARIOS = ("", "indicator", "cosine", "glyph")


@dataclass(frozen=True)
class RunConfig:
    model: str = "symmetric"
    scenario: str = ""
    maps: tuple = ()
    n_subjects: int = 3
    noise_sd: float = -1.0          # < 0 means: use the scenario default
    sim_seed: int = -1              # < 0 means: use `seed`
    seed: int = 0
    total: int = 30000
    burn_in: int = 15000
    thin: int = 10
    m: int = 10
    lambda_r: float = 1.0
    lambda_r_grid: tuple = (0.1, 1.0, 10.0, 100.0)
    a_T: float = 0.1
    b_T: float = 0.1
    a_Tr: float = 0.1
    b_Tr: float = 0.1
    a0_alpha: float = 2.0
    b0_alpha: float = 1.0
    rho_lower: float = 0.0
    rho_upper: float = 3.0
    lambda0: float = 1.0
    mu0: float = 1.0
    a0_sigma: float = 2.0
    a1_sigma: float = 1.0
    credible_level: float = 0.95
    tau: float = 1.5
    landmark_stride: int = 2
    init_iters: int = 10

    def validate(self):
        if self.model not in MODELS:
            raise ValidationError(f"model must be one of {MODELS}")
        if self.scenario not in SCENARIOS:
            raise ValidationError(f"scenario must be one of {SCENARIOS[1:]} (or omitted)")
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
        if self.tau <= 0:
            raise ValidationError("tau must be > 0")
        if self.landmark_stride < 1:
            raise ValidationError("landmark_stride must be >= 1")
        if self.init_iters < 1:
            raise ValidationError("init_iters must be >= 1")
        self.hyperparams()  # validates all prior hyperparameters
        return self

    def hyperparams(self):
        return Hyperparams(**{f.name: getattr(self, f.name)
                              for f in dataclasses.fields(Hyperparams)})

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
    return cfg.validate()


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
