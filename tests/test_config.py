import dataclasses
import inspect

import pytest

from groupreg.config import RunConfig, parse_config
from groupreg.errors import ValidationError
from groupreg.model import M_MAX, Hyperparams


def test_run_config_declares_no_hyperparameter_again():
    """RunConfig inherits every Hyperparams field and redeclares none."""
    assert set(Hyperparams.__dataclass_fields__) < set(RunConfig.__dataclass_fields__)
    assert not set(inspect.get_annotations(RunConfig)) & set(Hyperparams.__dataclass_fields__)


@pytest.mark.parametrize("key, value, message", [
    ("thin", 0, "thin >= 1"),                    # a run setting
    ("a_T", -1.0, "a_T must be > 0"),            # a prior hyperparameter
    ("scenario", "spiral", "scenario must be one of"),
    ("seed", -1, "seed must be >= 0"),
    # exp(-rho d) with rho < 0 grows with distance and is no covariance
    ("rho_lower", -1e-9, "rho_lower must be >= 0"),
    ("m", M_MAX + 1, f"m must lie in 1..{M_MAX}"),
])
def test_an_invalid_config_raises_however_it_is_built(key, value, message):
    with pytest.raises(ValidationError, match=message):
        RunConfig(**{key: value})
    with pytest.raises(ValidationError, match=message):
        dataclasses.replace(RunConfig(), **{key: value})
    with pytest.raises(ValidationError, match=message):
        parse_config(f"scenario=cosine\n{key}={value}\n")


FLOAT_FIELDS = [f.name for f in dataclasses.fields(RunConfig) if f.type == "float"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_FIELDS + ["lambda_r_grid"])
def test_a_non_finite_setting_is_rejected(key, value):
    """Each float field, and a value of the lambda_r grid, must be finite."""
    text = f"0.5,{value}" if key == "lambda_r_grid" else value
    with pytest.raises(ValidationError, match=f"{key} must be finite"):
        parse_config(f"scenario=cosine\n{key}={text}\n")
