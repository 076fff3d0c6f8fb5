import dataclasses
import inspect

import pytest

from groupreg.config import RunConfig, parse_config
from groupreg.errors import ValidationError
from groupreg.model import Hyperparams


def test_run_config_declares_no_hyperparameter_again():
    """RunConfig inherits every Hyperparams field and redeclares none."""
    assert set(Hyperparams.__dataclass_fields__) < set(RunConfig.__dataclass_fields__)
    assert not set(inspect.get_annotations(RunConfig)) & set(Hyperparams.__dataclass_fields__)


@pytest.mark.parametrize("key, value, message", [
    ("thin", 0, "thin >= 1"),                    # a run setting
    ("a_T", -1.0, "a_T must be > 0"),            # a prior hyperparameter
    ("scenario", "spiral", "scenario must be one of"),
])
def test_an_invalid_config_raises_however_it_is_built(key, value, message):
    with pytest.raises(ValidationError, match=message):
        RunConfig(**{key: value})
    with pytest.raises(ValidationError, match=message):
        dataclasses.replace(RunConfig(), **{key: value})
    with pytest.raises(ValidationError, match=message):
        parse_config(f"scenario=cosine\n{key}={value}\n")
