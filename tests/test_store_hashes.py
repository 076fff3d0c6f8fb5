"""tools/store_hashes.py: one row of the seeded-output table."""

import importlib.util
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "store_hashes.py"
spec = importlib.util.spec_from_file_location("store_hashes", TOOL)
store_hashes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(store_hashes)


@pytest.mark.parametrize("model", ["symmetric", "conventional"])
def test_a_row_is_seven_short_hashes_and_the_same_on_a_second_call(model):
    row = store_hashes.store_row(model, "cosine", 1, 4)
    assert len(row) == len(store_hashes.FIELDS) == 7
    assert all(re.fullmatch(r"[0-9a-f]{12}", cell) for cell in row)
    assert store_hashes.store_row(model, "cosine", 1, 4) == row
