from __future__ import annotations

import pytest

from schoolsim.config import (
    BaseStructure,
    SimulationConfig,
    config_by_id,
    config_matrix,
    load_config_file,
)


def test_matrix_has_nine_rows_in_id_order():
    matrix = config_matrix()
    assert [c.id for c in matrix] == list(range(1, 10))


def test_known_rows():
    c1 = config_by_id(1)
    assert (c1.eb_enabled, c1.kb_enabled, c1.base_structure, c1.stlt_enabled) == (
        True,
        True,
        BaseStructure.DUAL,
        True,
    )
    c4 = config_by_id(4)
    assert (c4.eb_enabled, c4.kb_enabled, c4.base_structure, c4.stlt_enabled) == (
        True,
        True,
        BaseStructure.UNIFIED,
        False,
    )
    c9 = config_by_id(9)
    assert (c9.eb_enabled, c9.kb_enabled, c9.base_structure, c9.stlt_enabled) == (
        False,
        False,
        BaseStructure.NONE,
        False,
    )


def test_none_structure_requires_everything_disabled():
    with pytest.raises(ValueError):
        SimulationConfig(99, True, False, BaseStructure.NONE, False)
    with pytest.raises(ValueError):
        SimulationConfig(99, False, False, BaseStructure.NONE, True)


def test_unknown_id_lists_valid_ids():
    with pytest.raises(ValueError) as excinfo:
        config_by_id(10)
    message = str(excinfo.value)
    assert "10" in message and "1" in message and "9" in message


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "custom.cfg"
    path.write_text(
        "# custom run\n"
        "id = 42\n"
        "eb_enabled = enabled\n"
        "kb_enabled = disabled\n"
        "base_structure = dual\n"
        "stlt_enabled = true\n",
        encoding="utf-8",
    )
    config = load_config_file(path)
    assert config == SimulationConfig(42, True, False, BaseStructure.DUAL, True)


def test_config_file_missing_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("id = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing keys"):
        load_config_file(path)
