"""Run configurations for the memory-ablation matrix.

Nine baseline configurations toggle the experience base (EB), the knowledge
base (KB), the base structure (dual / unified / none), and the short-term /
long-term hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path


class BaseStructure(Enum):
    DUAL = "dual"
    UNIFIED = "unified"
    NONE = "none"


@dataclass(frozen=True)
class SimulationConfig:
    """One row of the ablation matrix."""

    id: int
    eb_enabled: bool
    kb_enabled: bool
    base_structure: BaseStructure
    stlt_enabled: bool

    def __post_init__(self) -> None:
        if self.base_structure is BaseStructure.NONE:
            if self.eb_enabled or self.kb_enabled or self.stlt_enabled:
                raise ValueError(
                    "base_structure=none requires both bases and the "
                    "short/long-term hierarchy to be disabled"
                )

    @property
    def memory_enabled(self) -> bool:
        return self.base_structure is not BaseStructure.NONE

    def kind_enabled(self, kind) -> bool:
        # Accepts a MemoryKind; kept untyped to avoid a circular import.
        return self.eb_enabled if kind.value == "experience" else self.kb_enabled

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "eb_enabled": self.eb_enabled,
            "kb_enabled": self.kb_enabled,
            "base_structure": self.base_structure.value,
            "stlt_enabled": self.stlt_enabled,
        }


_MATRIX: tuple[tuple[int, bool, bool, BaseStructure, bool], ...] = (
    (1, True, True, BaseStructure.DUAL, True),
    (2, True, True, BaseStructure.UNIFIED, True),
    (3, True, True, BaseStructure.DUAL, False),
    (4, True, True, BaseStructure.UNIFIED, False),
    (5, False, True, BaseStructure.DUAL, True),
    (6, True, False, BaseStructure.DUAL, True),
    (7, False, True, BaseStructure.DUAL, False),
    (8, True, False, BaseStructure.DUAL, False),
    (9, False, False, BaseStructure.NONE, False),
)


def config_matrix() -> list[SimulationConfig]:
    """All nine baseline configurations, in id order."""
    return [SimulationConfig(*row) for row in _MATRIX]


def config_by_id(config_id: int) -> SimulationConfig:
    for row in _MATRIX:
        if row[0] == config_id:
            return SimulationConfig(*row)
    valid = ", ".join(str(row[0]) for row in _MATRIX)
    raise ValueError(f"unknown config id {config_id}; valid ids: {valid}")


def load_config_file(path: str | Path) -> SimulationConfig:
    """Read a custom configuration from a simple key=value file.

    Recognized keys: id, eb_enabled, kb_enabled, base_structure, stlt_enabled.
    """
    values: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()

    def parse_bool(key: str) -> bool:
        value = values[key].lower()
        if value in ("true", "1", "yes", "enabled"):
            return True
        if value in ("false", "0", "no", "disabled"):
            return False
        raise ValueError(f"{key}: cannot parse boolean from {values[key]!r}")

    missing = [
        k
        for k in ("id", "eb_enabled", "kb_enabled", "base_structure", "stlt_enabled")
        if k not in values
    ]
    if missing:
        raise ValueError(f"config file missing keys: {', '.join(missing)}")
    return SimulationConfig(
        id=int(values["id"]),
        eb_enabled=parse_bool("eb_enabled"),
        kb_enabled=parse_bool("kb_enabled"),
        base_structure=BaseStructure(values["base_structure"].lower()),
        stlt_enabled=parse_bool("stlt_enabled"),
    )
