"""School map, class timetables, simulation time, and the action catalog.

Map and timetables are data, not code: the area list and both class
timetables ship as plain text files under ``schoolsim/data`` and are loaded
here. Time is slot-indexed; wall-clock labels are display metadata only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

from .agent import TEACHER_SUBJECTS, RoleKind
from .errors import (
    RoleMismatchError,
    UnknownActionError,
    UnknownAreaError,
)

N_DAYS = 5
DAY_NAMES = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday")


class Slot(Enum):
    """The ten slots of a school day, in order."""

    PERIOD1 = ("Period 1", "8:00-8:40")
    BREAK1 = ("Break 1", None)
    PERIOD2 = ("Period 2", "9:00-9:40")
    BREAK2 = ("Break 2", None)
    PERIOD3 = ("Period 3", "10:00-10:40")
    LUNCH = ("Lunch Break", None)
    PERIOD4 = ("Period 4", "13:30-14:10")
    BREAK3 = ("Break 3", None)
    PERIOD5 = ("Period 5", "14:30-15:10")
    EXTRACURRICULAR = ("Extracurricular Activity", None)

    def __init__(self, label: str, wall_clock: str | None):
        self.label = label
        self.wall_clock = wall_clock

    @property
    def index(self) -> int:
        return _SLOT_ORDER.index(self)

    @property
    def display(self) -> str:
        if self.wall_clock:
            return f"{self.label} ({self.wall_clock})"
        return self.label

    @property
    def period_number(self) -> int | None:
        if self.label.startswith("Period "):
            return int(self.label.split()[1])
        return None

    @classmethod
    def from_label(cls, label: str) -> "Slot":
        """The slot of a label, in any case, with or without a ``(...)``
        suffix, or of the short forms "Lunch" and "Extracurricular"."""
        slot = _SLOT_BY_LABEL.get(label)
        if slot is None:
            slot = _SLOT_BY_LABEL.get(label.split("(")[0].strip().lower())
        if slot is None:
            raise ValueError(f"unknown slot label: {label!r}")
        return slot


_SLOT_ORDER = list(Slot)
# Exact labels, lower-cased labels and the short forms used in prose.
_SLOT_BY_LABEL = {
    **{slot.label: slot for slot in Slot},
    **{slot.label.lower(): slot for slot in Slot},
    "lunch": Slot.LUNCH,
    "extracurricular": Slot.EXTRACURRICULAR,
}
SLOTS_PER_DAY = len(_SLOT_ORDER)


@dataclass(frozen=True, order=True)
class SimTime:
    """A point on the five-day simulation calendar."""

    day: int
    slot_index: int

    def __post_init__(self) -> None:
        if not 1 <= self.day <= N_DAYS:
            raise ValueError(f"day out of range: {self.day}")
        if not 0 <= self.slot_index < SLOTS_PER_DAY:
            raise ValueError(f"slot index out of range: {self.slot_index}")

    @classmethod
    def at(cls, day: int, slot: Slot) -> "SimTime":
        return cls(day, slot.index)

    @property
    def slot(self) -> Slot:
        return _SLOT_ORDER[self.slot_index]

    @property
    def ordinal(self) -> int:
        """Absolute slot number from 0 (day 1, Period 1) to 49."""
        return (self.day - 1) * SLOTS_PER_DAY + self.slot_index

    @property
    def day_name(self) -> str:
        return DAY_NAMES[self.day - 1]

    def as_dict(self) -> dict:
        return {"day": self.day, "slot": self.slot.label}


class AreaMap:
    """The set of named school areas; fully connected by default."""

    def __init__(self, areas: list[str]):
        if len(areas) != len(set(areas)):
            raise ValueError("duplicate area names")
        self.areas = tuple(areas)
        self._lookup = {a.lower(): a for a in areas}

    @classmethod
    def default(cls) -> "AreaMap":
        text = (
            resources.files("schoolsim.data").joinpath("areas.txt").read_text("utf-8")
        )
        areas = [
            line.strip()
            for line in text.splitlines()
            if line.strip() and not line.startswith("#")
        ]
        return cls(areas)

    def canonical(self, name: str) -> str:
        try:
            return self._lookup[name.strip().lower()]
        except KeyError:
            raise UnknownAreaError(f"unknown area: {name!r}") from None


@dataclass
class EnvironmentState:
    """Agent locations (single-writer per agent: the orchestrator).

    Moves are not kept here: each one is returned to the caller, which logs
    it in the step's entry.
    """

    area_map: AreaMap
    locations: dict[str, str] = field(default_factory=dict)

    def place(self, agent_id: str, area: str) -> None:
        self.locations[agent_id] = self.area_map.canonical(area)

    def move_agent(self, agent_id: str, target_area: str) -> dict:
        target = self.area_map.canonical(target_area)
        origin = self.locations.get(agent_id)
        delta = {"agent_id": agent_id, "from": origin, "to": target}
        self.locations[agent_id] = target
        return delta


class Timetable:
    """Day x period subject grid for one class."""

    def __init__(self, class_id: str, grid: dict[tuple[str, int], str]):
        self.class_id = class_id
        self.grid = dict(grid)
        for day in DAY_NAMES:
            for period in range(1, 6):
                if (day, period) not in self.grid:
                    raise ValueError(f"{class_id}: missing cell ({day}, period {period})")

    @classmethod
    def parse(cls, class_id: str, text: str) -> "Timetable":
        lines = [line.rstrip("\n") for line in text.splitlines() if line.strip()]
        header = lines[0].split("\t")
        if header[0] != "Time Slot" or tuple(header[1:]) != DAY_NAMES:
            raise ValueError(f"{class_id}: unexpected header row: {lines[0]!r}")
        grid: dict[tuple[str, int], str] = {}
        for line in lines[1:]:
            cells = line.split("\t")
            slot = Slot.from_label(cells[0])
            period = slot.period_number
            if period is None:
                continue
            if len(cells) != 6:
                raise ValueError(f"{class_id}: row has {len(cells)} cells: {line!r}")
            for day, subject in zip(DAY_NAMES, cells[1:]):
                if subject not in TEACHER_SUBJECTS:
                    raise ValueError(f"{class_id}: unknown subject {subject!r}")
                grid[(day, period)] = subject
        return cls(class_id, grid)

    def subject_at(self, day: str, period: int) -> str:
        return self.grid[(day, period)]


def load_default_timetables() -> dict[str, Timetable]:
    tables = {}
    for class_id, filename in (
        ("Class 1", "timetable_class1.txt"),
        ("Class 2", "timetable_class2.txt"),
    ):
        text = resources.files("schoolsim.data").joinpath(filename).read_text("utf-8")
        tables[class_id] = Timetable.parse(class_id, text)
    return tables


_HEADER_RE = re.compile(
    r"^Day (?P<day>\d+), (?P<slot>[^|]+?)"
    r"(?:\s*\|\s*Location:\s*(?P<location>[^|]+?))?"
    r"(?:\s*\|\s*Activity:\s*(?P<activity>[^|]+?))?\s*$"
)


def format_situation_header(
    time: SimTime, location: str | None = None, activity: str | None = None
) -> str:
    """Render the fixed first line of a situation/user message."""
    parts = [f"Day {time.day}, {time.slot.display}"]
    if location:
        parts.append(f"Location: {location}")
    if activity:
        parts.append(f"Activity: {activity}")
    return " | ".join(parts)


def parse_situation_header(text: str) -> tuple[SimTime, str | None, str | None]:
    """Extract (time, location, activity) from a message's first line.

    Raises ValueError when the line does not match the documented pattern
    ``Day <d>, <slot label> [| Location: <area>] [| Activity: <activity>]``.
    """
    first_line = text.splitlines()[0] if text else ""
    match = _HEADER_RE.match(first_line.strip())
    if not match:
        raise ValueError(f"unparseable situation header: {first_line!r}")
    time = SimTime.at(int(match.group("day")), Slot.from_label(match.group("slot")))
    location = match.group("location")
    activity = match.group("activity")
    return time, location.strip() if location else None, (
        activity.strip() if activity else None
    )


class ActionCategory(Enum):
    """Catalog of agent actions, split by role."""

    TEACHING_PRACTICE = ("Teaching Practice", RoleKind.TEACHER)
    TEACHING_REFLECTION = ("Teaching Reflection", RoleKind.TEACHER)
    GUIDANCE = ("Guidance", RoleKind.TEACHER)
    CLASSROOM_LEARNING = ("Classroom Learning", RoleKind.STUDENT)
    LABORATORY_WORK = ("Laboratory Work", RoleKind.STUDENT)
    PEER_LEARNING_INTERACTION = ("Peer Learning/Interaction", RoleKind.STUDENT)
    SELF_DIRECTED_LEARNING = ("Self-Directed Learning", RoleKind.STUDENT)
    EXTRACURRICULAR_ACTIVITIES = ("Extracurricular Activities", RoleKind.STUDENT)

    def __init__(self, label: str, role: RoleKind):
        self.label = label
        self.role = role


# "Other Guidance" is a second name of the Guidance category; a footer may
# use either.
_ACTION_ALIASES = {"other guidance": ActionCategory.GUIDANCE}


def classify_action(role_kind: RoleKind, label: str) -> ActionCategory:
    """Map a catalog label (case-insensitive) to its category for a role."""
    normalized = label.strip().lower()
    category = _ACTION_ALIASES.get(normalized)
    if category is None:
        for candidate in ActionCategory:
            if candidate.label.lower() == normalized:
                category = candidate
                break
    if category is None:
        raise UnknownActionError(f"unknown action label: {label!r}")
    if category.role is not role_kind:
        raise RoleMismatchError(
            f"{category.label!r} is a {category.role.value} action, "
            f"not valid for a {role_kind.value}"
        )
    return category


def load_reference_action_stats() -> dict[ActionCategory, int]:
    """The shipped per-category interaction counts fixture."""
    text = (
        resources.files("schoolsim.data")
        .joinpath("action_category_stats.tsv")
        .read_text("utf-8")
    )
    lines = [line for line in text.splitlines() if line.strip()]
    stats: dict[ActionCategory, int] = {}
    for line in lines[1:]:
        role_name, action, count = line.split("\t")
        role = RoleKind.TEACHER if role_name == "Teacher" else RoleKind.STUDENT
        stats[classify_action(role, action)] = int(count)
    return stats
