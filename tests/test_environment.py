from __future__ import annotations

from collections import Counter

import pytest

from schoolsim.agent import TEACHER_SUBJECTS, RoleKind
from schoolsim.environment import (
    ActionCategory,
    AreaMap,
    EnvironmentState,
    SimTime,
    Slot,
    classify_action,
    format_situation_header,
    load_default_timetables,
    load_reference_action_stats,
    parse_situation_header,
)
from schoolsim.errors import (
    RoleMismatchError,
    UnknownActionError,
    UnknownAreaError,
)


@pytest.fixture(scope="module")
def timetables():
    return load_default_timetables()


def test_timetable_known_cells(timetables):
    assert timetables["Class 1"].subject_at("Monday", 1) == "Chinese"
    assert timetables["Class 2"].subject_at("Friday", 5) == "History"


def _slot_by_scan(label: str) -> Slot | None:
    """Slot.from_label as a normalise-then-scan reference."""
    text = label.strip()
    if "(" in text:
        text = text.split("(")[0].strip()
    normalized = text.lower()
    for slot in Slot:
        if slot.label.lower() == normalized:
            return slot
    return {"lunch": Slot.LUNCH, "extracurricular": Slot.EXTRACURRICULAR}.get(normalized)


def test_slot_from_label_matches_a_scan_of_every_slot():
    labels = [s.label for s in Slot] + [s.display for s in Slot]
    for label in labels + ["Lunch", "Extracurricular"]:
        for form in (
            label,
            label.upper(),
            label.lower(),
            label.swapcase(),
            f"  {label}\t",
            f"{label} (8:00-8:40)",
            f" {label.upper()}  (late) ",
        ):
            assert _slot_by_scan(form) is not None, form
            assert Slot.from_label(form) is _slot_by_scan(form), form
    for bad in ("", "Period 6", "Lunch Breakfast", "(Period 1)", "Recess"):
        assert _slot_by_scan(bad) is None
        with pytest.raises(ValueError, match="unknown slot label"):
            Slot.from_label(bad)


def test_each_subject_exactly_five_times_per_class(timetables):
    for table in timetables.values():
        assert Counter(table.grid.values()) == dict.fromkeys(TEACHER_SUBJECTS, 5)


def test_full_cell_coverage(timetables):
    for table in timetables.values():
        assert len(table.grid) == 25


def test_calendar_has_fifty_slots_in_order():
    times = [SimTime.at(day, slot) for day in range(1, 6) for slot in Slot]
    assert [t.ordinal for t in times] == list(range(50))
    assert times == sorted(times)
    assert times[9:11] == [SimTime.at(1, Slot.EXTRACURRICULAR), SimTime.at(2, Slot.PERIOD1)]


def test_area_map_has_twenty_five_connected_areas():
    area_map = AreaMap.default()
    assert len(area_map.areas) == 25
    assert area_map.canonical("library") == "Library"


def test_move_agent_updates_location_and_log():
    env = EnvironmentState(AreaMap.default())
    env.place("t01", "Class 1 Classroom")
    delta = env.move_agent("t01", "Teacher's Office")
    assert env.locations["t01"] == "Teacher's Office"
    assert delta == {"agent_id": "t01", "from": "Class 1 Classroom", "to": "Teacher's Office"}


def test_move_to_current_area_is_still_logged():
    env = EnvironmentState(AreaMap.default())
    env.place("s01", "Library")
    delta = env.move_agent("s01", "Library")
    assert delta == {"agent_id": "s01", "from": "Library", "to": "Library"}
    assert env.locations["s01"] == "Library"


def test_move_to_unknown_area():
    env = EnvironmentState(AreaMap.default())
    with pytest.raises(UnknownAreaError):
        env.move_agent("s01", "Pool")


def test_classify_teacher_actions():
    assert (
        classify_action(RoleKind.TEACHER, "Teaching Practice")
        is ActionCategory.TEACHING_PRACTICE
    )
    assert classify_action(RoleKind.TEACHER, "other guidance") is ActionCategory.GUIDANCE


def test_classify_student_actions_case_insensitive():
    assert (
        classify_action(RoleKind.STUDENT, "peer learning/interaction")
        is ActionCategory.PEER_LEARNING_INTERACTION
    )


def test_classify_role_mismatch_and_unknown():
    with pytest.raises(RoleMismatchError):
        classify_action(RoleKind.STUDENT, "Teaching Reflection")
    with pytest.raises(UnknownActionError):
        classify_action(RoleKind.TEACHER, "Juggling")


def test_reference_action_stats_fixture():
    stats = load_reference_action_stats()
    assert stats[ActionCategory.TEACHING_PRACTICE] == 12873
    assert stats[ActionCategory.PEER_LEARNING_INTERACTION] == 9499
    assert len(stats) == 8


def test_situation_header_roundtrip():
    time = SimTime.at(2, Slot.PERIOD3)
    header = format_situation_header(time, "Library", "Math")
    parsed_time, location, activity = parse_situation_header(header + "\nmore text")
    assert parsed_time == time
    assert location == "Library"
    assert activity == "Math"


def test_situation_header_without_optional_parts():
    time, location, activity = parse_situation_header("Day 4, Lunch Break")
    assert time == SimTime.at(4, Slot.LUNCH)
    assert location is None and activity is None


def test_situation_header_rejects_garbage():
    with pytest.raises(ValueError):
        parse_situation_header("once upon a time")


def test_sim_time_ordinal_bounds():
    assert SimTime.at(1, Slot.PERIOD1).ordinal == 0
    assert SimTime.at(5, Slot.EXTRACURRICULAR).ordinal == 49
    with pytest.raises(ValueError):
        SimTime(6, 0)
