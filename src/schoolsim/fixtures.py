"""Synthetic standard-group fixture and the memory-gated test provider.

Expert-curated classroom ground truth is not distributable, so the repo
ships a deterministic generator producing a structurally identical fixture:
50 agents (10 teachers, 40 students in two classes) over 5 days with reduced
slot coverage, timetable-consistent situations, labeled action footers, and
occasional moves.

Each reference answer after an agent's first step quotes a recall token that
was only ever announced through that agent's memory-update stream one step
earlier. The matching :class:`MemoryGatedProvider` answers a step correctly
iff the token shows up in the prompt's retrieved-memories block, which makes
retrieval quality directly visible in overlap scores: reminders are phrased
to win short-term retrieval, while the long-term stream fills with echo noise
that crowds them out of a purely cosine-ranked scan.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from .agent import TEACHER_SUBJECTS, RoleKind, RoleSetting, save_role, serialize_role
from .environment import (
    SimTime,
    Slot,
    Timetable,
    format_situation_header,
    load_default_timetables,
)
from .llm import ChatMessage, GenParams, Provider, validate_messages
from .memory import MemoryUpdate
from .prompts import MEMORY_UPDATE_HEADER, ROLE_GENERATION_HEADER, ROLE_UPDATE_HEADER

FIXTURE_SLOTS = (Slot.PERIOD1, Slot.PERIOD2, Slot.LUNCH, Slot.PERIOD5, Slot.EXTRACURRICULAR)

GENERIC_ANSWER = (
    "I stay engaged with the scheduled activity and follow the plan quietly."
)
ROLE_UNCHANGED_RESPONSE = (
    "No significant updates are needed; the role setting remains largely unchanged."
)
EMPTY_UPDATE_JSON = json.dumps(MemoryUpdate().as_dict())

GATED_SCRIPT_FILENAME = "gated_script.json"
AGENTS_DIRNAME = "agents"
ROLES_DIRNAME = "roles"

_SKELETON = (
    "{name} is at the {location} with {partner}. The scheduled focus is "
    "{activity}. Conversations, questions, and quick exchanges continue "
    "around the room as the session moves along."
)

_TEACHER_NAMES = (
    "Wang Lihua", "Chen Guoqiang", "Zhao Meiling", "Liu Jianjun", "Sun Yating",
    "Zhou Wenbo", "Wu Xiulan", "Zheng Haoran", "Feng Shuqin", "Cao Zhiyuan",
)

_STUDENT_NAMES = (
    "Li Xiaoming", "Zhang Wei", "Liu Yang", "Chen Jing", "Yang Fan",
    "Huang Lei", "Zhao Min", "Wu Hao", "Zhou Xin", "Xu Jia",
    "Sun Qiang", "Ma Lin", "Zhu Ting", "Hu Bin", "Guo Rui",
    "He Yan", "Gao Peng", "Lin Mei", "Luo Kai", "Song Dan",
    "Xie Tao", "Tang Yu", "Han Jun", "Deng Li", "Cao Fei",
    "Peng Shan", "Xiao Long", "Pan Ying", "Yuan Bo", "Dong Na",
    "Cai Ming", "Jiang Hua", "Fan Lei", "Shi Qing", "Yao Chen",
    "Tan Xue", "Liao Gang", "Zou Ping", "Cui Hong", "Qin Zhe",
)

_PHILOSOPHIES = ("supportive", "strict but fair", "innovative", "traditional")
_TRAITS = ("patient", "enthusiastic", "humorous", "calm", "curious", "diligent")
_HOBBIES = ("calligraphy", "badminton", "photography", "cooking", "chess", "hiking")
_QUIRKS = (
    "taps the desk twice before starting",
    "collects interesting mistakes in a notebook",
    "quotes proverbs at odd moments",
    "always carries two pens",
)
_PERFORMANCE = ("excellent", "average", "struggling", "improving")
_LEARNING_STYLES = ("visual", "auditory", "kinesthetic", "independent", "collaborative")
_SOCIAL = ("popular", "quiet", "leader", "follower", "friendly")


def recall_token(seed: int, agent_id: str, step: int) -> str:
    digest = hashlib.sha256(f"{seed}:{agent_id}:{step}".encode()).hexdigest()
    return f"kw{digest[:8]}"


def _teacher_role(agent_id: str, index: int, subject: str, rng: random.Random) -> RoleSetting:
    name = _TEACHER_NAMES[index]
    attributes = {
        "Full Name": name,
        "Gender": rng.choice(("female", "male")),
        "Age": str(rng.randint(28, 55)),
        "Years of Teaching Experience": str(rng.randint(3, 30)),
        "Teaching Philosophy/Style": rng.choice(_PHILOSOPHIES),
        "Personality Traits": ", ".join(rng.sample(_TRAITS, 2)),
        "Strengths as a Teacher": f"clear {subject} explanations, steady pacing",
        "Weaknesses as a Teacher": "reluctant to skip material even when pressed for time",
        "Interests or Hobbies Outside of Teaching": rng.choice(_HOBBIES),
        "Specific Quirks or Habits": rng.choice(_QUIRKS),
    }
    return RoleSetting(
        agent_id=agent_id,
        kind=RoleKind.TEACHER,
        attributes=attributes,
        class_assignment=subject,
    )


def _student_role(agent_id: str, index: int, class_id: str, rng: random.Random) -> RoleSetting:
    name = _STUDENT_NAMES[index]
    attributes = {
        "Full Name": name,
        "Academic Performance": rng.choice(_PERFORMANCE),
        "Learning Style": rng.choice(_LEARNING_STYLES),
        "Personality Traits": ", ".join(rng.sample(_TRAITS, 2)),
        "Brief Background Story": (
            f"{name} grew up nearby and wants to make the school team proud."
        ),
        "Academic Strengths": rng.choice(("Math", "Chinese", "Physics", "History")),
        "Academic Weaknesses": rng.choice(("Chemistry", "Physics", "History", "Math")),
        "Interests or Hobbies Outside of School": rng.choice(_HOBBIES),
        "Social Tendencies": rng.choice(_SOCIAL),
        "Specific Quirks or Habits": rng.choice(_QUIRKS),
    }
    return RoleSetting(
        agent_id=agent_id,
        kind=RoleKind.STUDENT,
        attributes=attributes,
        class_assignment=class_id,
    )


@dataclass(frozen=True)
class _StepPlan:
    time: SimTime
    location: str
    activity: str
    action_label: str
    move: str | None


def _teacher_slot_plan(
    subject: str, covers_class: str, time: SimTime, timetables: dict[str, Timetable]
) -> _StepPlan:
    slot = time.slot
    if slot is Slot.LUNCH:
        return _StepPlan(time, "Cafeteria", "Lunch", "Guidance", "Cafeteria")
    if slot is Slot.EXTRACURRICULAR:
        return _StepPlan(
            time, "Sports Field", "Extracurricular", "Teaching Reflection", "Sports Field"
        )
    period = slot.period_number
    assert period is not None
    scheduled = timetables[covers_class].subject_at(time.day_name, period)
    if scheduled == subject:
        classroom = f"{covers_class} Classroom"
        return _StepPlan(time, classroom, subject, "Teaching Practice", None)
    return _StepPlan(
        time, "Teacher's Office", "Lesson Preparation", "Teaching Reflection", None
    )


def _student_slot_plan(
    class_id: str,
    time: SimTime,
    timetables: dict[str, Timetable],
    self_directed: bool,
) -> _StepPlan:
    slot = time.slot
    if slot is Slot.LUNCH:
        if self_directed:
            return _StepPlan(time, "Library", "Self-study", "Self-Directed Learning", "Library")
        return _StepPlan(time, "Cafeteria", "Lunch", "Peer Learning/Interaction", "Cafeteria")
    if slot is Slot.EXTRACURRICULAR:
        return _StepPlan(
            time,
            "Sports Field",
            "Extracurricular",
            "Extracurricular Activities",
            "Sports Field",
        )
    period = slot.period_number
    assert period is not None
    subject = timetables[class_id].subject_at(time.day_name, period)
    if subject in ("Physics", "Chemistry"):
        lab = f"{subject} Laboratory"
        return _StepPlan(time, lab, subject, "Laboratory Work", None)
    return _StepPlan(time, f"{class_id} Classroom", subject, "Classroom Learning", None)


def _reference_answer(
    role: RoleSetting, plan: _StepPlan, partner: str, token: str | None
) -> str:
    name = role.name
    if role.kind is RoleKind.TEACHER:
        if plan.action_label == "Teaching Practice":
            prose = (
                f"In {plan.activity} class at the {plan.location}, {name} guides "
                f"{partner} and the group through worked examples, checks common "
                f"misconceptions, and assigns a short practice set."
            )
        elif plan.action_label == "Guidance":
            prose = (
                f"Over lunch at the {plan.location}, {name} helps {partner} settle "
                f"a small dispute and encourages the table to compare study plans."
            )
        else:
            prose = (
                f"At the {plan.location}, {name} reviews recent work, notes what "
                f"landed well with {partner}'s group, and drafts adjustments."
            )
    else:
        if plan.action_label == "Laboratory Work":
            prose = (
                f"In the {plan.location}, {name} runs the {plan.activity} bench "
                f"procedure with {partner}, logs readings, and double-checks units."
            )
        elif plan.action_label == "Peer Learning/Interaction":
            prose = (
                f"At the {plan.location}, {name} trades quiz strategies with "
                f"{partner} and explains one tricky step back in their own words."
            )
        elif plan.action_label == "Self-Directed Learning":
            prose = (
                f"In the {plan.location}, {name} works alone through a revision "
                f"sheet, flags two weak spots, and plans what to ask {partner}."
            )
        elif plan.action_label == "Extracurricular Activities":
            prose = (
                f"On the {plan.location}, {name} joins the relay drills with "
                f"{partner} and cools down while recapping the day."
            )
        else:
            prose = (
                f"In {plan.activity} class at the {plan.location}, {name} follows "
                f"the worked example, answers once, and compares notes with {partner}."
            )
    if token:
        prose = f"{prose} Recalling note {token}."
    footer = [f"ACTION: {plan.action_label}"]
    if plan.move:
        footer.append(f"MOVE: {plan.move}")
    return prose + "\n" + "\n".join(footer)


@dataclass
class FixturePaths:
    root: Path
    agents_dir: Path
    roles_dir: Path
    script_path: Path


def build_fixture(
    out_dir: str | Path,
    teachers: int = 10,
    students: int = 40,
    days: int = 5,
    seed: int = 0,
) -> FixturePaths:
    """Write the synthetic standard group, role files, and gated script."""
    if not 1 <= teachers <= len(_TEACHER_NAMES):
        raise ValueError(f"teachers must be 1..{len(_TEACHER_NAMES)}")
    if not 1 <= students <= len(_STUDENT_NAMES):
        raise ValueError(f"students must be 1..{len(_STUDENT_NAMES)}")
    if not 1 <= days <= 5:
        raise ValueError("days must be 1..5")
    root = Path(out_dir)
    agents_dir = root / AGENTS_DIRNAME
    roles_dir = root / ROLES_DIRNAME
    agents_dir.mkdir(parents=True, exist_ok=True)
    roles_dir.mkdir(parents=True, exist_ok=True)
    timetables = load_default_timetables()

    roles: dict[str, RoleSetting] = {}
    plans: dict[str, list[_StepPlan]] = {}
    teacher_ids = [f"t{i + 1:02d}" for i in range(teachers)]
    student_ids = [f"s{i + 1:02d}" for i in range(students)]

    for i, agent_id in enumerate(teacher_ids):
        rng = random.Random(f"{seed}:{agent_id}")
        subject = TEACHER_SUBJECTS[i // 2 % len(TEACHER_SUBJECTS)]
        covers_class = "Class 1" if i % 2 == 0 else "Class 2"
        roles[agent_id] = _teacher_role(agent_id, i, subject, rng)
        plans[agent_id] = [
            _teacher_slot_plan(subject, covers_class, SimTime.at(day, slot), timetables)
            for day in range(1, days + 1)
            for slot in FIXTURE_SLOTS
        ]
    for i, agent_id in enumerate(student_ids):
        rng = random.Random(f"{seed}:{agent_id}")
        class_id = "Class 1" if i < (students + 1) // 2 else "Class 2"
        roles[agent_id] = _student_role(agent_id, i, class_id, rng)
        plans[agent_id] = [
            _student_slot_plan(
                class_id, SimTime.at(day, slot), timetables, self_directed=(i % 2 == 0)
            )
            for day in range(1, days + 1)
            for slot in FIXTURE_SLOTS
        ]

    all_ids = teacher_ids + student_ids
    partners = {
        agent_id: {
            step: roles[_partner_for(agent_id, step, teacher_ids, student_ids)].name
            for step in range(days * len(FIXTURE_SLOTS))
        }
        for agent_id in all_ids
    }

    actions: dict[str, dict] = {}
    updates: dict[str, str] = {}
    for agent_id in all_ids:
        role = roles[agent_id]
        save_role(role, roles_dir / f"{agent_id}.txt")
        messages = [{"role": "system", "content": serialize_role(role)}]
        agent_plans = plans[agent_id]
        for step, plan in enumerate(agent_plans):
            header = format_situation_header(plan.time, plan.location, plan.activity)
            body = _SKELETON.format(
                name=role.name,
                location=plan.location,
                partner=partners[agent_id][step],
                activity=plan.activity,
            )
            situation = f"{header}\n{body}"
            token = recall_token(seed, agent_id, step) if step > 0 else None
            answer = _reference_answer(role, plan, partners[agent_id][step], token)
            messages.append({"role": "user", "content": situation})
            messages.append({"role": "assistant", "content": answer})
            actions[situation] = {"answer": answer, "token": token}

            if step + 1 < len(agent_plans):
                next_plan = agent_plans[step + 1]
                next_header = format_situation_header(
                    next_plan.time, next_plan.location, next_plan.activity
                )
                next_token = recall_token(seed, agent_id, step + 1)
                st_exp = [f"Key reminder for {next_header}: remember token {next_token}."]
                st_kn = [f"Study cue for {next_header}: keep token {next_token} in mind."]
            else:
                st_exp = []
                st_kn = []
            update = MemoryUpdate(
                long_term_experience_updates=[f"Observed earlier: {body}"],
                long_term_knowledge_updates=[
                    "Noted principle: steady routines help; conversations, questions, "
                    "and quick exchanges continue around the room as the session moves along."
                ],
                short_term_experience_content=st_exp,
                short_term_knowledge_content=st_kn,
            )
            updates[situation] = json.dumps(update.as_dict(), ensure_ascii=False)

        (agents_dir / f"{agent_id}.json").write_text(
            json.dumps(messages, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
        )

    script = {
        "generic_answer": GENERIC_ANSWER,
        "role_update_response": ROLE_UNCHANGED_RESPONSE,
        "actions": actions,
        "updates": updates,
    }
    script_path = root / GATED_SCRIPT_FILENAME
    script_path.write_text(
        json.dumps(script, ensure_ascii=False, indent=1) + "\n", encoding="utf-8"
    )
    return FixturePaths(
        root=root, agents_dir=agents_dir, roles_dir=roles_dir, script_path=script_path
    )


def _partner_for(
    agent_id: str, step: int, teacher_ids: list[str], student_ids: list[str]
) -> str:
    pool = teacher_ids if agent_id in teacher_ids else student_ids
    index = pool.index(agent_id)
    if len(pool) == 1:
        return pool[0]
    offset = 1 + step % (len(pool) - 1)
    return pool[(index + offset) % len(pool)]


class MemoryGatedProvider(Provider):
    """Scripted provider whose answers depend on what was retrieved.

    Action prompts are keyed by the situation text (the final user content up
    to the retrieved-memories block). A gated entry answers with the scripted
    reference only when its token appears in the memories block; otherwise it
    falls back to a generic line. Memory-update prompts return the scripted
    update for the embedded situation; role-update prompts always report no
    significant change.
    """

    def __init__(self, script: dict, name: str = "memory-gated"):
        keys = ("generic_answer", "role_update_response", "actions", "updates")
        if not isinstance(script, dict) or not all(key in script for key in keys):
            raise ValueError(f"a gated script is a JSON object with keys {', '.join(keys)}")
        self.generic_answer = script["generic_answer"]
        self.role_update_response = script["role_update_response"]
        self.actions = script["actions"]
        self.updates = script["updates"]
        self.name = name

    @classmethod
    def from_file(cls, path: str | Path) -> "MemoryGatedProvider":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    def complete(self, messages, params: GenParams | None = None) -> str:
        validate_messages(messages)
        content = messages[-1].content
        if content.startswith(MEMORY_UPDATE_HEADER):
            situation = _between(content, "Current Situation:\n", "\n\nRecent Experience:")
            return self.updates.get(situation, EMPTY_UPDATE_JSON)
        if content.startswith(ROLE_UPDATE_HEADER):
            return self.role_update_response
        if content.startswith(ROLE_GENERATION_HEADER):
            return self.generic_answer
        situation, _sep, memories = content.partition("\n\nRelevant memories:\n")
        entry = self.actions.get(situation)
        if entry is None:
            return self.generic_answer
        if entry["token"] is None or entry["token"] in memories:
            return entry["answer"]
        return self.generic_answer


def _between(text: str, start: str, end: str) -> str:
    i = text.index(start) + len(start)
    j = text.index(end, i)
    return text[i:j]
