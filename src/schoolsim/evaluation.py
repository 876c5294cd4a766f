"""LCS-based overlap metric, checkpoint evaluation, and report rendering.

Tokenization: NFC-normalize, lowercase, split on whitespace, strip leading
and trailing punctuation per token, and split runs of CJK characters into
per-character tokens (the standard adaptation for Chinese text); every
non-CJK run left in a chunk is one token. A text whose tokens are all one
character, as most Chinese text is, is scored as the string of those
characters rather than as a list of them. The LCS length comes from the
bit-parallel kernel in ``_kernels``, which takes either form:
``score_responses`` tokenises all its pairs and passes them to
``_kernels.lcs_lengths`` in one call, which runs the pairs of two strings
together in one bit-vector per chunk, and ``rouge_l`` scores one pair with
``_kernels.lcs_length``. Both compute F with ``_f_measure``. Checkpoint
scores are per-interval means, one column per 5% (or 10%) slice of the
chronologically ordered steps.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
import unicodedata
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from . import _kernels
from .dataset import Dataset
from .errors import LengthMismatchError

if TYPE_CHECKING:
    from .simulation import InteractionLog

DEFAULT_BETA = 1.0

# One token per CJK ideograph (CJK Unified Ideographs, Extension A and the
# Compatibility Ideographs); everything else between them is one token.
_CJK = "\u3400-\u4dbf\u4e00-\u9fff\uf900-\ufaff"
# Splitting a chunk on its non-CJK runs, kept by the group, gives parts that
# alternate CJK run, non-CJK run, CJK run, ...; a CJK run may be empty.
_NON_CJK_RUN = re.compile(f"([^{_CJK}]+)")
# A chunk this matches holds no two adjacent non-CJK characters, so each of
# its tokens is one character.
_ONE_CHARACTER_TOKENS = re.compile(f"[{_CJK}]*(?:[^{_CJK}][{_CJK}]+)*[^{_CJK}]?")
# The ASCII characters of a P* category. On ASCII text NFC changes nothing,
# stripping them is str.strip, and a chunk holds no CJK, so it stays whole.
_ASCII_PUNCTUATION = "".join(
    c for c in map(chr, range(128)) if unicodedata.category(c).startswith("P")
)


def _strip_punctuation(token: str) -> str:
    # No alphanumeric code point has a P* category, so a token with
    # alphanumeric edges has nothing to strip.
    if token[:1].isalnum() and token[-1:].isalnum():
        return token
    start = 0
    end = len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def _tokens(text: str) -> str | list[str]:
    """The tokens of ``text`` under the module docstring's rule.

    Non-ASCII text whose tokens are all one character gives them as one
    ``str``; any other text gives a list.
    """
    if text.isascii():
        chunks = (chunk.strip(_ASCII_PUNCTUATION) for chunk in text.lower().split())
        return [chunk for chunk in chunks if chunk]
    normalized = unicodedata.normalize("NFC", text)
    lowered = normalized.lower()
    # Keep the unlowered object when lowering changes nothing: a text that is
    # already one string of its tokens then comes back as itself, and
    # score_responses holds its tokens without a copy.
    if lowered != normalized:
        normalized = lowered
    chunks = [chunk for chunk in map(_strip_punctuation, normalized.split()) if chunk]
    if all(map(_ONE_CHARACTER_TOKENS.fullmatch, chunks)):
        return "".join(chunks)
    tokens: list[str] = []
    for chunk in chunks:
        for index, part in enumerate(_NON_CJK_RUN.split(chunk)):
            if index % 2:
                tokens.append(part)
            else:
                tokens.extend(part)
    return tokens


def tokenize(text: str) -> list[str]:
    """Metric tokenizer; see the module docstring for the exact rule."""
    return list(_tokens(text))


@dataclass(frozen=True)
class RougeScore:
    lcs_len: int
    precision: float
    recall: float
    f: float
    beta: float


def _check_beta(beta: float) -> None:
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and positive, got {beta!r}")


def _f_measure(lcs: int, n_cand: int, n_ref: int, beta: float) -> tuple[float, float, float]:
    """(precision, recall, F) of an LCS between ``n_cand`` and ``n_ref`` tokens.

    Convention for degenerate inputs: no tokens on either side scores
    1.0; no tokens on exactly one side scores 0.0.
    """
    if not n_cand and not n_ref:
        return 1.0, 1.0, 1.0
    if not n_cand or not n_ref:
        return 0.0, 0.0, 0.0
    precision = lcs / n_cand
    recall = lcs / n_ref
    if precision == 0.0 and recall == 0.0:
        return precision, recall, 0.0
    f = (1 + beta**2) * precision * recall / (recall + beta**2 * precision)
    return precision, recall, f


def rouge_l(candidate: str, reference: str, beta: float = DEFAULT_BETA) -> RougeScore:
    """LCS-based precision/recall/F of a candidate against a reference.

    Degenerate inputs follow ``_f_measure``: no tokens on either side scores
    f=1.0; no tokens on exactly one side scores f=0.0.
    """
    _check_beta(beta)
    cand = _tokens(candidate)
    ref = _tokens(reference)
    lcs = _kernels.lcs_length(cand, ref)
    precision, recall, f = _f_measure(lcs, len(cand), len(ref), beta)
    return RougeScore(lcs_len=lcs, precision=precision, recall=recall, f=f, beta=beta)


def checkpoints(n_items: int, interval_percent: int = 5) -> list[range]:
    """Disjoint, ordered index ranges covering [0, n_items).

    Boundary j sits at floor(j * n / k) for k = 100 / interval, so the ranges
    partition the items and the trailing remainder lands in the last range.
    """
    if n_items < 1:
        raise ValueError("n_items must be at least 1")
    if interval_percent not in (5, 10):
        raise ValueError("interval_percent must be 5 or 10")
    k = 100 // interval_percent
    boundaries = [(j * n_items) // k for j in range(k + 1)]
    return [range(boundaries[j], boundaries[j + 1]) for j in range(k)]


@dataclass
class CheckpointReport:
    config_id: int
    interval_percent: int
    percents: list[int]
    mean_f: list[float]
    counts: list[int]
    beta: float = DEFAULT_BETA


def score_responses(
    responses: list[str],
    references: list[str],
    config_id: int,
    beta: float = DEFAULT_BETA,
    interval_percent: int = 5,
) -> CheckpointReport:
    """Mean per-interval F over aligned response/reference lists."""
    if len(responses) != len(references):
        raise LengthMismatchError(
            f"{len(responses)} responses vs {len(references)} references"
        )
    _check_beta(beta)
    # lcs_lengths reads the pairs once, scoring each pair of token lists as
    # it comes, so a generator lets those lists go at once; F needs only
    # the token counts.
    sizes: list[tuple[int, int]] = []

    def pairs() -> Iterator[tuple[str | list[str], str | list[str]]]:
        for response, reference in zip(responses, references):
            cand, ref = _tokens(response), _tokens(reference)
            sizes.append((len(cand), len(ref)))
            yield cand, ref

    scores = [
        _f_measure(lcs, n_cand, n_ref, beta)[2]
        for lcs, (n_cand, n_ref) in zip(_kernels.lcs_lengths(pairs()), sizes)
    ]
    ranges = checkpoints(len(scores), interval_percent)
    mean_f = []
    counts = []
    for r in ranges:
        window = scores[r.start : r.stop]
        counts.append(len(window))
        mean_f.append(sum(window) / len(window) if window else 0.0)
    percents = [
        (j + 1) * interval_percent for j in range(100 // interval_percent)
    ]
    return CheckpointReport(
        config_id=config_id,
        interval_percent=interval_percent,
        percents=percents,
        mean_f=mean_f,
        counts=counts,
        beta=beta,
    )


def evaluate_run(
    log: InteractionLog,
    dataset: Dataset,
    beta: float = DEFAULT_BETA,
    interval_percent: int = 5,
) -> CheckpointReport:
    """Score a run's responses against the dataset's reference answers."""
    return score_responses(
        log.responses(),
        dataset.reference_answers(),
        config_id=log.meta["config"]["id"],
        beta=beta,
        interval_percent=interval_percent,
    )


# Report rendering


def render_matrix_report(
    reports: list[CheckpointReport],
    format: str = "csv",
    failures: dict[int, str] | None = None,
) -> str:
    """One row per config, one column per checkpoint percent.

    Float cells use ``repr`` formatting so a CSV parse returns the exact
    values. Failed configs (id -> reason) are listed as trailing notes.
    """
    if not reports:
        raise ValueError("no reports to render")
    percents = reports[0].percents
    header = ["config_id"] + [f"{p}%" for p in percents]
    rows = [
        [str(report.config_id)] + [str(value) for value in report.mean_f]
        for report in reports
    ]
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        for config_id, reason in sorted((failures or {}).items()):
            writer.writerow([f"# config {config_id} failed: {reason}"])
        return buffer.getvalue()
    if format == "markdown":
        lines = [
            "| " + " | ".join(header) + " |",
            "|" + "|".join("---" for _ in header) + "|",
        ]
        lines.extend("| " + " | ".join(row) + " |" for row in rows)
        for config_id, reason in sorted((failures or {}).items()):
            lines.append("")
            lines.append(f"*config {config_id} failed: {reason}*")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format: {format!r}")


# Blind human-evaluation sample export


@dataclass
class HumanEvalExport:
    blocks: list[dict] = field(default_factory=list)
    key: dict = field(default_factory=dict)


def export_human_eval_sample(
    groups: dict[int, list[str]],
    dataset: Dataset,
    seed: int = 0,
    interval_percent: int = 10,
) -> HumanEvalExport:
    """Blinded, seeded-shuffle sample: one QA pair per agent per checkpoint.

    ``groups`` maps a group id (config id, or 0 for the reference answers) to
    answers aligned with the dataset's step order. Every block carries the
    question and the groups' answers in shuffled order; the sealed key maps
    block ids back to the group id behind each answer position.
    """
    n = dataset.qa_count
    for group_id, answers in groups.items():
        if len(answers) != n:
            raise LengthMismatchError(
                f"group {group_id}: {len(answers)} answers vs {n} dataset steps"
            )
    group_ids = sorted(groups)
    rng = random.Random(seed)
    blocks = []
    key = {"seed": seed, "group_ids": group_ids, "blocks": {}}
    for checkpoint_index, step_range in enumerate(
        checkpoints(n, interval_percent), start=1
    ):
        percent = checkpoint_index * interval_percent
        by_agent: dict[str, list[int]] = {}
        for index in step_range:
            by_agent.setdefault(dataset.steps[index].agent_id, []).append(index)
        for agent_id in sorted(by_agent):
            chosen = rng.choice(by_agent[agent_id])
            order = list(group_ids)
            rng.shuffle(order)
            block_id = f"cp{percent:03d}-{agent_id}"
            blocks.append(
                {
                    "block_id": block_id,
                    "checkpoint_percent": percent,
                    "agent_id": agent_id,
                    "step_index": chosen,
                    "question": dataset.steps[chosen].user,
                    "answers": [groups[g][chosen] for g in order],
                }
            )
            key["blocks"][block_id] = order
    return HumanEvalExport(blocks=blocks, key=key)


def save_human_eval(export: HumanEvalExport, out_path: str | Path, key_path: str | Path) -> None:
    lines = [json.dumps(block, ensure_ascii=False) for block in export.blocks]
    Path(out_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    Path(key_path).write_text(
        json.dumps(export.key, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def recover_tallies(key: dict, votes: dict[str, int]) -> dict[int, int]:
    """Turn per-block position votes into per-group tallies using the key.

    ``votes`` maps block id to the 0-based position of the chosen answer.
    """
    if not isinstance(votes, dict):
        raise ValueError(f"votes must map block ids to positions, not {type(votes).__name__}")
    tallies = {int(g): 0 for g in key["group_ids"]}
    for block_id, position in votes.items():
        if block_id not in key["blocks"]:
            raise KeyError(f"vote for unknown block: {block_id}")
        order = key["blocks"][block_id]
        if isinstance(position, bool) or not isinstance(position, int):
            raise ValueError(f"{block_id}: vote position {position!r} is not an integer")
        if not 0 <= position < len(order):
            raise ValueError(f"{block_id}: vote position {position} out of range")
        tallies[int(order[position])] += 1
    return tallies
