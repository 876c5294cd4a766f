"""Acceptance gate: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import load_roles_dir
from retrieval_oracle import oracle_retrieve
from test_kernels import oracle_lcs

from schoolsim import lcs_length
from schoolsim.agent import TEACHER_SUBJECTS
from schoolsim.cli import main as cli_main
from schoolsim.config import config_by_id, config_matrix
from schoolsim.dataset import load_standard_group
from schoolsim.embedding import HashedBagEmbedder
from schoolsim.environment import SimTime, load_default_timetables
from schoolsim.errors import (
    MemoryUpdateError,
    MissingFieldError,
    NoJsonFoundError,
    WrongTypeError,
)
from schoolsim.evaluation import checkpoints, evaluate_run, rouge_l
from schoolsim.evaluation import export_human_eval_sample, recover_tallies
from schoolsim.fixtures import MemoryGatedProvider, build_fixture
from schoolsim.llm import ScriptedProvider
from schoolsim.memory import MemoryKind, MemoryStore, MemoryUpdate, RetrievalPolicy
from schoolsim.simulation import ReplayBundle, parse_memory_update, run_simulation

CASES_PATH = Path(__file__).parent / "data" / "memory_update_cases.json"


def check(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert passed, f"{criterion}{suffix}"


def test_criterion_01_metric_oracle_equivalence():
    rng = random.Random(2024)
    vocab = ["a", "b", "c", "d", "e"]
    started = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        x = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        y = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        expected_lcs = oracle_lcs(x, y)
        if lcs_length(x, y) != expected_lcs:
            mismatches += 1
            continue
        score = rouge_l(" ".join(x), " ".join(y))
        if not x and not y:
            expected_f = 1.0
        elif not x or not y:
            expected_f = 0.0
        else:
            precision = expected_lcs / len(x)
            recall = expected_lcs / len(y)
            expected_f = (
                0.0
                if precision == 0.0 and recall == 0.0
                else 2 * precision * recall / (recall + precision)
            )
        if score.f != expected_f or score.lcs_len != expected_lcs:
            mismatches += 1
    elapsed = time.perf_counter() - started
    check(
        "criterion 1: LCS metric equals brute-force oracle on 1000 pairs",
        mismatches == 0 and elapsed < 10.0,
        f"mismatches={mismatches}, {elapsed:.2f}s < 10s",
    )


def test_criterion_02_hand_values():
    score = rouge_l("the cat sat", "the dog sat", beta=1.0)
    ok = (
        abs(score.f - 2 / 3) <= 1e-9
        and rouge_l("identical words", "identical words").f == 1.0
        and rouge_l("alpha beta", "gamma delta").f == 0.0
    )
    check("criterion 2: hand-computed metric values", ok, f"f={score.f:.12f}")


def test_criterion_03_retrieval_oracle_equivalence():
    rng = random.Random(99)
    vocab = [f"word{i}" for i in range(12)]
    started = time.perf_counter()
    failures = 0
    for _ in range(100):
        config = config_by_id(rng.choice([1, 2, 3, 4, 5, 6, 7, 8]))
        store = MemoryStore("r", config, HashedBagEmbedder(dim=32), capacity=10**6)
        kinds = [k for k in MemoryKind if config.kind_enabled(k)]
        for _ in range(rng.randint(0, 1000)):
            store.insert(
                rng.choice(kinds),
                " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6))),
                SimTime(rng.randint(1, 5), rng.randint(0, 9)),
                salience=rng.random(),
                mark_short=rng.random() < 0.3,
            )
        query = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 5)))
        policy = RetrievalPolicy(
            k_short=rng.randint(0, 6),
            k_long=rng.randint(0, 10),
            min_similarity=rng.choice([0.0, 0.05, -1.0]),
        )
        got = [(r.id, s) for r, s in store.retrieve(query, policy)]
        if got != oracle_retrieve(store, query, policy):
            failures += 1
    elapsed = time.perf_counter() - started
    check(
        "criterion 3: retrieval equals brute-force scan on 100 random stores",
        failures == 0 and elapsed < 60.0,
        f"failures={failures}, {elapsed:.1f}s < 60s",
    )


def test_criterion_04_config_gating(tmp_path):
    # Ten agents over two days: 100 steps.
    paths = build_fixture(tmp_path / "fixture", teachers=2, students=8, days=2, seed=0)
    dataset = load_standard_group(paths.agents_dir)
    violations = []
    for config in config_matrix():
        out = tmp_path / f"config-{config.id}"
        run_simulation(
            dataset,
            load_roles_dir(paths.roles_dir),
            MemoryGatedProvider.from_file(paths.script_path),
            config,
            seed=0,
            out_dir=out,
        )
        counters = json.loads((out / "manifest.json").read_text())["counters"]
        if not config.memory_enabled:
            if counters["retrieve_calls"] or counters["memory_update_calls"]:
                violations.append((config.id, "memory traffic under structure=none"))
            if counters["insert_experience"] or counters["insert_knowledge"]:
                violations.append((config.id, "insert under structure=none"))
        else:
            if counters["retrieve_calls"] != 100:
                violations.append((config.id, "instrumentation dead"))
        if not config.eb_enabled and counters["insert_experience"]:
            violations.append((config.id, "experience insert while disabled"))
        if not config.kb_enabled and counters["insert_knowledge"]:
            violations.append((config.id, "knowledge insert while disabled"))
        if not config.stlt_enabled and counters["short_term_queries"]:
            violations.append((config.id, "short-term read while disabled"))
    check(
        "criterion 4: zero forbidden operations across all nine configs",
        not violations,
        f"violations={violations or 'none'}",
    )


def test_criterion_05_replay_fidelity(full_dataset, full_fixture):
    log = run_simulation(
        full_dataset,
        load_roles_dir(full_fixture.roles_dir),
        ReplayBundle.from_dataset(full_dataset),
        config_by_id(1),
        seed=0,
    )
    report = evaluate_run(log, full_dataset)
    check(
        "criterion 5: replay of config 1 scores 1.0 at all 20 checkpoints",
        report.mean_f == [1.0] * 20,
        f"min={min(report.mean_f):.4f}",
    )


def test_criterion_06_ablation_ordering(ablation_runs):
    runs, elapsed = ablation_runs
    means = {}
    for config_id, (_log, report) in runs.items():
        tail = report.mean_f[10:]
        means[config_id] = sum(tail) / len(tail)
    ok = means[1] >= means[9] + 0.15 and means[1] >= means[4] and elapsed < 300.0
    check(
        "criterion 6: full config dominates ablations on the synthetic fixture",
        ok,
        f"id1={means[1]:.3f}, id4={means[4]:.3f}, id9={means[9]:.3f}, {elapsed:.0f}s < 300s",
    )


def test_criterion_07_checkpoint_partition():
    ok = True
    for n in (100, 103, 500, 12345):
        for interval in (5, 10):
            ranges = checkpoints(n, interval)
            flat = [i for r in ranges for i in r]
            ok = ok and flat == list(range(n)) and len(ranges) == 100 // interval
    ok = ok and all(len(r) == 50 for r in checkpoints(500, 10))
    check("criterion 7: checkpoint ranges partition the data", ok)


def test_criterion_08_memory_update_contract(mini_dataset, mini_fixture):
    cases = json.loads(CASES_PATH.read_text("utf-8"))
    bad = []
    for case in cases:
        try:
            update = parse_memory_update(case["text"])
        except MissingFieldError as exc:
            if case["expect"] != "missing" or exc.field != case["field"]:
                bad.append(case["name"])
        except WrongTypeError as exc:
            if case["expect"] != "wrongtype" or exc.field != case["field"]:
                bad.append(case["name"])
        except NoJsonFoundError:
            if case["expect"] != "nojson":
                bad.append(case["name"])
        except MemoryUpdateError:
            bad.append(case["name"])
        else:
            lens = [len(getattr(update, f)) for f in MemoryUpdate.FIELDS]
            if case["expect"] != "ok" or lens != case["lens"]:
                bad.append(case["name"])

    provider = ScriptedProvider({}, fallback="never json, ever")
    log = run_simulation(
        mini_dataset,
        load_roles_dir(mini_fixture.roles_dir),
        provider,
        config_by_id(1),
        seed=0,
    )
    run_ok = len(log.entries) == mini_dataset.qa_count and all(
        e.memory_update_failed for e in log.entries
    )
    check(
        "criterion 8: memory-update fixture suite and degraded-run behavior",
        len(cases) == 20 and not bad and run_ok,
        f"cases={len(cases)}, failures={bad or 'none'}",
    )


def test_criterion_09_timetable_invariants():
    tables = load_default_timetables()
    ok = len(tables) == 2
    for table in tables.values():
        counts = Counter(table.grid.values())
        ok = ok and counts == dict.fromkeys(TEACHER_SUBJECTS, 5) and len(table.grid) == 25
    check("criterion 9: shipped timetables cover all cells, five per subject", ok)


def test_criterion_10_matrix_determinism(tmp_path):
    fixture_dir = tmp_path / "fixture"
    build_fixture(fixture_dir, teachers=2, students=4, days=2, seed=0)
    runner = CliRunner()
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        result = runner.invoke(
            cli_main,
            [
                "matrix",
                "--dataset",
                str(fixture_dir),
                "--provider",
                "memory-gated",
                "--seed",
                "11",
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        payload = {}
        for config_id in range(1, 10):
            payload[f"log{config_id}"] = (
                out / f"config-{config_id}" / "log.jsonl"
            ).read_bytes()
        payload["csv"] = (out / "report.csv").read_bytes()
        payload["md"] = (out / "report.md").read_bytes()
        outputs.append(payload)
    identical = outputs[0] == outputs[1]
    check(
        "criterion 10: repeated matrix runs are byte-identical",
        identical,
        "logs+reports compared" if identical else "bytes differ",
    )


def test_criterion_11_human_eval_export(full_dataset, ablation_runs):
    runs, _elapsed = ablation_runs
    groups = {0: full_dataset.reference_answers()}
    for config_id, (log, _report) in runs.items():
        groups[config_id] = log.responses()
    export = export_human_eval_sample(groups, full_dataset, seed=0)
    block_count_ok = len(export.blocks) == 500
    answers_ok = all(len(b["answers"]) == 4 for b in export.blocks)

    votes = {bid: order.index(1) for bid, order in export.key["blocks"].items()}
    tallies = recover_tallies(export.key, votes)
    tally_ok = tallies == {0: 0, 1: 500, 4: 0, 9: 0}
    check(
        "criterion 11: blinded export yields 500 blocks and a sound key",
        block_count_ok and answers_ok and tally_ok,
        f"blocks={len(export.blocks)}",
    )
