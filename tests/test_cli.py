from __future__ import annotations

import json
import logging
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

from schoolsim.agent import TEACHER_FIELDS, load_role
from conftest import load_roles_dir
from schoolsim.cli import _log_responses, _provider_factory, _warn_unused_jobs, main
from schoolsim.config import config_by_id
from schoolsim.dataset import Dataset, load_standard_group
from schoolsim.fixtures import MemoryGatedProvider, build_fixture
from schoolsim.llm import HttpProvider
from schoolsim.simulation import iter_log, run_simulation
from schoolsim.prompts import ROLE_GENERATION_TEACHER


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(autouse=True)
def restore_root_logging():
    """Every command configures the root logger to write to the runner's
    stderr; put back the handlers and level the test started with."""
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    yield
    for handler in root.handlers:
        if handler not in handlers:
            handler.close()
    root.handlers[:] = handlers
    root.setLevel(level)


@pytest.fixture(scope="module")
def cli_fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "fixture"
    result = CliRunner().invoke(
        main,
        [
            "gen-dataset",
            "--out",
            str(out),
            "--teachers",
            "2",
            "--students",
            "4",
            "--days",
            "2",
            "--seed",
            "0",
        ],
    )
    assert result.exit_code == 0, result.output
    return out


def test_gen_dataset_reports_counts(cli_fixture_dir):
    assert (cli_fixture_dir / "agents").is_dir()
    assert (cli_fixture_dir / "roles").is_dir()
    assert (cli_fixture_dir / "gated_script.json").exists()


def test_validate_prints_summary(runner, cli_fixture_dir):
    result = runner.invoke(main, ["validate", "--dataset", str(cli_fixture_dir)])
    assert result.exit_code == 0, result.output
    assert "teachers: 2" in result.output
    assert "students: 4" in result.output
    assert "qa steps: 60" in result.output


def test_validate_rejects_broken_dataset(runner, tmp_path):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "x01.json").write_text("[]", encoding="utf-8")
    result = runner.invoke(main, ["validate", "--dataset", str(bad)])
    assert result.exit_code == 1
    assert "non-empty JSON array" in result.output


DATASET_COMMANDS = ["validate", "run", "matrix", "evaluate", "export-human-eval"]


@pytest.mark.parametrize(
    "command, content, reason",
    [pytest.param(c, b"[{", "invalid JSON", id=c) for c in DATASET_COMMANDS]
    + [pytest.param(c, b"\xff\xfe", "not UTF-8", id=f"{c}-not-utf8") for c in DATASET_COMMANDS],
)
def test_every_dataset_command_reports_a_malformed_dataset(
    runner, tmp_path, command, content, reason
):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "x01.json").write_bytes(content)
    log = tmp_path / "log.jsonl"
    log.write_text("", encoding="utf-8")
    out = str(tmp_path / "out")
    extra = {
        "validate": [],
        "run": ["--config-id", "1", "--provider", "replay", "--out", out],
        "matrix": ["--provider", "replay", "--out", out],
        "evaluate": ["--log", str(log)],
        "export-human-eval": ["--log", f"1={log}", "--out", out, "--key", out + ".key"],
    }[command]
    result = runner.invoke(main, [command, "--dataset", str(bad), *extra])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"Error: {bad / 'x01.json'}[" in result.output and reason in result.output
    assert "Traceback" not in result.output


def test_run_with_bad_config_id_lists_valid_ids(runner, cli_fixture_dir, tmp_path):
    result = runner.invoke(
        main,
        [
            "run",
            "--dataset",
            str(cli_fixture_dir),
            "--config-id",
            "10",
            "--provider",
            "replay",
            "--out",
            str(tmp_path / "out"),
        ],
    )
    assert result.exit_code == 2
    assert "valid ids" in result.output


def test_run_requires_exactly_one_config_source(runner, cli_fixture_dir, tmp_path):
    result = runner.invoke(
        main,
        [
            "run",
            "--dataset",
            str(cli_fixture_dir),
            "--provider",
            "replay",
            "--out",
            str(tmp_path / "out"),
        ],
    )
    assert result.exit_code == 2
    assert "--config-id or --config-file" in result.output


def test_run_config_nine_manifest_counts_no_memory_traffic(runner, cli_fixture_dir, tmp_path):
    out = tmp_path / "run9"
    result = runner.invoke(
        main,
        [
            "run",
            "--dataset",
            str(cli_fixture_dir),
            "--config-id",
            "9",
            "--provider",
            "replay",
            "--seed",
            "0",
            "--out",
            str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "completed"
    assert manifest["counters"]["retrieve_calls"] == 0
    assert manifest["counters"]["memory_update_calls"] == 0
    assert (out / "log.jsonl").exists()


def test_run_same_seed_identical_digests(runner, cli_fixture_dir, tmp_path):
    digests = []
    for name in ("a", "b"):
        result = runner.invoke(
            main,
            [
                "run",
                "--dataset",
                str(cli_fixture_dir),
                "--config-id",
                "1",
                "--provider",
                "memory-gated",
                "--seed",
                "3",
                "--out",
                str(tmp_path / name),
            ],
        )
        assert result.exit_code == 0, result.output
        digests.append(
            [line for line in result.output.splitlines() if "digest" in line][0]
        )
    assert digests[0] == digests[1]


def test_run_prints_the_manifest_log_digest(runner, cli_fixture_dir, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(
        main,
        [
            "run",
            "--dataset",
            str(cli_fixture_dir),
            "--config-id",
            "1",
            "--provider",
            "memory-gated",
            "--out",
            str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    printed = [line for line in result.output.splitlines() if "digest" in line]
    manifest = json.loads((out / "manifest.json").read_text())
    dataset = load_standard_group(cli_fixture_dir / "agents")
    roles = {
        agent_id: load_role(cli_fixture_dir / "roles" / f"{agent_id}.txt")
        for agent_id in dataset.agent_ids
    }
    provider = MemoryGatedProvider.from_file(cli_fixture_dir / "gated_script.json")
    log = run_simulation(dataset, roles, provider, config_by_id(1), seed=0)
    assert printed == [f"log digest: {manifest['log_digest']}"]
    assert manifest["log_digest"] == log.digest()


def test_evaluate_replay_log_is_all_ones(runner, cli_fixture_dir, tmp_path):
    out = tmp_path / "run"
    assert (
        runner.invoke(
            main,
            [
                "run",
                "--dataset",
                str(cli_fixture_dir),
                "--config-id",
                "1",
                "--provider",
                "replay",
                "--out",
                str(out),
            ],
        ).exit_code
        == 0
    )
    result = runner.invoke(
        main,
        [
            "evaluate",
            "--log",
            str(out / "log.jsonl"),
            "--dataset",
            str(cli_fixture_dir),
            "--format",
            "csv",
        ],
    )
    assert result.exit_code == 0, result.output
    data_line = result.output.splitlines()[1]
    assert data_line.startswith("1,")
    assert set(data_line.split(",")[1:]) == {"1.0"}


def test_log_responses_keep_only_the_meta_and_the_responses(
    tmp_path, mini_dataset, mini_fixture
):
    out = tmp_path / "run"
    roles = load_roles_dir(mini_fixture.roles_dir)
    provider = MemoryGatedProvider.from_file(mini_fixture.script_path)
    run_simulation(mini_dataset, roles, provider, config_by_id(1), seed=0, out_dir=out)
    path = out / "log.jsonl"
    tracemalloc.start()
    try:
        meta, responses = _log_responses(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected_meta, *entries = iter_log(path)
    assert (meta, responses) == (expected_meta, [entry["response"] for entry in entries])
    # Reading the whole log at once peaked near three times its size.
    assert peak < 0.5 * path.stat().st_size


@pytest.mark.parametrize("beta", ["0", "-1", "nan"])
def test_evaluate_rejects_a_beta_that_is_not_finite_and_positive(
    runner, cli_fixture_dir, tmp_path, beta
):
    out = tmp_path / "run"
    args = ["--dataset", str(cli_fixture_dir), "--config-id", "9", "--provider", "replay"]
    assert runner.invoke(main, ["run", *args, "--out", str(out)]).exit_code == 0
    report = tmp_path / "report.csv"
    result = runner.invoke(
        main,
        [
            "evaluate",
            "--log",
            str(out / "log.jsonl"),
            "--dataset",
            str(cli_fixture_dir),
            "--beta",
            beta,
            "--out",
            str(report),
        ],
    )
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "beta must be finite and positive" in result.output
    assert not report.exists()


def test_matrix_runs_all_nine_and_renders_reports(runner, cli_fixture_dir, tmp_path):
    out = tmp_path / "matrix"
    result = runner.invoke(
        main,
        [
            "matrix",
            "--dataset",
            str(cli_fixture_dir),
            "--provider",
            "memory-gated",
            "--seed",
            "0",
            "--out",
            str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    csv_lines = (out / "report.csv").read_text().splitlines()
    assert len(csv_lines) == 10  # header + nine configs
    assert csv_lines[0].split(",")[0] == "config_id"
    assert len(csv_lines[1].split(",")) == 21
    assert (out / "report.md").exists()
    for config_id in range(1, 10):
        assert (out / f"config-{config_id}" / "log.jsonl").exists()


def test_export_and_tally_human_eval(runner, cli_fixture_dir, tmp_path):
    logs = {}
    for config_id in (1, 9):
        out = tmp_path / f"run{config_id}"
        assert (
            runner.invoke(
                main,
                [
                    "run",
                    "--dataset",
                    str(cli_fixture_dir),
                    "--config-id",
                    str(config_id),
                    "--provider",
                    "memory-gated",
                    "--out",
                    str(out),
                ],
            ).exit_code
            == 0
        )
        logs[config_id] = out / "log.jsonl"

    blocks_path = tmp_path / "blocks.jsonl"
    key_path = tmp_path / "key.json"
    result = runner.invoke(
        main,
        [
            "export-human-eval",
            "--dataset",
            str(cli_fixture_dir),
            "--include-reference",
            "--log",
            f"1={logs[1]}",
            "--log",
            f"9={logs[9]}",
            "--seed",
            "0",
            "--out",
            str(blocks_path),
            "--key",
            str(key_path),
        ],
    )
    assert result.exit_code == 0, result.output
    blocks = [json.loads(line) for line in blocks_path.read_text().splitlines()]
    assert len(blocks) == 10 * 6
    assert all(len(b["answers"]) == 3 for b in blocks)

    key = json.loads(key_path.read_text())
    votes = {block_id: 0 for block_id in key["blocks"]}
    votes_path = tmp_path / "votes.json"
    votes_path.write_text(json.dumps(votes), encoding="utf-8")
    result = runner.invoke(
        main,
        ["tally-human-eval", "--key", str(key_path), "--votes", str(votes_path)],
    )
    assert result.exit_code == 0, result.output
    tallies = json.loads(result.output)
    assert sum(tallies.values()) == len(blocks)


@pytest.mark.parametrize("position", ["1", 1.5, True])
def test_tally_rejects_a_vote_position_that_is_not_an_integer(runner, tmp_path, position):
    key_path = tmp_path / "key.json"
    key_path.write_text(
        json.dumps({"group_ids": [0, 1], "blocks": {"b1": [1, 0]}}), encoding="utf-8"
    )
    votes_path = tmp_path / "votes.json"
    votes_path.write_text(json.dumps({"b1": position}), encoding="utf-8")
    result = runner.invoke(
        main, ["tally-human-eval", "--key", str(key_path), "--votes", str(votes_path)]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Error: b1: vote position" in result.output
    assert "not an integer" in result.output


def test_tally_missing_key_file_is_explicit(runner, tmp_path):
    votes_path = tmp_path / "votes.json"
    votes_path.write_text("{}", encoding="utf-8")
    result = runner.invoke(
        main,
        [
            "tally-human-eval",
            "--key",
            str(tmp_path / "missing-key.json"),
            "--votes",
            str(votes_path),
        ],
    )
    assert result.exit_code == 1
    assert "key file not found" in result.output


_EXPORT = ["export-human-eval", "--dataset", "{dataset}", "--out", "blocks.json"]
_EXPORT += ["--key", "key.json", "--log"]
_TALLY = ["tally-human-eval", "--key", "key.json", "--votes", "votes.json"]
_RUN = ["run", "--dataset", "{dataset}", "--provider", "replay", "--out", "run"]
_RUN += ["--config-file", "config.txt"]
_KEY = json.dumps({"group_ids": [1], "blocks": {}})
_CONFIG_REST = "eb_enabled=true\nkb_enabled=true\nbase_structure=dual\nstlt_enabled=true\n"


@pytest.mark.parametrize(
    "files, args, exit_code, message",
    [
        pytest.param(
            {"empty.jsonl": ""},
            ["evaluate", "--dataset", "{dataset}", "--log", "empty.jsonl"],
            1,
            "empty log file",
            id="evaluate-empty-log",
        ),
        pytest.param(
            {"empty.jsonl": ""}, [*_EXPORT, "1=empty.jsonl"], 1, "empty log file",
            id="export-empty-log",
        ),
        pytest.param({}, [*_EXPORT, "1=nope.jsonl"], 1, "nope.jsonl", id="export-missing-log"),
        # A malformed option value is a usage error, as a spec without "=" is.
        pytest.param(
            {"empty.jsonl": ""}, [*_EXPORT, "x=empty.jsonl"], 2, "integer ID",
            id="export-group-id-not-an-integer",
        ),
        pytest.param(
            {"key.json": _KEY, "votes.json": "[1]"}, _TALLY, 1, "votes must map",
            id="tally-votes-not-an-object",
        ),
        pytest.param(
            {"key.json": _KEY, "votes.json": "not json"}, _TALLY, 1, "Expecting value",
            id="tally-votes-not-json",
        ),
        pytest.param(
            {"key.json": "not json", "votes.json": "{}"}, _TALLY, 1, "Expecting value",
            id="tally-key-not-json",
        ),
        pytest.param(
            {"config.txt": "id=1\n"}, _RUN, 1, "missing keys",
            id="run-config-file-missing-keys",
        ),
        pytest.param(
            {"config.txt": "id=x\n" + _CONFIG_REST}, _RUN, 1, "invalid literal",
            id="run-config-file-id-not-an-integer",
        ),
    ],
)
def test_malformed_input_files_are_reported_without_a_traceback(
    runner, cli_fixture_dir, tmp_path, monkeypatch, files, args, exit_code, message
):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text, encoding="utf-8")
    args = [arg.format(dataset=cli_fixture_dir) for arg in args]
    result = runner.invoke(main, args)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == exit_code
    assert "Error: " in result.output
    assert message in result.output


_RUN_FX = ["run", "--dataset", "fx", "--config-id", "1", "--out", "out", "--provider"]
_REMOTE = [*_RUN_FX, "remote", "--providers-file", "providers.ini"]


@pytest.mark.parametrize(
    "files, args, bad",
    [
        pytest.param(
            {"fx/gated_script.json": '{"generic_answer": "x", "actions": {}, "updates": {}}'},
            [*_RUN_FX, "memory-gated"],
            "fx/gated_script.json",
            id="gated-script-without-role-update-response",
        ),
        pytest.param(
            {"providers.ini": "[remote]\ntype = http\nmodel = m\n"}, _REMOTE,
            "providers.ini", id="http-section-without-url",
        ),
        pytest.param(
            {"providers.ini": "not an ini file\n"}, _REMOTE, "providers.ini",
            id="providers-file-not-ini",
        ),
        pytest.param(
            {"script.json": "not json"}, [*_RUN_FX, "scripted:script.json"], "script.json",
            id="scripted-file-not-json",
        ),
        pytest.param(
            {"key.json": "not json", "votes.json": "{}"}, _TALLY, "key.json",
            id="tally-key-not-json",
        ),
        pytest.param(
            {"fx/roles/t01.txt": "not a role\n"}, [*_RUN_FX, "memory-gated"],
            "fx/roles/t01.txt", id="role-file-malformed",
        ),
        pytest.param(
            {"fx/roles/t01.txt": "not a role\n"},
            ["matrix", "--dataset", "fx", "--out", "out", "--provider", "replay"],
            "fx/roles/t01.txt", id="matrix-role-file-malformed",
        ),
    ],
)
def test_malformed_provider_and_role_files_are_named_without_a_traceback(
    runner, tmp_path, monkeypatch, files, args, bad
):
    monkeypatch.chdir(tmp_path)
    build_fixture("fx", teachers=1, students=1, days=1, seed=0)
    for name, text in files.items():
        Path(name).write_text(text, encoding="utf-8")
    result = runner.invoke(main, args)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert f"Error: {bad}: " in result.output
    # No run started, so there is nothing to resume.
    assert "resume" not in result.output


def test_gen_roles_with_scripted_provider(runner, tmp_path):
    profile = "\n".join(f"- {name}: scripted {name.lower()}" for name in TEACHER_FIELDS)
    script_path = tmp_path / "script.json"
    script_path.write_text(
        json.dumps({"script": {ROLE_GENERATION_TEACHER.format(subject="Math"): profile}}),
        encoding="utf-8",
    )
    out = tmp_path / "roles"
    result = runner.invoke(
        main,
        [
            "gen-roles",
            "--kind",
            "teacher",
            "--subject",
            "Math",
            "--count",
            "1",
            "--provider",
            f"scripted:{script_path}",
            "--out",
            str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    role = load_role(out / "t01.txt")
    assert role.class_assignment == "Math"


def test_gen_roles_rejects_unlisted_subject(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "gen-roles",
            "--kind",
            "teacher",
            "--subject",
            "Biology",
            "--count",
            "1",
            "--provider",
            "scripted:none.json",
            "--out",
            str(tmp_path),
        ],
    )
    assert result.exit_code == 2
    assert "Chinese" in result.output


def test_gen_roles_count_zero_warns(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "gen-roles",
            "--kind",
            "student",
            "--count",
            "0",
            "--provider",
            "scripted:none.json",
            "--out",
            str(tmp_path),
        ],
    )
    assert result.exit_code == 0
    assert "nothing to do" in result.output


def test_unknown_provider_without_providers_file(runner, cli_fixture_dir, tmp_path):
    result = runner.invoke(
        main,
        [
            "run",
            "--dataset",
            str(cli_fixture_dir),
            "--config-id",
            "1",
            "--provider",
            "mystery",
            "--out",
            str(tmp_path / "out"),
        ],
    )
    assert result.exit_code == 1
    assert "providers-file" in result.output


def test_run_resume_with_a_different_seed_is_an_error(runner, cli_fixture_dir, tmp_path):
    out = tmp_path / "run"
    args = [
        "run",
        "--dataset",
        str(cli_fixture_dir),
        "--config-id",
        "1",
        "--provider",
        "memory-gated",
        "--out",
        str(out),
    ]
    result = runner.invoke(main, args + ["--seed", "0"])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, args + ["--seed", "5", "--resume"])
    assert result.exit_code == 1, result.output
    assert "cannot resume" in result.output and "different seed" in result.output


def test_run_resume_with_a_malformed_journal_is_an_error(runner, cli_fixture_dir, tmp_path):
    out = tmp_path / "run"
    args = [
        "run",
        "--dataset",
        str(cli_fixture_dir),
        "--config-id",
        "1",
        "--provider",
        "memory-gated",
        "--out",
        str(out),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    # The header is JSON, but not an object.
    journal = out / "checkpoint" / "journal.jsonl"
    journal.write_bytes(b"[]\n" + journal.read_bytes().split(b"\n", 1)[1])
    result = runner.invoke(main, args + ["--resume"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output.startswith("Error: cannot resume")
    assert f"{journal}: line 1 is not a journal header" in result.output
    assert "Traceback" not in result.output


def test_run_resume_with_a_wrong_value_in_the_log_is_an_error(
    runner, cli_fixture_dir, tmp_path
):
    out = tmp_path / "run"
    args = [
        "run",
        "--dataset",
        str(cli_fixture_dir),
        "--config-id",
        "1",
        "--provider",
        "memory-gated",
        "--out",
        str(out),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    # The first entry keeps its keys and its length, but its counters are a list.
    log = out / "log.jsonl"
    meta, entry, rest = log.read_bytes().split(b"\n", 2)
    edited = json.dumps({**json.loads(entry), "memory_update_counts": []}, ensure_ascii=False)
    log.write_bytes(b"\n".join([meta, edited.encode("utf-8").ljust(len(entry)), rest]))
    result = runner.invoke(main, args + ["--resume"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output.startswith("Error: cannot resume")
    assert f"{log}: line 2 is not the log entry of step 0" in result.output
    assert "Traceback" not in result.output


def test_run_resume_with_an_unknown_counter_in_the_log_is_an_error(
    runner, cli_fixture_dir, tmp_path
):
    out = tmp_path / "run"
    args = [
        "run",
        "--dataset",
        str(cli_fixture_dir),
        "--config-id",
        "1",
        "--provider",
        "memory-gated",
        "--out",
        str(out),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    # The first entry names a counter the manifest does not count.
    log = out / "log.jsonl"
    meta, entry, rest = log.read_bytes().split(b"\n", 2)
    assert b'"skipped_empty": 0' in entry
    entry = entry.replace(b'"skipped_empty": 0', b'"skipped_emptX": 0')
    log.write_bytes(b"\n".join([meta, entry, rest]))
    result = runner.invoke(main, args + ["--resume"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output.startswith("Error: cannot resume")
    assert f"{log}: line 2 is not the log entry of step 0" in result.output
    assert "Traceback" not in result.output


def test_run_resume_with_another_scripted_section_is_an_error(
    runner, cli_fixture_dir, tmp_path
):
    # A scripted section is named after its section, as an HTTP one is, so
    # two sections with different scripts are different providers.
    providers = tmp_path / "providers.ini"
    sections = []
    for name in ("alpha", "beta"):
        script = tmp_path / f"{name}.json"
        script.write_text(json.dumps({"script": {}, "fallback": f"{name} answers."}))
        sections.append(f"[{name}]\ntype = scripted\nscript = {script}\n")
    providers.write_text("\n".join(sections))
    out = tmp_path / "run"
    args = [
        "run",
        "--dataset",
        str(cli_fixture_dir),
        "--config-id",
        "1",
        "--providers-file",
        str(providers),
        "--out",
        str(out),
    ]
    result = runner.invoke(main, args + ["--provider", "alpha"])
    assert result.exit_code == 0, result.output
    assert json.loads((out / "manifest.json").read_text())["provider"] == "alpha"
    result = runner.invoke(main, args + ["--provider", "beta", "--resume"])
    assert result.exit_code == 1, result.output
    assert "cannot resume" in result.output and "different provider" in result.output


def test_run_resume_with_another_script_argument_is_an_error(
    runner, cli_fixture_dir, tmp_path
):
    # A scripted:<path> provider is named after its argument, so two script
    # files are different providers.
    scripts = []
    for name in ("alpha", "beta"):
        script = tmp_path / f"{name}.json"
        script.write_text(json.dumps({"script": {}, "fallback": f"{name} answers."}))
        scripts.append(f"scripted:{script}")
    out = tmp_path / "run"
    args = [
        "run",
        "--dataset",
        str(cli_fixture_dir),
        "--config-id",
        "1",
        "--out",
        str(out),
    ]
    result = runner.invoke(main, args + ["--provider", scripts[0]])
    assert result.exit_code == 0, result.output
    assert json.loads((out / "manifest.json").read_text())["provider"] == scripts[0]
    result = runner.invoke(main, args + ["--provider", scripts[1], "--resume"])
    assert result.exit_code == 1, result.output
    assert "cannot resume" in result.output and "different provider" in result.output


@pytest.mark.parametrize("level, shown", [("WARNING", True), ("warning", True), ("ERROR", False)])
def test_log_level_shows_or_hides_unparseable_updates(
    runner, cli_fixture_dir, tmp_path, level, shown
):
    # One answer to every call: the memory updates it gives do not parse.
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"script": {}, "fallback": "I nod and carry on."}))
    result = runner.invoke(
        main,
        [
            "--log-level",
            level,
            "run",
            "--dataset",
            str(cli_fixture_dir),
            "--config-id",
            "1",
            "--provider",
            f"scripted:{script}",
            "--out",
            str(tmp_path / "run"),
        ],
    )
    assert result.exit_code == 0, result.output
    assert ("memory update unparseable" in result.stderr) is shown
    assert "memory update unparseable" not in result.stdout


def _run_dir_without_clock(out: Path) -> dict:
    files = {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    del manifest["written_at"]
    return {"files": files, "manifest": manifest}


def _no_thread_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an offline provider run built a thread pool")

    monkeypatch.setattr("schoolsim.simulation.ThreadPoolExecutor", refuse)


def test_run_with_jobs_and_an_offline_provider_warns_and_uses_one_thread(
    runner, cli_fixture_dir, tmp_path, monkeypatch
):
    _no_thread_pool(monkeypatch)
    outputs = {}
    for jobs in ("1", "4"):
        out = tmp_path / f"jobs-{jobs}"
        result = runner.invoke(
            main,
            [
                "run",
                "--dataset",
                str(cli_fixture_dir),
                "--config-id",
                "1",
                "--provider",
                "memory-gated",
                "--out",
                str(out),
                "--jobs",
                jobs,
            ],
        )
        assert result.exit_code == 0, result.output
        outputs[jobs] = (result.stderr, _run_dir_without_clock(out))
    assert "--jobs" not in outputs["1"][0]
    assert outputs["4"][0].count("--jobs 4 ignored") == 1
    assert outputs["4"][1] == outputs["1"][1]


def test_matrix_with_jobs_and_an_offline_provider_warns_once(
    runner, cli_fixture_dir, tmp_path, monkeypatch
):
    _no_thread_pool(monkeypatch)
    result = runner.invoke(
        main,
        [
            "matrix",
            "--dataset",
            str(cli_fixture_dir),
            "--provider",
            "memory-gated",
            "--out",
            str(tmp_path / "matrix"),
            "--jobs",
            "2",
        ],
    )
    assert result.exit_code == 0, result.output
    assert result.stderr.count("--jobs 2 ignored") == 1


def test_jobs_stay_as_given_for_an_http_provider(tmp_path, caplog):
    providers = tmp_path / "providers.ini"
    providers.write_text("[remote]\ntype = http\nurl = http://localhost:1/v1\n", "utf-8")
    provider = _provider_factory("remote", Dataset(), tmp_path, str(providers), 4)()
    assert isinstance(provider, HttpProvider)
    assert provider.jobs == 4
    assert _warn_unused_jobs(provider, 4) == 4
    assert "ignored" not in caplog.text
