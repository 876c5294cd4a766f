from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from schoolsim.agent import TEACHER_FIELDS, load_role
from schoolsim.cli import main
from schoolsim.config import config_by_id
from schoolsim.dataset import load_standard_group
from schoolsim.fixtures import MemoryGatedProvider
from schoolsim.simulation import run_simulation
from schoolsim.prompts import ROLE_GENERATION_TEACHER


@pytest.fixture()
def runner():
    return CliRunner()


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
