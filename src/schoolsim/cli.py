"""Operator command line.

Subcommands: gen-roles, gen-dataset, validate, run, matrix, evaluate,
export-human-eval, tally-human-eval. Exit codes: 0 on success with all
requested outputs written, 1 on runtime failure, 2 on usage errors.

Provider names: ``replay`` (dataset ground truth), ``memory-gated`` (the
fixture's retrieval-sensitive script), ``scripted:<path>`` (JSON script
file), or a section name from a providers INI file (``--providers-file``)
holding ``type``/``url``/``model``/``auth_env`` keys. API keys come from the
named environment variable only.
"""

from __future__ import annotations

import configparser
import json
from pathlib import Path

import click

from .agent import RoleKind, TEACHER_SUBJECTS, generate_role, load_role, save_role
from .config import SimulationConfig, config_by_id, config_matrix, load_config_file
from .dataset import Dataset, load_standard_group, summarize
from .errors import SchoolSimError
from .evaluation import (
    evaluate_run,
    export_human_eval_sample,
    recover_tallies,
    render_matrix_report,
    save_human_eval,
    score_responses,
)
from .fixtures import GATED_SCRIPT_FILENAME, MemoryGatedProvider, build_fixture
from .llm import HttpProvider, Provider, ScriptedProvider
from .simulation import (
    LOG_FILENAME,
    MANIFEST_FILENAME,
    ReplayBundle,
    RunParams,
    load_log,
    run_simulation,
)

AGENTS_SUBDIR = "agents"
ROLES_SUBDIR = "roles"


def _resolve_dataset_dir(path: Path) -> Path:
    if (path / AGENTS_SUBDIR).is_dir():
        return path / AGENTS_SUBDIR
    return path


def _load_dataset(path: str) -> tuple[Dataset, Path]:
    root = Path(path)
    dataset = load_standard_group(_resolve_dataset_dir(root))
    return dataset, root


def _load_roles(dataset: Dataset, roles_dir: Path) -> dict:
    roles = {}
    for agent_id in dataset.agent_ids:
        role_path = roles_dir / f"{agent_id}.txt"
        if not role_path.exists():
            raise click.ClickException(f"missing role file: {role_path}")
        roles[agent_id] = load_role(role_path)
    return roles


def _provider_factory(name: str, dataset: Dataset, root: Path, providers_file: str | None):
    """Returns a zero-argument callable building a fresh provider instance."""
    if name == "replay":
        return lambda: ReplayBundle.from_dataset(dataset)
    if name == "memory-gated":
        script = root / GATED_SCRIPT_FILENAME
        if not script.exists():
            raise click.ClickException(
                f"provider 'memory-gated' needs {GATED_SCRIPT_FILENAME} next to the dataset"
            )
        return lambda: MemoryGatedProvider.from_file(script)
    if name.startswith("scripted:"):
        script_path = Path(name.split(":", 1)[1])
        if not script_path.exists():
            raise click.ClickException(f"script file not found: {script_path}")
        # Named after the argument, so two scripts are two providers.
        return lambda: ScriptedProvider.from_file(script_path, name=name)
    if providers_file is None:
        raise click.ClickException(
            f"unknown provider {name!r} and no --providers-file given"
        )
    parser = configparser.ConfigParser()
    parser.read(providers_file)
    if name not in parser:
        raise click.ClickException(f"provider {name!r} not found in {providers_file}")
    section = parser[name]
    kind = section.get("type", "http")
    if kind == "scripted":
        return lambda: ScriptedProvider.from_file(section["script"], name=name)
    if kind != "http":
        raise click.ClickException(f"unknown provider type {kind!r} for {name!r}")

    def build() -> Provider:
        return HttpProvider(
            base_url=section["url"],
            model=section.get("model", name),
            auth_env=section.get("auth_env"),
            timeout=section.getfloat("timeout", 60.0),
            max_retries=section.getint("max_retries", 3),
            name=name,
        )

    return build


def _parse_config(config_id: int | None, config_file: str | None) -> SimulationConfig:
    if (config_id is None) == (config_file is None):
        raise click.UsageError("give exactly one of --config-id or --config-file")
    if config_file is not None:
        return load_config_file(config_file)
    try:
        return config_by_id(config_id)
    except ValueError as exc:
        raise click.UsageError(str(exc))


@click.group()
@click.version_option()
def main() -> None:
    """Deterministic multi-agent school simulation toolkit."""


@main.command("gen-roles")
@click.option("--kind", type=click.Choice(["teacher", "student"]), required=True)
@click.option("--subject", default=None, help="Teacher subject, or student class id.")
@click.option("--count", type=int, default=1, show_default=True)
@click.option("--provider", "provider_name", required=True)
@click.option("--providers-file", default=None, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@click.option("--id-prefix", default=None, help="Agent id prefix (default: kind initial).")
def gen_roles(kind, subject, count, provider_name, providers_file, out, id_prefix) -> None:
    """Generate role profile files through a provider."""
    if count < 1:
        click.echo("warning: --count 0 requested; nothing to do")
        return
    role_kind = RoleKind(kind)
    if role_kind is RoleKind.TEACHER:
        if subject not in TEACHER_SUBJECTS:
            raise click.UsageError(
                f"--subject must be one of {', '.join(TEACHER_SUBJECTS)}"
            )
    else:
        subject = subject or "Class 1"
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    provider = _provider_factory(provider_name, Dataset(), out_dir, providers_file)()
    prefix = id_prefix or kind[0]
    written = 0
    for i in range(count):
        agent_id = f"{prefix}{i + 1:02d}"
        try:
            role = generate_role(provider, role_kind, subject, agent_id=agent_id)
        except SchoolSimError as exc:
            raise click.ClickException(f"profile {i + 1}: {exc} (re-run to retry)")
        save_role(role, out_dir / f"{agent_id}.txt")
        written += 1
    click.echo(f"wrote {written} role file(s) to {out_dir}")


@main.command("gen-dataset")
@click.option("--out", required=True, type=click.Path())
@click.option("--teachers", type=int, default=10, show_default=True)
@click.option("--students", type=int, default=40, show_default=True)
@click.option("--days", type=int, default=5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def gen_dataset(out, teachers, students, days, seed) -> None:
    """Generate the synthetic standard-group fixture."""
    paths = build_fixture(out, teachers=teachers, students=students, days=days, seed=seed)
    dataset = load_standard_group(paths.agents_dir)
    click.echo(
        f"fixture at {paths.root}: {len(dataset.agent_ids)} agents, "
        f"{dataset.qa_count} QA steps"
    )


@main.command("validate")
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True))
def validate(dataset_path) -> None:
    """Validate a dataset directory and print its summary."""
    try:
        dataset, _root = _load_dataset(dataset_path)
    except SchoolSimError as exc:
        raise click.ClickException(str(exc))
    stats = summarize(dataset)
    click.echo(f"agents: {len(dataset.agent_ids)}")
    for kind, count in sorted(stats.agent_counts.items(), key=lambda kv: kv[0].value):
        click.echo(f"  {kind.value}s: {count}")
    click.echo(f"qa steps: {stats.qa_count}")
    for category, count in sorted(
        stats.category_counts.items(), key=lambda kv: kv[0].label
    ):
        click.echo(f"  {category.label}: {count}")
    if stats.unlabeled:
        click.echo(f"  (unlabeled: {stats.unlabeled})")


def _run_one(
    dataset: Dataset,
    root: Path,
    config: SimulationConfig,
    provider_factory,
    seed: int,
    out_dir: Path,
    jobs: int,
    roles_dir: Path | None,
    resume: bool,
):
    roles_path = roles_dir or (root / ROLES_SUBDIR)
    if not roles_path.is_dir():
        raise click.ClickException(f"no roles directory at {roles_path}")
    roles = _load_roles(dataset, roles_path)
    return run_simulation(
        dataset,
        roles,
        provider_factory(),
        config,
        seed=seed,
        params=RunParams(),
        out_dir=out_dir,
        jobs=jobs,
        resume=resume,
    )


@main.command("run")
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True))
@click.option("--config-id", type=int, default=None)
@click.option("--config-file", type=click.Path(exists=True), default=None)
@click.option("--provider", "provider_name", required=True)
@click.option("--providers-file", default=None, type=click.Path(exists=True))
@click.option("--roles", "roles_dir", type=click.Path(exists=True), default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--resume", is_flag=True, help="Continue an aborted run directory.")
def run_cmd(
    dataset_path,
    config_id,
    config_file,
    provider_name,
    providers_file,
    roles_dir,
    seed,
    out,
    jobs,
    resume,
) -> None:
    """Run one configuration over a dataset; writes log and manifest."""
    config = _parse_config(config_id, config_file)
    dataset, root = _load_dataset(dataset_path)
    factory = _provider_factory(provider_name, dataset, root, providers_file)
    out_dir = Path(out)
    try:
        log = _run_one(
            dataset,
            root,
            config,
            factory,
            seed,
            out_dir,
            jobs,
            Path(roles_dir) if roles_dir else None,
            resume,
        )
    except SchoolSimError as exc:
        raise click.ClickException(
            f"run aborted ({exc}); resume with --resume --out {out}"
        )
    except ValueError as exc:
        if not resume:
            raise
        raise click.ClickException(f"cannot resume {out}: {exc}")
    click.echo(f"config {config.id}: {len(log.entries)} steps -> {out_dir / LOG_FILENAME}")
    # The manifest's digest is the running hash of the log bytes as written.
    manifest = json.loads((out_dir / MANIFEST_FILENAME).read_text(encoding="utf-8"))
    click.echo(f"log digest: {manifest['log_digest']}")


@main.command("matrix")
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True))
@click.option("--provider", "provider_name", required=True)
@click.option("--providers-file", default=None, type=click.Path(exists=True))
@click.option("--roles", "roles_dir", type=click.Path(exists=True), default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--interval", type=click.Choice(["5", "10"]), default="5", show_default=True)
def matrix(
    dataset_path, provider_name, providers_file, roles_dir, seed, out, jobs, interval
) -> None:
    """Run all nine configurations, evaluate each, render a combined report."""
    dataset, root = _load_dataset(dataset_path)
    factory = _provider_factory(provider_name, dataset, root, providers_file)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    failures: dict[int, str] = {}
    for config in config_matrix():
        run_dir = out_dir / f"config-{config.id}"
        try:
            log = _run_one(
                dataset,
                root,
                config,
                factory,
                seed,
                run_dir,
                jobs,
                Path(roles_dir) if roles_dir else None,
                resume=False,
            )
            reports.append(
                evaluate_run(log, dataset, interval_percent=int(interval))
            )
        except (SchoolSimError, click.ClickException) as exc:
            failures[config.id] = str(exc)
            click.echo(f"config {config.id} failed: {exc}", err=True)
    if not reports:
        raise click.ClickException("all nine configurations failed")
    csv_text = render_matrix_report(reports, format="csv", failures=failures)
    md_text = render_matrix_report(reports, format="markdown", failures=failures)
    (out_dir / "report.csv").write_text(csv_text, encoding="utf-8")
    (out_dir / "report.md").write_text(md_text, encoding="utf-8")
    click.echo(f"{len(reports)} configs evaluated -> {out_dir / 'report.csv'}")
    if failures:
        click.echo(f"failed configs: {sorted(failures)}", err=True)


@main.command("evaluate")
@click.option("--log", "log_path", required=True, type=click.Path(exists=True))
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(["csv", "markdown"]), default="csv")
@click.option("--interval", type=click.Choice(["5", "10"]), default="5", show_default=True)
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--out", default=None, type=click.Path())
def evaluate(log_path, dataset_path, fmt, interval, beta, out) -> None:
    """Score a run log against the dataset's reference answers."""
    dataset, _root = _load_dataset(dataset_path)
    meta, entries = load_log(log_path)
    try:
        report = score_responses(
            [entry["response"] for entry in entries],
            dataset.reference_answers(),
            config_id=meta.get("config", {}).get("id", 0),
            beta=beta,
            interval_percent=int(interval),
        )
    except (SchoolSimError, ValueError) as exc:
        raise click.ClickException(str(exc))
    text = render_matrix_report([report], format=fmt)
    if out:
        Path(out).write_text(text, encoding="utf-8")
        click.echo(f"report -> {out}")
    else:
        click.echo(text, nl=False)


@main.command("export-human-eval")
@click.option(
    "--log",
    "log_specs",
    multiple=True,
    required=True,
    help="Group spec ID=PATH; repeat per group.",
)
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True))
@click.option("--include-reference", is_flag=True, help="Add the dataset as group 0.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
@click.option("--key", "key_path", required=True, type=click.Path())
def export_human_eval(log_specs, dataset_path, include_reference, seed, out, key_path) -> None:
    """Export blinded answer blocks plus the sealed position key."""
    dataset, _root = _load_dataset(dataset_path)
    groups: dict[int, list[str]] = {}
    if include_reference:
        groups[0] = dataset.reference_answers()
    for spec in log_specs:
        group_id, _, path = spec.partition("=")
        if not path:
            raise click.UsageError(f"--log expects ID=PATH, got {spec!r}")
        _meta, entries = load_log(path)
        groups[int(group_id)] = [entry["response"] for entry in entries]
    try:
        export = export_human_eval_sample(groups, dataset, seed=seed)
    except SchoolSimError as exc:
        raise click.ClickException(str(exc))
    save_human_eval(export, out, key_path)
    click.echo(
        f"{len(export.blocks)} blocks ({len(groups)} answers each) -> {out}; key -> {key_path}"
    )


@main.command("tally-human-eval")
@click.option("--key", "key_path", required=True, type=click.Path())
@click.option("--votes", "votes_path", required=True, type=click.Path(exists=True))
def tally_human_eval(key_path, votes_path) -> None:
    """Recover per-group tallies from votes using the sealed key."""
    key_file = Path(key_path)
    if not key_file.exists():
        raise click.ClickException(f"key file not found: {key_file}")
    key = json.loads(key_file.read_text(encoding="utf-8"))
    votes = json.loads(Path(votes_path).read_text(encoding="utf-8"))
    try:
        tallies = recover_tallies(key, votes)
    except (KeyError, ValueError) as exc:
        raise click.ClickException(str(exc))
    click.echo(json.dumps({str(k): v for k, v in sorted(tallies.items())}, indent=2))


if __name__ == "__main__":
    main()
