"""Operator command line.

Subcommands: gen-roles, gen-dataset, validate, run, matrix, evaluate,
export-human-eval, tally-human-eval. Exit codes: 0 on success with all
requested outputs written, 1 on runtime failure, 2 on usage errors. The
group option ``--log-level`` (default WARNING) sets the lowest level of log
message written to stderr: WARNING shows unparseable memory updates, INFO
adds each HTTP provider call's latency.

Provider names: ``replay`` (dataset ground truth), ``memory-gated`` (the
fixture's retrieval-sensitive script), ``scripted:<path>`` (JSON script
file), or a section name from a providers INI file (``--providers-file``)
holding ``type``/``url``/``model``/``auth_env`` keys. API keys come from the
named environment variable only. ``--jobs`` is how many requests an HTTP
provider may have in flight; every other provider answers one at a time.
"""

from __future__ import annotations

import configparser
import copy
import json
import logging
from functools import partial
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
from .fixtures import AGENTS_DIRNAME, GATED_SCRIPT_FILENAME, ROLES_DIRNAME
from .fixtures import MemoryGatedProvider, build_fixture
from .llm import HttpProvider, Provider, ScriptedProvider
from .simulation import (
    LOG_FILENAME,
    MANIFEST_FILENAME,
    ReplayBundle,
    iter_log,
    run_simulation,
)

logger = logging.getLogger(__name__)


def _resolve_dataset_dir(path: Path) -> Path:
    if (path / AGENTS_DIRNAME).is_dir():
        return path / AGENTS_DIRNAME
    return path


def _load_dataset(path: str) -> tuple[Dataset, Path]:
    root = Path(path)
    try:
        dataset = load_standard_group(_resolve_dataset_dir(root))
    except SchoolSimError as exc:
        raise click.ClickException(str(exc))
    return dataset, root


def _log_responses(path: str) -> tuple[dict, list[str]]:
    """The meta line and the responses of the run log at ``path``; only
    they are kept as the log is read."""
    try:
        lines = iter_log(path)
        meta = next(lines)
        return meta, [entry["response"] for entry in lines]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise click.ClickException(f"cannot read log {path}: {exc}")


def _load_roles(dataset: Dataset, root: Path, roles_dir: str | None) -> dict:
    """The role of each agent, from ``roles_dir`` or the dataset's roles."""
    roles_path = Path(roles_dir) if roles_dir else root / ROLES_DIRNAME
    if not roles_path.is_dir():
        raise click.ClickException(f"no roles directory at {roles_path}")
    roles = {}
    for agent_id in dataset.agent_ids:
        role_path = roles_path / f"{agent_id}.txt"
        if not role_path.exists():
            raise click.ClickException(f"missing role file: {role_path}")
        try:
            roles[agent_id] = load_role(role_path)
        except (SchoolSimError, OSError, ValueError) as exc:
            raise click.ClickException(f"{role_path}: {exc}")
    return roles


def _read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise click.ClickException(f"{path}: {exc}")


def _from_file(load, path: str | Path, **kwargs):
    """A factory of ``load(path, **kwargs)``, called once here so that a
    malformed ``path`` fails as ``Error: <path>: …`` before any run starts."""
    build = partial(load, path, **kwargs)
    try:
        build()
    except (OSError, ValueError) as exc:
        raise click.ClickException(f"{path}: {exc}")
    return build


def _provider_factory(
    name: str, dataset: Dataset, root: Path, providers_file: str | None, jobs: int = 1
):
    """Returns a zero-argument callable building a fresh provider instance;
    an HTTP provider gets ``jobs`` requests in flight."""
    if name == "replay":
        return lambda: ReplayBundle.from_dataset(dataset)
    if name == "memory-gated":
        script = root / GATED_SCRIPT_FILENAME
        if not script.exists():
            raise click.ClickException(
                f"provider 'memory-gated' needs {GATED_SCRIPT_FILENAME} next to the dataset"
            )
        return _from_file(MemoryGatedProvider.from_file, script)
    if name.startswith("scripted:"):
        script_path = Path(name.split(":", 1)[1])
        if not script_path.exists():
            raise click.ClickException(f"script file not found: {script_path}")
        # Named after the argument, so two scripts are two providers.
        return _from_file(ScriptedProvider.from_file, script_path, name=name)
    if providers_file is None:
        raise click.ClickException(
            f"unknown provider {name!r} and no --providers-file given"
        )
    parser = configparser.ConfigParser()
    try:
        parser.read(providers_file)
    except configparser.Error as exc:
        raise click.ClickException(f"{providers_file}: {exc}")
    if name not in parser:
        raise click.ClickException(f"provider {name!r} not found in {providers_file}")
    section = parser[name]
    kind = section.get("type", "http")
    if kind not in ("http", "scripted"):
        raise click.ClickException(f"unknown provider type {kind!r} for {name!r}")
    key = "url" if kind == "http" else "script"
    if key not in section:
        raise click.ClickException(f"{providers_file}: provider {name!r} has no {key}")
    if kind == "scripted":
        return _from_file(ScriptedProvider.from_file, section["script"], name=name)

    def build() -> Provider:
        return HttpProvider(
            base_url=section["url"],
            model=section.get("model", name),
            auth_env=section.get("auth_env"),
            timeout=section.getfloat("timeout", 60.0),
            max_retries=section.getint("max_retries", 3),
            name=name,
            jobs=jobs,
        )

    return build


def _parse_config(config_id: int | None, config_file: str | None) -> SimulationConfig:
    if (config_id is None) == (config_file is None):
        raise click.UsageError("give exactly one of --config-id or --config-file")
    if config_file is not None:
        try:
            return load_config_file(config_file)
        except ValueError as exc:
            raise click.ClickException(f"{config_file}: {exc}")
    try:
        return config_by_id(config_id)
    except ValueError as exc:
        raise click.UsageError(str(exc))


@click.group()
@click.version_option()
@click.option(
    "--log-level",
    type=click.Choice(["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"], case_sensitive=False),
    default="WARNING",
    show_default=True,
    help="Lowest level of log message written to stderr.",
)
def main(log_level: str) -> None:
    """Deterministic multi-agent school simulation toolkit."""
    logging.basicConfig(
        level=log_level.upper(), format="%(levelname)s %(name)s: %(message)s", force=True
    )


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
    dataset, _root = _load_dataset(dataset_path)
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


def _warn_unused_jobs(provider: Provider, jobs: int) -> int:
    """Warn when ``jobs`` is more than the calls ``provider`` may have in
    flight; returns what is left to warn about, so a command warns once."""
    if jobs <= provider.jobs:
        return jobs
    logger.warning(
        "--jobs %d ignored: provider %r answers in-process, so runs use one thread",
        jobs,
        provider.name,
    )
    return provider.jobs


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
    factory = _provider_factory(provider_name, dataset, root, providers_file, jobs)
    out_dir = Path(out)
    try:
        provider = factory()
        _warn_unused_jobs(provider, jobs)
        roles = _load_roles(dataset, root, roles_dir)
        log = run_simulation(
            dataset, roles, provider, config, seed=seed, out_dir=out_dir, resume=resume
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
    factory = _provider_factory(provider_name, dataset, root, providers_file, jobs)
    roles = _load_roles(dataset, root, roles_dir)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    failures: dict[int, str] = {}
    for config in config_matrix():
        run_dir = out_dir / f"config-{config.id}"
        try:
            provider = factory()
            jobs = _warn_unused_jobs(provider, jobs)
            # A run evolves its roles, so each config starts from a copy.
            log = run_simulation(
                dataset, copy.deepcopy(roles), provider, config, seed=seed, out_dir=run_dir
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
    meta, responses = _log_responses(log_path)
    try:
        report = score_responses(
            responses,
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
        if not path or not group_id.isdecimal():
            raise click.UsageError(f"--log expects ID=PATH with an integer ID, got {spec!r}")
        groups[int(group_id)] = _log_responses(path)[1]
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
    key = _read_json(key_file)
    votes = _read_json(votes_path)
    try:
        tallies = recover_tallies(key, votes)
    except (KeyError, TypeError, ValueError) as exc:
        raise click.ClickException(str(exc))
    click.echo(json.dumps({str(k): v for k, v in sorted(tallies.items())}, indent=2))


if __name__ == "__main__":
    main()
