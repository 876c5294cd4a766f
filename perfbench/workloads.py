"""The benchmark's four workloads: set-up, one timed iteration, and checks.

Every workload calls only schoolsim's public functions, through their
modules, so that a tracer installed around a call sees the same call sites.
Simulation workloads run the ``memory-gated`` provider with ``--jobs 1``.

Why the fixture is smaller than the standard group: one ``matrix`` iteration
on the standard group (10 teachers, 40 students, 1250 steps) takes about
43 s, and the benchmark's time budget allows well under that per run. The
scaled fixture keeps all five days, so every agent still lives through 25
slots and its memory grows exactly as in the standard group; only the agent
count drops to six. Checkpoint I/O and the step cycle both scale linearly
with agents, so their ratio stays close to that of the standard group.
``build_fixture`` accepts at most 10 teachers, 40 students and 5 days, so
the standard group is also the largest simulation input there is; the
``score_cjk`` workload varies input length instead.
"""

from __future__ import annotations

import hashlib
import random
import re
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from schoolsim import agent, config, dataset, evaluation, fixtures, simulation
from schoolsim.errors import ProviderError
from schoolsim.llm import Provider
from schoolsim.prompts import MEMORY_UPDATE_HEADER, ROLE_UPDATE_HEADER

from spans import wchar

FIXTURE_SHAPE = {"teachers": 2, "students": 4, "days": 5}
CJK_PAIRS = 1250  # one log of the standard group
CJK_SAMPLE = 20  # pairs re-checked against the benchmark's own DP


class Ledger:
    """Operations attempted and failed, with a line per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)

    def error(self, name: str) -> None:
        self.check(name, False, traceback.format_exc(limit=4).strip())


@dataclass
class Sample:
    """One timed iteration."""

    wall_s: float = 0.0
    sim_s: float = 0.0
    steps: int = 0
    score_s: float = 0.0
    pairs: int = 0
    written_bytes: int = 0
    # Logs or reports, digested and dropped by Workload.record outside the
    # timed part; kept, they would grow the heap across iterations.
    outputs: dict = field(default_factory=dict)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Fixture:
    """The generated dataset plus factories for roles and provider.

    Roles and the provider are rebuilt for every config run, as the CLI
    does, because runs mutate roles.
    """

    def __init__(self, root: Path, seed: int):
        self.paths = fixtures.build_fixture(root, seed=seed, **FIXTURE_SHAPE)
        self.dataset = dataset.load_standard_group(self.paths.agents_dir)

    def roles(self) -> dict:
        return {
            agent_id: agent.load_role(self.paths.roles_dir / f"{agent_id}.txt")
            for agent_id in self.dataset.agent_ids
        }

    def provider(self) -> Provider:
        return fixtures.MemoryGatedProvider.from_file(self.paths.script_path)


def inmemory_matrix(fixture: Fixture, seed: int, ledger: Ledger) -> tuple[dict, str]:
    """Uninterrupted in-memory runs of all nine configs: (digests, report CSV)."""
    digests = {}
    reports = []
    for cfg in config.config_matrix():
        try:
            log = simulation.run_simulation(
                fixture.dataset, fixture.roles(), fixture.provider(), cfg, seed=seed
            )
        except Exception:
            ledger.error(f"reference run config {cfg.id}")
            continue
        digests[cfg.id] = log.digest()
        reports.append(evaluation.evaluate_run(log, fixture.dataset))
    return digests, evaluation.render_matrix_report(reports, format="csv")


class Workload:
    """A workload has ``setup(target)``, which builds its inputs and may run
    again between iterations (inputs depend only on the seed, and the latest
    set-up is used); ``iterate(index, on_run)``, the timed part, which calls
    ``on_run(run_id)`` before each config run and returns a Sample;
    ``record(sample)``, which digests the outputs after the timing; and
    ``verify()``, the checks made after the last iteration."""

    name = ""

    def __init__(self, seed: int, work: Path, ledger: Ledger, expected: dict):
        self.seed = seed
        self.work = work
        self.ledger = ledger
        self.expected = expected if seed == expected["seed"] else None
        self.digests: list[dict] = []  # per iteration, config id -> log digest
        self.reports: list[str] = []  # per iteration, report CSV

    def _check_recorded(self, digests: dict, report_csv: str) -> None:
        if self.expected is None:
            return
        for cfg_id, digest in digests.items():
            self.ledger.check(
                f"config {cfg_id} digest equals the recorded one",
                digest == self.expected["log_digests"][str(cfg_id)],
                digest,
            )
        self.ledger.check(
            "report equals the recorded one",
            _sha256(report_csv) == self.expected["report_csv_sha256"],
        )


class Matrix(Workload):
    """``schoolsim matrix``: nine configs with run directories, then reports."""

    name = "matrix"
    checkpoints = True

    def setup(self, target: Path) -> None:
        self.fixture = Fixture(target / "fixture", self.seed)

    def iterate(self, index: int, on_run) -> Sample:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        sample = Sample()
        reports = []
        failures = {}
        written = wchar()
        started = time.perf_counter()
        for cfg in config.config_matrix():
            on_run(f"{self.name}/it{index}/config-{cfg.id}")
            run_dir = out / f"config-{cfg.id}" if self.checkpoints else None
            try:
                roles = self.fixture.roles()
                provider = self.fixture.provider()
                t0 = time.perf_counter()
                log = simulation.run_simulation(
                    self.fixture.dataset, roles, provider, cfg,
                    seed=self.seed, out_dir=run_dir,
                )
                t1 = time.perf_counter()
                reports.append(evaluation.evaluate_run(log, self.fixture.dataset))
                t2 = time.perf_counter()
            except Exception:
                self.ledger.error(f"iteration {index} config {cfg.id}")
                failures[cfg.id] = "failed"
                continue
            self.ledger.check(f"iteration {index} config {cfg.id}", True)
            sample.outputs[cfg.id] = log
            sample.sim_s += t1 - t0
            sample.score_s += t2 - t1
            sample.steps += len(log.entries)
            sample.pairs += self.fixture.dataset.qa_count
        report_csv = evaluation.render_matrix_report(reports, format="csv", failures=failures)
        if self.checkpoints:
            out.mkdir(parents=True, exist_ok=True)
            report_md = evaluation.render_matrix_report(
                reports, format="markdown", failures=failures
            )
            (out / "report.csv").write_text(report_csv, encoding="utf-8")
            (out / "report.md").write_text(report_md, encoding="utf-8")
        sample.wall_s = time.perf_counter() - started
        sample.written_bytes = wchar() - written
        sample.outputs["report"] = report_csv
        return sample

    def record(self, sample: Sample) -> None:
        self.reports.append(sample.outputs.pop("report"))
        self.digests.append({cfg_id: log.digest() for cfg_id, log in sample.outputs.items()})
        sample.outputs.clear()

    def _check_stable(self) -> None:
        for i, (digests, report) in enumerate(zip(self.digests, self.reports)):
            self.ledger.check(
                f"iteration {i} reproduces iteration 0",
                digests == self.digests[0] and report == self.reports[0],
            )

    def verify(self) -> None:
        self._check_stable()
        digests, report_csv = inmemory_matrix(self.fixture, self.seed, self.ledger)
        for cfg_id, digest in self.digests[-1].items():
            self.ledger.check(
                f"config {cfg_id} checkpointed digest equals the in-memory one",
                digest == digests.get(cfg_id),
            )
            run_dir = self.work / "out" / f"config-{cfg_id}"
            on_disk = (run_dir / simulation.LOG_FILENAME).read_text(encoding="utf-8")
            self.ledger.check(
                f"config {cfg_id} log.jsonl hashes to its digest",
                _sha256(on_disk) == digest,
            )
        report_file = (self.work / "out" / "report.csv").read_text(encoding="utf-8")
        self.ledger.check(
            "report.csv equals the render of the in-memory reports",
            report_file == report_csv,
        )
        self._check_recorded(digests, report_csv)


class MatrixInMemory(Matrix):
    """The same nine configs without run directories: no checkpoint I/O."""

    name = "matrix_inmem"
    checkpoints = False

    def verify(self) -> None:
        self._check_stable()
        self._check_recorded(self.digests[0], self.reports[0])


class _AbortAtAction(Provider):
    """Passes calls through, raising at action call number ``abort_at``.

    Action calls are the prompts that are neither memory nor role updates;
    there is exactly one per step.
    """

    def __init__(self, inner: Provider, abort_at: int):
        self.inner = inner
        self.name = inner.name
        self.abort_at = abort_at
        self.actions = 0

    def complete(self, messages, params=None) -> str:
        content = messages[-1].content
        if not content.startswith((MEMORY_UPDATE_HEADER, ROLE_UPDATE_HEADER)):
            if self.actions == self.abort_at:
                raise ProviderError("benchmark abort before the final slot")
            self.actions += 1
        return self.inner.complete(messages, params)


class Resume(Workload):
    """Resume each config from a copy of its run aborted in the final slot."""

    name = "resume"

    def setup(self, target: Path) -> None:
        self.fixture = Fixture(target / "fixture", self.seed)
        steps = self.fixture.dataset.steps
        final = steps[-1].time.ordinal
        self.abort_at = abort_at = sum(1 for step in steps if step.time.ordinal != final)
        self.aborted = []  # (config, run directory)
        for cfg in config.config_matrix():
            run_dir = target / "aborted" / f"config-{cfg.id}"
            try:
                simulation.run_simulation(
                    self.fixture.dataset, self.fixture.roles(),
                    _AbortAtAction(self.fixture.provider(), abort_at), cfg,
                    seed=self.seed, out_dir=run_dir,
                )
            except ProviderError:
                self.aborted.append((cfg, run_dir))
            else:
                self.ledger.check(f"config {cfg.id} aborts in the final slot", False)

    def iterate(self, index: int, on_run) -> Sample:
        sample = Sample()
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        for cfg, aborted in self.aborted:
            run_dir = out / f"config-{cfg.id}"
            shutil.copytree(aborted, run_dir)
            on_run(f"{self.name}/it{index}/config-{cfg.id}")
            written = wchar()
            t0 = time.perf_counter()
            try:
                roles = self.fixture.roles()
                provider = self.fixture.provider()
                t1 = time.perf_counter()
                log = simulation.run_simulation(
                    self.fixture.dataset, roles, provider, cfg,
                    seed=self.seed, out_dir=run_dir, resume=True,
                )
                t2 = time.perf_counter()
            except Exception:
                self.ledger.error(f"iteration {index} resume config {cfg.id}")
                continue
            sample.written_bytes += wchar() - written
            self.ledger.check(f"iteration {index} resume config {cfg.id}", True)
            sample.wall_s += t2 - t0
            sample.sim_s += t2 - t1
            sample.steps += len(log.entries) - self.abort_at  # simulated, not restored
            sample.outputs[cfg.id] = log
        return sample

    def record(self, sample: Sample) -> None:
        self.digests.append({cfg_id: log.digest() for cfg_id, log in sample.outputs.items()})
        sample.outputs.clear()

    def verify(self) -> None:
        digests, report_csv = inmemory_matrix(self.fixture, self.seed, self.ledger)
        for i, resumed in enumerate(self.digests):
            for cfg_id, digest in resumed.items():
                self.ledger.check(
                    f"iteration {i} resumed config {cfg_id} equals the uninterrupted run",
                    digest == digests.get(cfg_id),
                )
        self._check_recorded(digests, report_csv)


# score_cjk: synthetic Chinese response/reference pairs.

_CJK_PUNCTUATION = "，。、；？！"


def make_cjk_pairs(seed: int, n_pairs: int = CJK_PAIRS) -> tuple[list[str], list[str]]:
    """Seeded (responses, references); references are 100-300 CJK characters
    with sparse punctuation, responses are edits of them."""
    rng = random.Random(f"score_cjk:{seed}")
    alphabet = [chr(0x4E00 + code) for code in rng.sample(range(0x5000), 800)]
    # Zipf-like character frequencies, as in running text.
    cum_weights = []
    total = 0.0
    for rank in range(len(alphabet)):
        total += 1.0 / (rank + 1)
        cum_weights.append(total)

    def chars(k: int) -> list[str]:
        return rng.choices(alphabet, cum_weights=cum_weights, k=k)

    responses = []
    references = []
    for _ in range(n_pairs):
        reference = []
        for ch in chars(rng.randint(100, 300)):
            reference.append(ch)
            if rng.random() < 0.05:
                reference.append(rng.choice(_CJK_PUNCTUATION))
        edit_rate = rng.uniform(0.05, 0.4)
        response = []
        for ch in reference:
            roll = rng.random()
            if roll < edit_rate / 3:
                continue  # deletion
            response.append(chars(1)[0] if roll < 2 * edit_rate / 3 else ch)
            if rng.random() < edit_rate / 3:
                response.extend(chars(1))  # insertion
        references.append("".join(reference))
        responses.append("".join(response))
    return responses, references


def expected_cjk_tokens(text: str) -> list[str]:
    """Metric tokens of a generated text, which holds no whitespace: one per
    CJK character and one per run of punctuation between them, with the
    punctuation at either end dropped."""
    return re.findall(r"[\u4e00-\u9fff]|[^\u4e00-\u9fff]+", text.strip(_CJK_PUNCTUATION))


def lcs_reference(x: list[str], y: list[str]) -> int:
    """Textbook LCS-length DP, kept independent of the package's kernels."""
    previous = [0] * (len(y) + 1)
    for a in x:
        current = [0]
        for j, b in enumerate(y):
            current.append(previous[j] + 1 if a == b else max(previous[j + 1], current[j]))
        previous = current
    return previous[-1]


class ScoreCJK(Workload):
    """``score_responses`` over one log's worth of long CJK pairs."""

    name = "score_cjk"

    def setup(self, target: Path) -> None:
        self.responses, self.references = make_cjk_pairs(self.seed)

    def iterate(self, index: int, on_run) -> Sample:
        on_run(f"{self.name}/it{index}")
        started = time.perf_counter()
        try:
            report = evaluation.score_responses(self.responses, self.references, config_id=0)
        except Exception:
            self.ledger.error(f"iteration {index} score_responses")
            return Sample(wall_s=time.perf_counter() - started)
        elapsed = time.perf_counter() - started
        self.ledger.check(f"iteration {index} score_responses", True)
        return Sample(
            wall_s=elapsed, score_s=elapsed, pairs=len(self.references),
            outputs={"report": report},
        )

    def record(self, sample: Sample) -> None:
        if "report" in sample.outputs:
            self.reports.append(
                evaluation.render_matrix_report([sample.outputs.pop("report")], format="csv")
            )

    def verify(self) -> None:
        for i, report in enumerate(self.reports):
            self.ledger.check(f"iteration {i} reproduces iteration 0", report == self.reports[0])
        rng = random.Random(f"score_cjk-sample:{self.seed}")
        for index in rng.sample(range(len(self.references)), CJK_SAMPLE):
            response, reference = self.responses[index], self.references[index]
            x, y = expected_cjk_tokens(response), expected_cjk_tokens(reference)
            self.ledger.check(
                f"pair {index} tokens",
                evaluation.tokenize(response) == x and evaluation.tokenize(reference) == y,
            )
            got = evaluation.rouge_l(response, reference).lcs_len
            want = lcs_reference(x, y)
            self.ledger.check(f"pair {index} LCS length", got == want, f"{got} != {want}")
        if self.expected is not None and self.reports:
            self.ledger.check(
                "score_cjk report equals the recorded one",
                _sha256(self.reports[0]) == self.expected["score_cjk_report_sha256"],
            )


WORKLOADS = {cls.name: cls for cls in (Matrix, MatrixInMemory, ScoreCJK, Resume)}
