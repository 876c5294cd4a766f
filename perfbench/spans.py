"""In-memory spans around schoolsim's layer boundaries, and the per-layer
metrics derived from them.

Tracing wraps functions and methods of the imported package for the length
of a ``with tracer.installed():`` block and restores the originals on exit;
nothing under ``src/`` changes. Each span records its name, start and end
(``perf_counter_ns``), the index of its parent span and the id of the config
run it belongs to. A layer's self time is its span's duration minus the
durations of its direct children; the benchmark runs single-threaded, so
children never overlap.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from pathlib import Path

from schoolsim import _kernels, dataset, embedding, evaluation, fixtures, memory, simulation
from schoolsim.memory import RetrievalPolicy


def wchar() -> int:
    """Bytes this process has passed to write calls so far (Linux)."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def _retrieve_counts(counts, args, kwargs, result) -> None:
    store = args[0]
    policy = args[2] if len(args) > 2 else kwargs.get("policy") or RetrievalPolicy()
    counts["memory.records_scanned"] += store.long_term_size()
    counts["memory.retrieved"] += len(result)
    counts["memory.retrieve_budget"] += policy.k_short + policy.k_long


def _update_counts(counts, args, kwargs, result) -> None:
    counts["memory.inserts"] += sum(
        n for key, n in result.items() if not key.startswith("skipped_")
    )


def _prompt_counts(counts, args, kwargs, result) -> None:
    counts["agent.prompt_chars"] += sum(len(message.content) for message in result)


def _token_counts(counts, args, kwargs, result) -> None:
    counts["evaluation.tokens"] += len(result)


def _lcs_counts(counts, args, kwargs, result) -> None:
    counts["kernels.lcs_cells"] += len(args[0]) * len(args[1])


# (owner, attribute, span name, counter hook). Module attributes are patched
# where the caller looks them up: simulation.py imports assemble_prompt and
# calls parse_memory_update by its module-global name, and rouge_l calls
# _kernels.lcs_length through the package module.
_TRACED = (
    (fixtures, "build_fixture", "fixtures.build", None),
    (dataset, "load_standard_group", "dataset.load", None),
    (dataset.Dataset, "digest", "dataset.digest", None),
    (simulation, "run_simulation", "run_simulation", None),
    (simulation.Simulation, "step_agent", "simulation.step_agent", None),
    (simulation.Simulation, "save_checkpoint", "simulation.save_checkpoint", None),
    (simulation.Simulation, "restore_checkpoint", "simulation.restore_checkpoint", None),
    (simulation.Simulation, "_write_outputs", "simulation.write_outputs", None),
    (simulation.InteractionLog, "to_jsonl", "simulation.log_serialize", None),
    (simulation, "parse_memory_update", "simulation.parse_update", None),
    (simulation, "assemble_prompt", "agent.assemble_prompt", _prompt_counts),
    (memory.MemoryStore, "retrieve", "memory.retrieve", _retrieve_counts),
    (memory.MemoryStore, "apply_update", "memory.apply_update", _update_counts),
    (memory.MemoryStore, "save", "memory.save", None),
    (memory.MemoryStore, "load", "memory.load", None),
    (embedding.HashedBagEmbedder, "embed", "embedding.embed", None),
    (fixtures.MemoryGatedProvider, "complete", "llm.complete", None),
    (evaluation, "evaluate_run", "evaluation.evaluate_run", None),
    (evaluation, "score_responses", "evaluation.score", None),
    (evaluation, "tokenize", "evaluation.tokenize", _token_counts),
    (_kernels, "lcs_length", "kernels.lcs", _lcs_counts),
)

# Spans whose written bytes are counted (wchar before and after the call).
_METERED = {"simulation.save_checkpoint": "simulation.checkpoint_written_bytes"}


class Tracer:
    """Collects spans and counters while installed; one per benchmark run."""

    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent index or -1, run id)
        self.spans: list[tuple[str, int, int, int, str]] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []

    def set_run(self, run_id: str) -> None:
        self.run_id = run_id

    def _wrap(self, fn, name: str, hook):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        meter = _METERED.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            run_id = self.run_id
            written = wchar() if meter else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, run_id)
                if meter:
                    counts[meter] += wchar() - written
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced boundary; restore the originals on exit."""
        saved = []
        try:
            for owner, attribute, name, hook in _TRACED:
                raw = vars(owner)[attribute]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, name, hook))
                else:
                    patched = self._wrap(raw, name, hook)
                saved.append((owner, attribute, raw))
                setattr(owner, attribute, patched)
            yield self
        finally:
            for owner, attribute, raw in reversed(saved):
                setattr(owner, attribute, raw)

    def mark(self) -> tuple[int, Counter]:
        return len(self.spans), Counter(self.counts)

    def totals(self, since: tuple[int, Counter]) -> tuple[Counter, Counter, Counter]:
        """Calls, self seconds and counters since ``since``."""
        first, counts_before = since
        spans = self.spans[first:]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _run in spans:
            if parent >= first:
                child_ns[parent - first] += end - start
        calls: Counter = Counter()
        own: Counter = Counter()
        for i, (name, start, end, _parent, _run) in enumerate(spans):
            calls[name] += 1
            own[name] += (end - start - child_ns[i]) / 1e9
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        return calls, own, counts

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, run_id in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "run": run_id}
                    )
                    + "\n"
                )


def layer_metrics(calls: Counter, own: Counter, counts: Counter) -> dict:
    """Per-layer metrics of one traced iteration (``_s`` values are self time)."""
    cells = counts["kernels.lcs_cells"]
    budget = counts["memory.retrieve_budget"]
    return {
        "simulation.save_checkpoint_calls": calls["simulation.save_checkpoint"],
        "simulation.save_checkpoint_s": own["simulation.save_checkpoint"],
        "simulation.checkpoint_written_mb": counts["simulation.checkpoint_written_bytes"] / 1e6,
        "simulation.log_serialize_calls": calls["simulation.log_serialize"],
        "simulation.log_serialize_s": own["simulation.log_serialize"],
        "simulation.write_outputs_s": own["simulation.write_outputs"],
        "memory.save_calls": calls["memory.save"],
        "memory.save_s": own["memory.save"],
        "memory.load_calls": calls["memory.load"],
        "memory.load_s": own["memory.load"],
        "simulation.restore_checkpoint_s": own["simulation.restore_checkpoint"],
        "dataset.digest_calls": calls["dataset.digest"],
        "dataset.digest_s": own["dataset.digest"],
        "memory.retrieve_calls": calls["memory.retrieve"],
        "memory.retrieve_s": own["memory.retrieve"],
        "memory.records_scanned": counts["memory.records_scanned"],
        "memory.retrieve_fill": counts["memory.retrieved"] / budget if budget else 0.0,
        "memory.apply_update_calls": calls["memory.apply_update"],
        "memory.apply_update_s": own["memory.apply_update"],
        "memory.inserts": counts["memory.inserts"],
        "embedding.embed_calls": calls["embedding.embed"],
        "embedding.embed_s": own["embedding.embed"],
        "agent.assemble_prompt_s": own["agent.assemble_prompt"],
        "agent.prompt_chars": counts["agent.prompt_chars"],
        "llm.complete_calls": calls["llm.complete"],
        "llm.complete_s": own["llm.complete"],
        "simulation.parse_update_s": own["simulation.parse_update"],
        "simulation.parse_failures": counts["simulation.parse_update.errors"],
        "simulation.steps": calls["simulation.step_agent"],
        "simulation.step_agent_s": own["simulation.step_agent"],
        "evaluation.tokenize_calls": calls["evaluation.tokenize"],
        "evaluation.tokenize_s": own["evaluation.tokenize"],
        "evaluation.tokens": counts["evaluation.tokens"],
        "evaluation.score_s": own["evaluation.score"],
        "kernels.lcs_calls": calls["kernels.lcs"],
        "kernels.lcs_s": own["kernels.lcs"],
        "kernels.lcs_cells": cells,
        "kernels.ns_per_cell": own["kernels.lcs"] * 1e9 / cells if cells else 0.0,
    }
