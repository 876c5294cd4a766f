"""The benchmark tracer (``perfbench/spans.py``) patches schoolsim functions
and methods by name; renaming or deleting one of them must fail here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from conftest import load_roles_dir
from schoolsim import simulation
from schoolsim.config import config_by_id
from schoolsim.errors import ProviderError
from schoolsim.fixtures import MemoryGatedProvider
from schoolsim.llm import Provider
from schoolsim.simulation import Simulation

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_traced_name_and_restores_it(
    mini_dataset, mini_roles, gated_provider
):
    spans = _load_spans()
    names = [(owner, attribute) for owner, attribute, _span, _hook in spans._TRACED]
    before = [vars(owner)[attribute] for owner, attribute in names]
    tracer = spans.Tracer()
    with tracer.installed():
        patched = [vars(owner)[attribute] for owner, attribute in names]
        mark = tracer.mark()
        Simulation(mini_dataset, mini_roles, gated_provider, config_by_id(1), seed=0).run()
    after = [vars(owner)[attribute] for owner, attribute in names]
    assert all(old is not new for old, new in zip(before, patched))
    assert all(old is new for old, new in zip(before, after))
    # The step cycle still calls the patched names.
    calls, _own, _counts = tracer.totals(mark)
    steps = mini_dataset.qa_count
    assert calls["simulation.step_agent"] == steps
    assert calls["agent.assemble_prompt"] == steps
    assert calls["simulation.parse_update"] == steps


class _FailAt(Provider):
    """Passes calls through to ``inner`` and raises at call number ``fail_at``."""

    def __init__(self, inner: Provider, fail_at: int):
        self.inner = inner
        self.name = inner.name
        self.calls_left = fail_at

    def complete(self, messages, params=None):
        if not self.calls_left:
            raise ProviderError("synthetic outage")
        self.calls_left -= 1
        return self.inner.complete(messages, params)


def test_tracer_sees_both_sides_of_a_checkpoint(
    tmp_path, mini_dataset, mini_roles, mini_fixture, gated_provider
):
    # The benchmark's resume workload times these four; each must still be
    # reached through the name the tracer patches.
    spans = _load_spans()
    tracer = spans.Tracer()
    out = tmp_path / "run"
    config = config_by_id(1)
    with tracer.installed():
        mark = tracer.mark()
        with pytest.raises(ProviderError):
            simulation.run_simulation(
                mini_dataset, mini_roles, _FailAt(gated_provider, mini_dataset.qa_count),
                config, seed=0, out_dir=out,
            )
        simulation.run_simulation(
            mini_dataset, load_roles_dir(mini_fixture.roles_dir),
            MemoryGatedProvider.from_file(mini_fixture.script_path),
            config, seed=0, out_dir=out, resume=True,
        )
    calls, _own, _counts = tracer.totals(mark)
    for name in (
        "memory.save",
        "memory.load",
        "simulation.save_checkpoint",
        "simulation.restore_checkpoint",
    ):
        assert calls[name] > 0, name
    assert calls["memory.load"] == len(mini_dataset.agent_ids)
    assert calls["simulation.restore_checkpoint"] == 1
