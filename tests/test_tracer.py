"""The benchmark tracer (``perfbench/spans.py``) patches schoolsim functions
and methods by name; renaming or deleting one of them must fail here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from schoolsim.config import config_by_id
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
