"""Every function in ``src/schoolsim`` is reached by some command.

A child process turns on a profiler for every thread (``sys.setprofile``
and ``threading.setprofile``) before it imports ``schoolsim``. It then runs
each command of the CLI on a one-day fixture of three agents:

- ``gen-dataset`` and ``validate``;
- a fresh ``run`` under the memory-gated provider;
- a ``run`` under ``--config-file`` and a ``scripted:`` provider;
- ``replay`` with ``--jobs 2``;
- an HTTP run with ``--jobs 2`` against a stub on 127.0.0.1. The stub refuses
  one call, so the run aborts; then the run is resumed with ``--resume``;
- ``matrix``, and ``evaluate`` in both formats;
- ``export-human-eval`` and ``tally-human-eval``;
- ``gen-roles`` for both kinds, through the stub.

The child writes the code it saw called to a file. The test lists every
``def`` in the package with ``ast``, and fails on each one that no command
reached and that ``ALLOWED`` does not name. A function that only tests call
belongs in ``tests/``; one that nothing calls should be deleted. An
``ALLOWED`` entry that a command reaches, or that no longer exists, fails
too, so the list stays short.

To see what the commands reach, run ``python tests/test_reachability.py DIR``
with ``schoolsim`` importable; it writes ``DIR/reached.json``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

# "module:qualname" of each def that no command reaches, and why it stays.
ALLOWED = {
    # Abstract methods: the classes that implement them are reached.
    "embedding:Embedder.embed": "a Protocol method; HashedBagEmbedder.embed runs",
    "llm:Provider.complete": "abstract; every provider defines its own",
    "simulation:ReplayBundle.complete": "defined since Provider.complete is abstract; "
    "a replay answers by step, so it refuses a bare prompt",
    # Error constructors of inputs that the commands here do not break.
    "errors:RecordValueError.__init__": "raised on a journal record of the wrong type",
    "errors:RoleParseError.__init__": "raised on a role file or profile missing a field",
    "errors:MissingFieldError.__init__": "raised on a memory update that lacks a field",
    "errors:WrongTypeError.__init__": "raised on a memory update field of the wrong type",
    "errors:SchemaError.__init__": "raised on a malformed transcript file",
    "simulation:_wrong_shape": "builds the error for a malformed checkpoint line",
    # The batch kernel runs only on pairs of all-character (CJK) texts; the
    # fixture is English. perfbench's score_cjk workload reaches it.
    "_kernels:_segment_bytes": "CJK batch kernel",
    "_kernels:_codes": "CJK batch kernel",
    "_kernels:_number": "CJK batch kernel",
    "_kernels:_chunk_lcs": "CJK batch kernel",
    # perfbench calls or traces these by name, and may not change here.
    "_kernels:active_backend": "perfbench records it in every result",
    "simulation:InteractionLog.to_jsonl": "perfbench traces it as log_serialize",
    "simulation:InteractionLog.digest": "perfbench checks each run's digest with it",
    "evaluation:tokenize": "perfbench traces it and checks score_cjk's tokens with it",
    "evaluation:rouge_l": "perfbench's score_cjk check, and the tests' per-pair oracle",
    # Data for the behaviour-fidelity report that ROADMAP item 7 plans.
    "environment:load_reference_action_stats": "the shipped per-category counts",
    # The store's test API: a run inserts through apply_update and reads
    # records through retrieve.
    "memory:MemoryStore.insert": "inserts one record, checked, for the tests",
    "memory:MemoryStore.records": "the tests read a store's records",
    "memory:MemoryStore.short_term_ids": "the tests read a store's short-term tier",
}

# What the stub answers to each kind of prompt.
_UPDATE = {
    "long_term_experience_updates": ["Saw the class work through a problem."],
    "long_term_knowledge_updates": ["Fractions add over a common denominator."],
    "short_term_experience_content": ["Spoke with a classmate."],
    "short_term_knowledge_content": ["The next lesson is in the library."],
}


def _serve(refuse: dict) -> str:
    """Start a chat-completions stub on 127.0.0.1 and return its URL. While
    ``refuse["at"]`` is a number, action call number ``refuse["at"]``
    (counted from 0) gets a 400."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    from schoolsim.agent import STUDENT_FIELDS, TEACHER_FIELDS
    from schoolsim.prompts import (
        MEMORY_UPDATE_HEADER,
        ROLE_GENERATION_HEADER,
        ROLE_UPDATE_HEADER,
    )

    fields = dict.fromkeys([*TEACHER_FIELDS, *STUDENT_FIELDS])
    profile = "\n".join(f"{name}: given" for name in fields)
    lock = threading.Lock()
    actions = [0]

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):  # noqa: N802
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            messages = body["messages"]
            last = messages[-1]["content"]
            if last.startswith(MEMORY_UPDATE_HEADER):
                text = json.dumps(_UPDATE)
            elif last.startswith(ROLE_UPDATE_HEADER):
                text = "Grew more patient with questions."
            elif last.startswith(ROLE_GENERATION_HEADER):
                text = profile
            else:
                with lock:
                    number = actions[0]
                    actions[0] += 1
                if number == refuse.get("at"):
                    self.send_response(400)
                    self.end_headers()
                    self.wfile.write(b"refused")
                    return
                teacher = "Role: Teacher" in messages[0]["content"]
                label = "Teaching Practice" if teacher else "Classroom Learning"
                text = f"We work through the lesson.\nACTION: {label}\nMOVE: Library"
            encoded = json.dumps({"text": text}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(encoded)))
            self.end_headers()
            self.wfile.write(encoded)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return f"http://127.0.0.1:{server.server_port}/chat"


def _run_commands(work: Path) -> None:
    """Run every command on a fresh fixture under ``work``."""
    from click.testing import CliRunner

    from schoolsim.cli import main

    runner = CliRunner()

    def invoke(*args: str, code: int = 0) -> str:
        result = runner.invoke(main, [str(arg) for arg in args])
        assert result.exit_code == code, (args, result.output, result.exception)
        return result.output

    fx = work / "fx"
    invoke("gen-dataset", "--out", fx, "--teachers", 1, "--students", 2, "--days", 1)
    invoke("validate", "--dataset", fx)
    dataset = ("--dataset", fx)
    invoke("run", *dataset, "--config-id", 1, "--provider", "memory-gated", "--out", work / "gated")

    config = work / "config.txt"
    config.write_text(
        "id = 10\neb_enabled = true\nkb_enabled = false\n"
        "base_structure = unified\nstlt_enabled = true\n"
    )
    script = work / "script.json"
    # A Chinese answer, so that evaluate tokenises text that is not ASCII.
    script.write_text(json.dumps({"script": {}, "fallback": "我们一起读书，讨论问题。"}))
    invoke("run", *dataset, "--config-file", config, "--provider", f"scripted:{script}",
           "--out", work / "scripted")
    invoke("run", *dataset, "--config-id", 2, "--provider", "replay", "--jobs", 2,
           "--out", work / "replay")

    refuse = {"at": 10}
    providers = work / "providers.ini"
    providers.write_text(f"[stub]\nurl = {_serve(refuse)}\nmodel = stub\nmax_retries = 1\n")
    remote = ("--provider", "stub", "--providers-file", providers)
    http = ("run", *dataset, "--config-id", 3, *remote, "--jobs", 2, "--out", work / "http")
    assert "run aborted" in invoke(*http, code=1)
    refuse.clear()
    invoke("--log-level", "INFO", *http, "--resume")

    invoke("matrix", *dataset, "--provider", "memory-gated", "--out", work / "matrix",
           "--interval", 10)
    invoke("evaluate", "--log", work / "scripted" / "log.jsonl", *dataset)
    log = work / "gated" / "log.jsonl"
    invoke("evaluate", "--log", log, *dataset, "--format", "markdown", "--out", work / "e.md")
    key = work / "key.json"
    invoke("export-human-eval", "--log", f"1={log}", "--log", f"2={work / 'replay' / 'log.jsonl'}",
           "--include-reference", *dataset, "--out", work / "blocks.jsonl", "--key", key)
    votes = work / "votes.json"
    votes.write_text(json.dumps(dict.fromkeys(json.loads(key.read_text())["blocks"], 0)))
    invoke("tally-human-eval", "--key", key, "--votes", votes)
    invoke("gen-roles", "--kind", "teacher", "--subject", "Math", *remote, "--out", work / "roles")
    invoke("gen-roles", "--kind", "student", *remote, "--out", work / "roles")


def _child(work: Path) -> None:
    """Profile every thread, import schoolsim, run the commands, and write
    each function of the package that was called to ``work/reached.json``."""
    called: set = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        import schoolsim

        _run_commands(work)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    package = os.path.dirname(os.path.realpath(schoolsim.__file__))
    reached = sorted(
        (os.path.realpath(code.co_filename), code.co_name, code.co_firstlineno)
        for code in called
        if os.path.dirname(os.path.realpath(code.co_filename)) == package
    )
    (work / "reached.json").write_text(json.dumps(reached))


def _defined(package: Path) -> dict[str, tuple[str, str, set[int]]]:
    """Each def of the package by "module:qualname": its file, its name and
    the lines its code may start at (the def's, or a decorator's)."""
    found = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                lines = {child.lineno, *(d.lineno for d in child.decorator_list)}
                found[f"{path.stem}:{name}"] = (str(path), child.name, lines)
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.resolve(), "")
    return found


def test_every_function_is_reached_by_a_command(tmp_path):
    import schoolsim

    package = Path(schoolsim.__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))
    started = time.perf_counter()
    child = subprocess.run(
        [sys.executable, __file__, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert time.perf_counter() - started < 15
    reached = {tuple(item) for item in json.loads((tmp_path / "reached.json").read_text())}
    unreached = {
        qualname
        for qualname, (file, name, lines) in _defined(package).items()
        if not any((file, name, line) in reached for line in lines)
    }
    missing = sorted(unreached - ALLOWED.keys())
    assert not missing, f"no command reaches {', '.join(missing)}"
    stale = sorted(ALLOWED.keys() - unreached)
    assert not stale, f"ALLOWED names what a command reaches or no file defines: {', '.join(stale)}"


if __name__ == "__main__":
    _child(Path(sys.argv[1]))
