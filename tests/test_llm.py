from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from schoolsim.errors import ProviderError, ProviderHTTPError, ScriptMissError
from schoolsim.llm import (
    ChatMessage,
    GenParams,
    HttpProvider,
    Request,
    ScriptedProvider,
    validate_messages,
)
from schoolsim.simulation import ReplayBundle


def user(text: str) -> list[ChatMessage]:
    return [ChatMessage("user", text)]


def test_message_validation():
    with pytest.raises(ValueError):
        ChatMessage("narrator", "hello")
    with pytest.raises(ValueError):
        ChatMessage("user", "   ")
    with pytest.raises(ValueError):
        validate_messages([ChatMessage("user", "hi"), ChatMessage("system", "late")])


def test_scripted_exact_match():
    provider = ScriptedProvider({"Q1": "A1"})
    assert provider.complete(user("Q1")) == "A1"


def test_scripted_miss_with_fallback():
    provider = ScriptedProvider({"Q1": "A1"}, fallback="(idle)")
    assert provider.complete(user("something else")) == "(idle)"


def test_scripted_miss_without_fallback():
    provider = ScriptedProvider({})
    with pytest.raises(ScriptMissError):
        provider.complete(user("unknown"))


def test_scripted_key_derives_from_final_user_message():
    provider = ScriptedProvider({"Q2": "A2"})
    messages = [
        ChatMessage("system", "role text"),
        ChatMessage("user", "Q1"),
        ChatMessage("assistant", "A1"),
        ChatMessage("user", "Q2"),
    ]
    assert provider.complete(messages) == "A2"


def test_scripted_determinism():
    provider = ScriptedProvider({"Q": "A"}, fallback="F")
    outputs = {provider.complete(user("Q")) for _ in range(5)}
    assert outputs == {"A"}


def test_replay_answers_by_step_and_refuses_a_bare_prompt():
    provider = ReplayBundle(["a0", "b1", "a2"])
    # The answer is the step's, in any order and as often as it is asked.
    got = [provider.respond(Request("action", i, user("q"))) for i in (2, 0, 1, 2)]
    assert got == ["a2", "a0", "b1", "a2"]
    with pytest.raises(ProviderError, match="bare prompt"):
        provider.complete([ChatMessage("system", "Agent ID: t01"), *user("q")])


class _FlakyHandler(BaseHTTPRequestHandler):
    failures_left = 0
    status_when_failing = 500
    requests_seen: list[dict] = []

    def do_POST(self):  # noqa: N802
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(body)
        if type(self).failures_left > 0:
            type(self).failures_left -= 1
            self.send_response(type(self).status_when_failing)
            self.end_headers()
            self.wfile.write(b"boom")
            return
        payload = {
            "choices": [{"message": {"content": f"echo:{body['messages'][-1]['content']}"}}],
            "usage": {"prompt_tokens": 3, "completion_tokens": 2},
        }
        encoded = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(encoded)

    def log_message(self, *args):
        pass


@pytest.fixture()
def flaky_server():
    _FlakyHandler.failures_left = 0
    _FlakyHandler.status_when_failing = 500
    _FlakyHandler.requests_seen = []
    server = HTTPServer(("127.0.0.1", 0), _FlakyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/chat"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_http_provider_happy_path(flaky_server):
    provider = HttpProvider(flaky_server, model="m", backoff=0.01)
    out = provider.complete(user("ping"), GenParams(temperature=0.2, max_tokens=8, seed=3))
    assert out == "echo:ping"
    sent = _FlakyHandler.requests_seen[-1]
    assert sent["model"] == "m"
    assert sent["temperature"] == 0.2
    assert sent["max_tokens"] == 8
    assert sent["seed"] == 3
    assert sent["messages"] == [{"role": "user", "content": "ping"}]


def test_http_provider_retries_5xx_then_succeeds(flaky_server):
    _FlakyHandler.failures_left = 2
    provider = HttpProvider(flaky_server, model="m", backoff=0.01)
    assert provider.complete(user("ping")) == "echo:ping"
    assert len(_FlakyHandler.requests_seen) == 3


def test_http_provider_gives_up_after_retry_budget(flaky_server):
    _FlakyHandler.failures_left = 99
    provider = HttpProvider(flaky_server, model="m", max_retries=3, backoff=0.01)
    with pytest.raises(ProviderHTTPError):
        provider.complete(user("ping"))
    assert len(_FlakyHandler.requests_seen) == 3


def test_http_provider_4xx_is_terminal(flaky_server):
    _FlakyHandler.failures_left = 99
    _FlakyHandler.status_when_failing = 403
    provider = HttpProvider(flaky_server, model="m", max_retries=3, backoff=0.01)
    with pytest.raises(ProviderHTTPError) as excinfo:
        provider.complete(user("ping"))
    assert excinfo.value.status == 403
    assert len(_FlakyHandler.requests_seen) == 1
