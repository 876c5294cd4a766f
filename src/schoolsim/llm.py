"""Chat-completion provider abstraction.

A run asks its provider through ``Provider.respond(request)``; a ``Request``
names its kind, its dataset step and its messages. ``respond`` defaults to
``complete(request.messages)``, the one method every provider must define.

Ships the deterministic offline ``ScriptedProvider`` and a generic HTTP
client for any endpoint speaking the common chat-completions shape; the
replay and memory-gated providers live in ``simulation`` and ``fixtures``.
Remote calls are retried with exponential backoff on timeouts and 5xx; 4xx
responses are terminal.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import ProviderHTTPError, ProviderTimeout, ScriptMissError

logger = logging.getLogger(__name__)

ROLES = ("system", "user", "assistant")


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown message role: {self.role!r}")
        if not self.content or not self.content.strip():
            raise ValueError("message content must be non-empty")

    def as_dict(self) -> dict[str, str]:
        return {"role": self.role, "content": self.content}


def validate_messages(messages: Sequence[ChatMessage]) -> None:
    """A sequence may start with at most one system message, none later."""
    for i, message in enumerate(messages):
        if message.role == "system" and i > 0:
            raise ValueError(f"system message at position {i}; only position 0 allowed")


@dataclass(frozen=True)
class GenParams:
    """Sampling parameters recorded in run metadata."""

    temperature: float = 0.7
    max_tokens: int | None = None
    seed: int | None = None


@dataclass(frozen=True)
class Request:
    """One provider call of a step: its kind ("action", "update" or
    "role_update"), the dataset step it belongs to, and its messages."""

    kind: str
    step_index: int
    messages: list[ChatMessage]


class Provider(ABC):
    """Behavior contract: complete(messages, params) -> text."""

    name: str = "provider"
    # How many calls a run may have in flight: 1 for an in-process provider.
    jobs: int = 1

    @abstractmethod
    def complete(
        self, messages: Sequence[ChatMessage], params: GenParams | None = None
    ) -> str: ...

    def respond(self, request: Request, params: GenParams | None = None) -> str:
        """The answer to one request of a run: by default, to its messages."""
        return self.complete(request.messages, params)


def last_user_content(messages: Sequence[ChatMessage]) -> str:
    for message in reversed(messages):
        if message.role == "user":
            return message.content
    raise ValueError("message sequence has no user message")


class ScriptedProvider(Provider):
    """Pure function of (script, final user message): an exact-match map."""

    def __init__(
        self,
        script: Mapping[str, str],
        fallback: str | None = None,
        name: str = "scripted",
    ):
        self.script = dict(script)
        self.fallback = fallback
        self.name = name

    def complete(
        self, messages: Sequence[ChatMessage], params: GenParams | None = None
    ) -> str:
        validate_messages(messages)
        key = last_user_content(messages)
        try:
            return self.script[key]
        except KeyError:
            if self.fallback is not None:
                return self.fallback
            raise ScriptMissError(f"no script entry for key {key[:120]!r}") from None

    @classmethod
    def from_file(cls, path: str | Path, name: str = "scripted") -> "ScriptedProvider":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("a script file holds a JSON object")
        return cls(data.get("script", data), fallback=data.get("fallback"), name=name)


class HttpProvider(Provider):
    """Client for a chat-completions style HTTP endpoint.

    Request: POST ``{base_url}`` with ``{"model", "messages", "temperature",
    "max_tokens", "seed"}``. The response may carry the generated text either
    as ``{"text": ...}`` or in the ``choices[0].message.content`` shape.
    The API key is read from the named environment variable, never from
    config file contents. A run sends up to ``jobs`` requests at once.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        auth_env: str | None = None,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 1.0,
        name: str | None = None,
        jobs: int = 1,
    ):
        self.base_url = base_url
        self.model = model
        self.auth_env = auth_env
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.name = name or f"http:{model}"
        self.jobs = jobs

    def _headers(self) -> dict[str, str]:
        import os

        headers = {"Content-Type": "application/json"}
        if self.auth_env:
            key = os.environ.get(self.auth_env, "")
            if key:
                headers["Authorization"] = f"Bearer {key}"
        return headers

    @staticmethod
    def _extract_text(payload: dict) -> str:
        if "text" in payload:
            return payload["text"]
        return payload["choices"][0]["message"]["content"]

    def complete(
        self, messages: Sequence[ChatMessage], params: GenParams | None = None
    ) -> str:
        import requests

        validate_messages(messages)
        params = params or GenParams()
        body = {
            "model": self.model,
            "messages": [m.as_dict() for m in messages],
            "temperature": params.temperature,
        }
        if params.max_tokens is not None:
            body["max_tokens"] = params.max_tokens
        if params.seed is not None:
            body["seed"] = params.seed
        encoded = json.dumps(body, sort_keys=True, ensure_ascii=False)
        request_hash = hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]

        last_error: Exception | None = None
        for attempt in range(self.max_retries):
            started = time.monotonic()
            try:
                resp = requests.post(
                    self.base_url,
                    data=encoded.encode("utf-8"),
                    headers=self._headers(),
                    timeout=self.timeout,
                )
            except requests.Timeout as exc:
                last_error = ProviderTimeout(
                    f"timeout after {self.timeout}s (attempt {attempt + 1})"
                )
                logger.warning("%s: %s", self.name, last_error)
            except requests.RequestException as exc:
                last_error = ProviderHTTPError(f"transport failure: {exc}")
                logger.warning("%s: %s", self.name, last_error)
            else:
                latency = time.monotonic() - started
                if resp.status_code >= 500:
                    last_error = ProviderHTTPError(
                        f"server error {resp.status_code}", status=resp.status_code
                    )
                    logger.warning("%s: %s", self.name, last_error)
                elif resp.status_code >= 400:
                    raise ProviderHTTPError(
                        f"client error {resp.status_code}: {resp.text[:200]}",
                        status=resp.status_code,
                    )
                else:
                    payload = resp.json()
                    usage = payload.get("usage", {})
                    logger.info(
                        "%s: request=%s latency=%.3fs tokens=%s",
                        self.name,
                        request_hash,
                        latency,
                        usage or "n/a",
                    )
                    return self._extract_text(payload)
            if attempt + 1 < self.max_retries:
                time.sleep(self.backoff * (2**attempt))
        assert last_error is not None
        raise last_error
