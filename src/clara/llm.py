"""Chat-completion backends: OpenAI-compatible HTTP, scripted mock, gold oracle.

All backends implement ``complete(request) -> str`` and return only the
generated continuation.  Decoding is greedy at temperature 0.  The gold
oracle answers with a session's planted gold label and can inject two kinds
of controlled errors: consistently wrong answers (which survive the
self-consistency filter by design) and ordering-dependent answers (which the
filter is built to catch).
"""

from __future__ import annotations

import os
import re
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np
import requests

from .corpus import Session
from .errors import ClaraError
from .prompts import format_messages
from .taxonomy import Taxonomy

ROLES = ("system", "user", "assistant")

ENV_ENDPOINT = "CLARA_LLM_ENDPOINT"
ENV_API_KEY = "CLARA_LLM_API_KEY"
ENV_MODEL = "CLARA_LLM_MODEL"

DEFAULT_MAX_TOKENS = 16
DEFAULT_TIMEOUT = 60.0
DEFAULT_RETRIES = 2


class BackendUnavailable(ClaraError):
    """Transport, auth, or server failure; carries the HTTP status when known."""

    def __init__(self, message: str, status: int | None = None):
        self.status = status
        super().__init__(message)


class BudgetExceeded(ClaraError):
    """The configured request cap has been spent."""


class MalformedResponse(ClaraError):
    """The backend answered something that is not a chat completion."""


class NoRuleMatched(ClaraError):
    """A mock script had no rule for the prompt and no default response."""


class UnknownSession(ClaraError):
    """The gold oracle could not match the prompt to any known session."""


@dataclass(frozen=True)
class CompletionRequest:
    messages: tuple[tuple[str, str], ...]
    max_tokens: int = DEFAULT_MAX_TOKENS
    temperature: float = 0.0

    def __post_init__(self):
        if not self.messages:
            raise ValueError("request has no messages")
        for role, _ in self.messages:
            if role not in ROLES:
                raise ValueError(f"unknown message role {role!r}")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")

    @property
    def text(self) -> str:
        return format_messages(self.messages)


class Backend(Protocol):
    def complete(self, request: CompletionRequest) -> str: ...


def complete(request: CompletionRequest, backend: Backend) -> str:
    """Run one completion against the given backend."""
    return backend.complete(request)


# -- scripted mock -------------------------------------------------------------


Matcher = Callable[[str], bool]


@dataclass
class MockBackend:
    """Deterministic test double: first matching rule wins.

    Rules are (matcher, response) pairs where the matcher is a substring or
    a predicate over the flattened prompt text.  A pure function of the
    prompt; safe to share across threads.
    """

    rules: list[tuple[str | Matcher, str]] = field(default_factory=list)
    default: str | None = None

    def complete(self, request: CompletionRequest) -> str:
        prompt = request.text
        for matcher, response in self.rules:
            if callable(matcher):
                if matcher(prompt):
                    return response
            elif matcher in prompt:
                return response
        if self.default is not None:
            return self.default
        raise NoRuleMatched("no mock rule matched the prompt and no default is set")


# -- live OpenAI-compatible endpoint -------------------------------------------


class HttpBackend:
    """POSTs to {endpoint}/chat/completions with the standard JSON body."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        backoff: float = 1.0,
        request_budget: int | None = None,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.request_budget = request_budget
        self._spent = 0
        self._spent_lock = threading.Lock()

    @classmethod
    def from_env(cls, **kwargs) -> "HttpBackend":
        endpoint = os.environ.get(ENV_ENDPOINT)
        model = os.environ.get(ENV_MODEL)
        if not endpoint or not model:
            raise BackendUnavailable(
                f"set {ENV_ENDPOINT} and {ENV_MODEL} to use the live backend"
            )
        return cls(endpoint, model, api_key=os.environ.get(ENV_API_KEY), **kwargs)

    def complete(self, request: CompletionRequest) -> str:
        with self._spent_lock:
            if self.request_budget is not None and self._spent >= self.request_budget:
                raise BudgetExceeded(f"request budget of {self.request_budget} spent")
            self._spent += 1

        body = {
            "model": self.model,
            "messages": [{"role": r, "content": c} for r, c in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                response = requests.post(
                    f"{self.endpoint}/chat/completions",
                    json=body,
                    headers=headers,
                    timeout=self.timeout,
                )
            except requests.RequestException as exc:
                last_error = exc
                if attempt < self.retries:
                    time.sleep(self.backoff * 2**attempt)
                continue
            if response.status_code != 200:
                raise BackendUnavailable(
                    f"chat completion returned HTTP {response.status_code}",
                    status=response.status_code,
                )
            try:
                content = response.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise MalformedResponse(f"unexpected completion payload: {exc}") from exc
            if not isinstance(content, str):
                raise MalformedResponse("completion content is not a string")
            return content
        raise BackendUnavailable(f"chat completion unreachable: {last_error}")


# -- gold oracle ----------------------------------------------------------------

_NUMBERED_LINE = re.compile(r"(?m)^\s*\d+[.)]\s+(.*)$")


def _unit_float(*parts: int) -> float:
    """Deterministic hash of integers into [0, 1)."""
    h = 2166136261
    for part in parts:
        h = (h ^ (part & 0xFFFFFFFF)) * 16777619 & 0xFFFFFFFF
        h = (h ^ (part >> 32 & 0xFFFFFFFF)) * 16777619 & 0xFFFFFFFF
    return h / 2**32


class GoldOracleBackend:
    """Answers with the prompt session's gold label, with plantable errors.

    Built over a set of gold-annotated sessions: a prompt is matched to its
    session by the trailing user messages (the session turns).  Per session,
    seeded draws decide its behaviour:

    * with probability ``noise_rate`` the answer is a uniformly chosen wrong
      label, identical for every demonstration ordering;
    * otherwise, with probability ``ordering_sensitivity`` the answer flips
      between the gold and a wrong label depending on how the demonstrations
      are arranged, so any two prompts whose demonstration sequences are
      reverses of each other are guaranteed to disagree;
    * otherwise the gold label.

    With probability ``typo_rate`` (per prompt) one character is dropped from
    the answer, exercising fuzzy label resolution downstream.  Responses are
    a pure function of the prompt, deterministic given the seed and session.
    """

    def __init__(
        self,
        sessions: Sequence[Session],
        taxonomy: Taxonomy,
        noise_rate: float = 0.0,
        ordering_sensitivity: float = 0.0,
        seed: int = 0,
        typo_rate: float = 0.0,
    ):
        if not 0.0 <= noise_rate <= 1.0:
            raise ValueError("noise_rate must be in [0, 1]")
        if not 0.0 <= ordering_sensitivity <= 1.0:
            raise ValueError("ordering_sensitivity must be in [0, 1]")
        if not 0.0 <= typo_rate <= 1.0:
            raise ValueError("typo_rate must be in [0, 1]")
        self.noise_rate = noise_rate
        self.ordering_sensitivity = ordering_sensitivity
        self.typo_rate = typo_rate
        self.seed = seed
        self._taxonomy = taxonomy
        self._surfaces = [
            (intent.id, intent.label_surface())
            for intent in sorted(taxonomy.intents, key=lambda it: it.id)
        ]
        self._by_turns: dict[tuple[str, ...], Session] = {}
        for session in sessions:
            if session.gold_intent is None:
                raise ValueError(f"session {session.id!r} has no gold intent")
            self._by_turns[tuple(session.turns)] = session
        self._turn_counts = sorted({len(t) for t in self._by_turns}, reverse=True)

    def _session_rng(self, session_id: str) -> np.random.Generator:
        return np.random.default_rng(
            [self.seed & (1 << 63) - 1, zlib.crc32(session_id.encode("utf-8"))]
        )

    def _draws(self, session_id: str) -> tuple[float, float, int]:
        rng = self._session_rng(session_id)
        u_noise = float(rng.random())
        u_order = float(rng.random())
        wrong_pick = int(rng.integers(max(len(self._surfaces) - 1, 1)))
        return u_noise, u_order, wrong_pick

    def is_noisy(self, session_id: str) -> bool:
        return self._draws(session_id)[0] < self.noise_rate

    def is_order_sensitive(self, session_id: str) -> bool:
        u_noise, u_order, _ = self._draws(session_id)
        return u_noise >= self.noise_rate and u_order < self.ordering_sensitivity

    def _wrong_surface(self, session: Session) -> str:
        _, _, pick = self._draws(session.id)
        pool = [s for iid, s in self._surfaces if iid != session.gold_intent]
        if not pool:
            return self._surfaces[0][1]
        return pool[pick % len(pool)]

    def _match_session(self, user_messages: list[str]) -> tuple[Session, int]:
        for n in self._turn_counts:
            if n <= len(user_messages):
                session = self._by_turns.get(tuple(user_messages[-n:]))
                if session is not None:
                    return session, n
        raise UnknownSession("prompt does not end with any known session's turns")

    @staticmethod
    def _demo_units(demo_messages: list[str]) -> tuple[str, ...]:
        if len(demo_messages) == 1:
            numbered = _NUMBERED_LINE.findall(demo_messages[0])
            if numbered:
                return tuple(numbered)
        return tuple(demo_messages)

    def complete(self, request: CompletionRequest) -> str:
        users = [content for role, content in request.messages if role == "user"]
        session, n_turns = self._match_session(users)
        gold_surface = self._taxonomy.intent(session.gold_intent).label_surface()

        u_noise, u_order, _ = self._draws(session.id)
        if u_noise < self.noise_rate:
            answer = self._wrong_surface(session)
        elif u_order < self.ordering_sensitivity:
            units = self._demo_units(users[: len(users) - n_turns])
            # Reversed demonstration sequences land on opposite branches, so
            # ascending and descending prompts always disagree when they differ.
            if units <= tuple(reversed(units)):
                answer = gold_surface
            else:
                answer = self._wrong_surface(session)
        else:
            answer = gold_surface

        if self.typo_rate > 0.0:
            h = zlib.crc32(request.text.encode("utf-8"))
            if _unit_float(self.seed, h) < self.typo_rate:
                answer = _drop_character(answer, h)
        return answer


def _drop_character(text: str, h: int) -> str:
    if len(text) >= 3:
        pos = h % len(text)
        return text[:pos] + text[pos + 1 :]
    return text + "x"


def gold_oracle_backend(
    sessions: Sequence[Session],
    taxonomy: Taxonomy,
    noise_rate: float = 0.0,
    ordering_sensitivity: float = 0.0,
    seed: int = 0,
    typo_rate: float = 0.0,
) -> GoldOracleBackend:
    """Factory for the desk-scale oracle backend used in tests and ablations."""
    return GoldOracleBackend(
        sessions,
        taxonomy,
        noise_rate=noise_rate,
        ordering_sensitivity=ordering_sensitivity,
        seed=seed,
        typo_rate=typo_rate,
    )
