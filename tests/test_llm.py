import sys
import threading

import numpy as np
import pytest

from clara.corpus import Session
from clara.llm import (
    BackendUnavailable,
    BudgetExceeded,
    CompletionRequest,
    HttpBackend,
    MalformedResponse,
    MockBackend,
    NoRuleMatched,
    UnknownSession,
    complete,
    gold_oracle_backend,
)


def request(*messages):
    return CompletionRequest(messages=tuple(messages))


class TestCompletionRequest:
    def test_role_validation(self):
        with pytest.raises(ValueError):
            request(("narrator", "hi"))

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            CompletionRequest(messages=(("user", "hi"),), temperature=-0.1)

    def test_needs_messages(self):
        with pytest.raises(ValueError):
            CompletionRequest(messages=())


class TestMockBackend:
    def test_first_rule_wins(self):
        backend = MockBackend(
            rules=[("cancel", "Cancel Order"), ("cancel my", "Other")],
            default="Track Package",
        )
        assert complete(request(("user", "please cancel my order")), backend) == "Cancel Order"

    def test_default(self):
        backend = MockBackend(rules=[("cancel", "Cancel Order")], default="Fallback")
        assert complete(request(("user", "where is it")), backend) == "Fallback"

    def test_deterministic(self):
        backend = MockBackend(rules=[("cancel", "Cancel Order")], default="Fallback")
        req = request(("user", "cancel this"))
        assert complete(req, backend) == complete(req, backend)

    def test_predicate_matcher(self):
        backend = MockBackend(rules=[(lambda text: text.count("USER") > 1, "multi")], default="one")
        assert complete(request(("user", "a"), ("user", "b")), backend) == "multi"
        assert complete(request(("user", "a")), backend) == "one"

    def test_no_rule_no_default(self):
        backend = MockBackend(rules=[("x", "y")])
        with pytest.raises(NoRuleMatched):
            complete(request(("user", "zzz")), backend)

    def test_request_not_mutated(self):
        backend = MockBackend(default="ok")
        req = request(("user", "hello"))
        before = req.messages
        complete(req, backend)
        assert req.messages == before


class TestHttpBackend:
    def test_successful_completion(self, http_server, server_url):
        def respond(path, body, headers):
            assert path == "/v1/chat/completions"
            assert body["temperature"] == 0.0
            return 200, {"choices": [{"message": {"content": "Cancel Order"}}]}

        http_server.respond = respond
        backend = HttpBackend(server_url + "/v1", model="test-model")
        assert complete(request(("user", "cancel")), backend) == "Cancel Order"

    def test_auth_failure_carries_status(self, http_server, server_url):
        http_server.respond = lambda path, body, headers: (401, {"error": "bad key"})
        backend = HttpBackend(server_url + "/v1", model="m", api_key="wrong")
        with pytest.raises(BackendUnavailable) as exc:
            backend.complete(request(("user", "hi")))
        assert exc.value.status == 401

    def test_unreachable(self):
        backend = HttpBackend("http://127.0.0.1:1", model="m", timeout=0.2, retries=0)
        with pytest.raises(BackendUnavailable):
            backend.complete(request(("user", "hi")))

    def test_malformed_payload(self, http_server, server_url):
        http_server.respond = lambda path, body, headers: (200, {"choices": []})
        backend = HttpBackend(server_url, model="m")
        with pytest.raises(MalformedResponse):
            backend.complete(request(("user", "hi")))

    def test_budget(self, http_server, server_url):
        http_server.respond = lambda path, body, headers: (
            200,
            {"choices": [{"message": {"content": "ok"}}]},
        )
        backend = HttpBackend(server_url, model="m", request_budget=2)
        backend.complete(request(("user", "1")))
        backend.complete(request(("user", "2")))
        with pytest.raises(BudgetExceeded):
            backend.complete(request(("user", "3")))

    def test_budget_holds_across_threads(self, http_server, server_url):
        served = []

        def respond(path, body, headers):
            served.append(body["messages"][0]["content"])
            return 200, {"choices": [{"message": {"content": "ok"}}]}

        http_server.respond = respond
        budget, n_threads, calls_per_thread = 5, 8, 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                served.clear()
                backend = HttpBackend(server_url, model="m", request_budget=budget)
                outcomes = []
                start = threading.Barrier(n_threads)

                def worker():
                    start.wait(timeout=10)
                    for _ in range(calls_per_thread):
                        try:
                            outcomes.append(backend.complete(request(("user", "hi"))))
                        except BudgetExceeded:
                            outcomes.append(None)

                threads = [threading.Thread(target=worker) for _ in range(n_threads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert len(served) == budget
                assert outcomes.count("ok") == budget
                assert outcomes.count(None) == n_threads * calls_per_thread - budget
        finally:
            sys.setswitchinterval(interval)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("CLARA_LLM_ENDPOINT", raising=False)
        monkeypatch.delenv("CLARA_LLM_MODEL", raising=False)
        with pytest.raises(BackendUnavailable):
            HttpBackend.from_env()
        monkeypatch.setenv("CLARA_LLM_ENDPOINT", "http://example.invalid")
        monkeypatch.setenv("CLARA_LLM_MODEL", "m")
        backend = HttpBackend.from_env()
        assert backend.endpoint == "http://example.invalid"


def oracle_sessions(taxonomy, n, seed=0):
    rng = np.random.default_rng(seed)
    ids = [i.id for i in taxonomy.intents]
    sessions = []
    for j in range(n):
        gold = ids[int(rng.integers(len(ids)))]
        sessions.append(
            Session(f"os-{j:05d}", (f"first turn {j}", f"final turn {j}"), gold_intent=gold)
        )
    return sessions


def prompt_for(session, demo_texts):
    messages = [("system", "preamble")]
    for text in demo_texts:
        messages.append(("user", text))
        messages.append(("assistant", "The intent title is X."))
    for turn in session.turns:
        messages.append(("user", turn))
    messages.append(("assistant", "The intent title is "))
    return request(*messages)


class TestGoldOracle:
    def test_clean_oracle_answers_gold(self, small_taxonomy):
        sessions = oracle_sessions(small_taxonomy, 10)
        backend = gold_oracle_backend(sessions, small_taxonomy)
        for session in sessions:
            answer = backend.complete(prompt_for(session, ["demo a", "demo b"]))
            surface = small_taxonomy.intent(session.gold_intent).label_surface()
            assert answer == surface

    def test_full_sensitivity_flips_on_reversal(self, small_taxonomy):
        sessions = oracle_sessions(small_taxonomy, 30)
        backend = gold_oracle_backend(sessions, small_taxonomy, ordering_sensitivity=1.0)
        demos = ["demo one", "demo two", "demo three"]
        for session in sessions:
            forward = backend.complete(prompt_for(session, demos))
            backward = backend.complete(prompt_for(session, list(reversed(demos))))
            assert forward != backward

    def test_single_demo_stays_consistent(self, small_taxonomy):
        sessions = oracle_sessions(small_taxonomy, 10)
        backend = gold_oracle_backend(sessions, small_taxonomy, ordering_sensitivity=1.0)
        for session in sessions:
            a = backend.complete(prompt_for(session, ["only demo"]))
            b = backend.complete(prompt_for(session, ["only demo"]))
            assert a == b

    def test_noise_is_consistent_and_wrong(self, small_taxonomy):
        sessions = oracle_sessions(small_taxonomy, 40)
        backend = gold_oracle_backend(sessions, small_taxonomy, noise_rate=1.0)
        demos = ["demo one", "demo two"]
        for session in sessions:
            forward = backend.complete(prompt_for(session, demos))
            backward = backend.complete(prompt_for(session, list(reversed(demos))))
            assert forward == backward
            surface = small_taxonomy.intent(session.gold_intent).label_surface()
            assert forward != surface

    def test_planted_fraction(self, small_taxonomy):
        sessions = oracle_sessions(small_taxonomy, 5000)
        backend = gold_oracle_backend(sessions, small_taxonomy, ordering_sensitivity=0.12, seed=3)
        fraction = sum(backend.is_order_sensitive(s.id) for s in sessions) / len(sessions)
        assert fraction == pytest.approx(0.12, abs=0.01)

    def test_deterministic_across_instances(self, small_taxonomy):
        sessions = oracle_sessions(small_taxonomy, 20)
        first = gold_oracle_backend(sessions, small_taxonomy, 0.2, 0.3, seed=5, typo_rate=0.5)
        second = gold_oracle_backend(sessions, small_taxonomy, 0.2, 0.3, seed=5, typo_rate=0.5)
        demos = ["d1", "d2"]
        for session in sessions:
            req = prompt_for(session, demos)
            assert first.complete(req) == second.complete(req)

    def test_unknown_session(self, small_taxonomy):
        backend = gold_oracle_backend(oracle_sessions(small_taxonomy, 3), small_taxonomy)
        req = request(("user", "never seen this turn"), ("assistant", "The intent title is "))
        with pytest.raises(UnknownSession):
            backend.complete(req)

    def test_numbered_block_units(self, small_taxonomy):
        # formatted-style prompts carry demos as one numbered block
        sessions = oracle_sessions(small_taxonomy, 20)
        backend = gold_oracle_backend(sessions, small_taxonomy, ordering_sensitivity=1.0)
        for session in sessions:
            block_fwd = 'intro\n1. "a" -> X\n2. "b" -> Y\n3. "c" -> Z\nend'
            block_rev = 'intro\n1. "c" -> Z\n2. "b" -> Y\n3. "a" -> X\nend'
            fwd = backend.complete(prompt_for(session, [block_fwd]))
            rev = backend.complete(prompt_for(session, [block_rev]))
            assert fwd != rev
