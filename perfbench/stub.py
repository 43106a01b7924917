"""HTTP stub for the ``live`` workload: an LLM and an embedding service.

Run as its own process so its request handling does not share the measuring
process's interpreter lock.  It serves two ports on 127.0.0.1:

* completions: OpenAI-compatible ``POST .../chat/completions``, answered by
  ``llm.GoldOracleBackend`` over the given knowledge base and sessions;
* embeddings:  ``POST`` ``{"texts": [...]}`` -> ``{"embeddings": [[...]]}``,
  answered by ``retrieval.HashedTrigramEmbedder``.  Floats go out as
  ``repr`` digits, so they round-trip exactly through JSON.

Each answer is held back until a fixed service delay has passed since the
request arrived; the delay stands in for model latency.  ``GET /stats`` on
either port returns that server's count of connections that carried a
``POST``, its request count and its per-request service times.  Both servers speak HTTP/1.1,
so a client that reuses connections is counted as doing so.

The process prints ``PORTS <completions> <embeddings>`` once it listens and
exits when its standard input closes, so it cannot outlive its parent.

Usage: python3 stub.py --kb KB --sessions SESSIONS --seed N
           [--noise-rate R] [--ordering-sensitivity R] [--typo-rate R]
           [--dimension D] [--completion-delay-ms MS] [--embed-delay-ms MS]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import requests  # noqa: E402

from clara import compress, corpus, llm, retrieval, taxonomy  # noqa: E402

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, answer, delay_s: float):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.answer = answer  # parsed JSON body -> JSON-serialisable reply
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self.service_ms: list[float] = []

    def stats(self) -> dict:
        with self.lock:
            return {
                "connections": self.connections,
                "requests": self.requests,
                "service_ms": list(self.service_ms),
            }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StubServer

    def setup(self):
        super().setup()
        self.posted = False  # one handler instance serves one connection

    def log_message(self, format, *args):  # noqa: A002 - BaseHTTPRequestHandler's signature
        pass

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/stats":
            self._send(200, self.server.stats())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        started = time.perf_counter()
        length = int(self.headers.get("Content-Length", 0))
        try:
            reply = self.server.answer(json.loads(self.rfile.read(length)))
        except Exception as exc:  # noqa: BLE001 - report any failure to the client
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        remaining = self.server.delay_s - (time.perf_counter() - started)
        if remaining > 0:
            time.sleep(remaining)
        with self.server.lock:
            self.server.connections += not self.posted
            self.server.requests += 1
            self.server.service_ms.append((time.perf_counter() - started) * 1e3)
        self.posted = True
        self._send(200, reply)


def completion_answerer(oracle: llm.GoldOracleBackend):
    def answer(body: dict) -> dict:
        request = llm.CompletionRequest(
            messages=tuple((m["role"], m["content"]) for m in body["messages"]),
            max_tokens=int(body.get("max_tokens", llm.DEFAULT_MAX_TOKENS)),
            temperature=float(body.get("temperature", 0.0)),
        )
        content = oracle.complete(request)
        return {"choices": [{"index": 0, "message": {"role": "assistant", "content": content}}]}

    return answer


def embedding_answerer(embedder: retrieval.HashedTrigramEmbedder):
    def answer(body: dict) -> dict:
        return {"embeddings": [embedder.embed(text).tolist() for text in body["texts"]]}

    return answer


def build_oracle(args) -> llm.GoldOracleBackend:
    """The oracle answers with label surfaces after the loop's own compression."""
    tax = taxonomy.load_taxonomy(args.kb)
    compressed, _ = compress.compress_all(tax, retrieval.HashedTrigramEmbedder(args.dimension))
    return llm.gold_oracle_backend(
        corpus.load_sessions(args.sessions),
        compressed,
        noise_rate=args.noise_rate,
        ordering_sensitivity=args.ordering_sensitivity,
        seed=args.seed,
        typo_rate=args.typo_rate,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kb", required=True)
    parser.add_argument("--sessions", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--noise-rate", type=float, default=0.0)
    parser.add_argument("--ordering-sensitivity", type=float, default=0.0)
    parser.add_argument("--typo-rate", type=float, default=0.0)
    parser.add_argument("--dimension", type=int, default=64)
    parser.add_argument("--completion-delay-ms", type=float, default=0.0)
    parser.add_argument("--embed-delay-ms", type=float, default=0.0)
    args = parser.parse_args(argv)

    servers = [
        StubServer(completion_answerer(build_oracle(args)), args.completion_delay_ms / 1e3),
        StubServer(
            embedding_answerer(retrieval.HashedTrigramEmbedder(args.dimension)),
            args.embed_delay_ms / 1e3,
        ),
    ]
    threads = [threading.Thread(target=s.serve_forever, daemon=True) for s in servers]
    for thread in threads:
        thread.start()
    print("PORTS", *(s.server_address[1] for s in servers), flush=True)
    try:
        sys.stdin.read()  # returns when the parent closes the pipe or dies
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()
    return 0


# -- client side ------------------------------------------------------------------


@dataclass(frozen=True)
class Endpoints:
    completions: str  # base URL for llm.HttpBackend
    embeddings: str  # URL for retrieval.RemoteEmbedder

    def stats(self) -> dict:
        """Counts and service times of both servers, keyed "llm" and "retrieval"."""
        return {
            "llm": _get_stats(self.completions.rsplit("/", 1)[0]),
            "retrieval": _get_stats(self.embeddings.rsplit("/", 1)[0]),
        }


def _get_stats(base: str) -> dict:
    response = requests.get(f"{base}/stats", timeout=START_TIMEOUT_S)
    response.raise_for_status()
    return response.json()


@contextmanager
def running(stub_args: list[str]):
    """Start the stub process, yield its Endpoints, and always stop it."""
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *stub_args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready: list[str] = []
        reader = threading.Thread(target=lambda: ready.append(proc.stdout.readline()), daemon=True)
        reader.start()
        reader.join(START_TIMEOUT_S)
        fields = ready[0].split() if ready else []
        if len(fields) != 3 or fields[0] != "PORTS":
            raise RuntimeError(f"stub did not start (exit code {proc.poll()})")
        llm_port, embed_port = fields[1:]
        yield Endpoints(
            completions=f"http://127.0.0.1:{llm_port}/v1",
            embeddings=f"http://127.0.0.1:{embed_port}/embed",
        )
    finally:
        proc.stdin.close()
        try:
            proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


if __name__ == "__main__":
    sys.exit(main())
