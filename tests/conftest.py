import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from clara.taxonomy import Intent, Taxonomy


@pytest.fixture
def small_taxonomy():
    intents = [
        Intent(
            id="I1",
            title="Cara membatalkan pesanan",
            category_path=("Logistics", "Order", "Cancellation"),
            rep_query="how do i cancel my order",
            compressed_label="Cancel Order",
            language="id",
        ),
        Intent(
            id="I2",
            title="Track Package",
            category_path=("Logistics", "Shipping", "Tracking"),
            rep_query="where is my package right now",
            compressed_label="Track Package",
            language="en",
        ),
        Intent(
            id="I3",
            title="Refund Status",
            category_path=("Payments", "Refunds", "Status"),
            rep_query="when will i get my refund",
            compressed_label="Refund Status",
            language="en",
        ),
    ]
    return Taxonomy(intents)


class _CannedHandler(BaseHTTPRequestHandler):
    server_version = "canned/0"

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        status, payload = self.server.respond(self.path, body, dict(self.headers))
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    """A local HTTP server answering with a pluggable respond(path, body, headers)."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CannedHandler)
    server.respond = lambda path, body, headers: (200, {})
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def server_url(http_server):
    host, port = http_server.server_address
    return f"http://{host}:{port}"
