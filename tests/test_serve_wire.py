"""What a ``repro.serve`` client sees on the socket.

* Keep-alive latency: on one persistent connection a reply arrives
  without waiting for the client's delayed ACK (TCP_NODELAY), so a cheap
  request costs well under the ~40 ms a Nagle stall adds.
* The stdlib's own error paths (unsupported verbs, an unparsable request
  line) answer with structured JSON, never the HTML error page.
* A chunked request body is refused with a structured 411 and the
  connection is closed, instead of its chunks being parsed as requests.
"""

import http.client
import json
import socket
import statistics
import time

from repro.serve import ERROR_SCHEMA

from tests.serve_utils import NOMINAL_CONFIG, live_server

#: Median keep-alive round trip allowed; a Nagle/delayed-ACK stall alone
#: is ~40 ms on Linux.
MEDIAN_LIMIT_S = 0.020
ROUND_TRIPS = 20


def _median_round_trip(client, method, path, body=None):
    conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
    headers = {"Content-Type": "application/json"} if body else {}
    times = []
    try:
        for _ in range(ROUND_TRIPS):
            started = time.perf_counter()
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            payload = resp.read()
            times.append(time.perf_counter() - started)
            assert resp.status == 200, payload
            assert resp.getheader("Connection") != "close"
    finally:
        conn.close()
    return statistics.median(times)


def _raw_exchange(client, data):
    """Send ``data`` on a fresh socket; return everything read to EOF."""
    with socket.create_connection((client.host, client.port),
                                  timeout=30) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _parse_responses(raw, head=False):
    """Split a byte stream into ``(status, headers, body)`` responses."""
    responses = []
    while raw:
        head_bytes, sep, raw = raw.partition(b"\r\n\r\n")
        assert sep, f"response without a header terminator: {head_bytes!r}"
        status_line, *lines = head_bytes.decode("latin-1").split("\r\n")
        assert status_line.startswith("HTTP/1.1 "), status_line
        headers = dict(line.split(": ", 1) for line in lines)
        length = 0 if head else int(headers["Content-Length"])
        responses.append((int(status_line.split()[1]), headers,
                          raw[:length]))
        raw = raw[length:]
    return responses


def _assert_error_doc(body, code):
    doc = json.loads(body)
    assert doc["schema"] == ERROR_SCHEMA
    assert doc["error"]["code"] == code
    assert set(doc["error"]) <= {"code", "message", "field"}


class TestKeepAliveLatency:
    def test_health_round_trip(self, tmp_path):
        with live_server(tmp_path) as (_, client):
            median = _median_round_trip(client, "GET", "/v1/health")
        assert median < MEDIAN_LIMIT_S, f"median {median * 1e3:.1f} ms"

    def test_evaluate_round_trip(self, tmp_path):
        body = json.dumps({"config": NOMINAL_CONFIG}).encode("utf-8")
        with live_server(tmp_path, window_s=0.005) as (_, client):
            median = _median_round_trip(client, "POST", "/v1/evaluate",
                                        body=body)
        assert median < MEDIAN_LIMIT_S, f"median {median * 1e3:.1f} ms"


class TestStdlibErrorPaths:
    def test_options_gets_json_501(self, tmp_path):
        with live_server(tmp_path) as (_, client):
            raw = _raw_exchange(client, b"OPTIONS /v1/health HTTP/1.1\r\n"
                                        b"Host: x\r\n\r\n")
        [(status, headers, body)] = _parse_responses(raw)
        assert status == 501
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"
        _assert_error_doc(body, "not-implemented")

    def test_head_gets_json_501_headers_without_body(self, tmp_path):
        with live_server(tmp_path) as (_, client):
            raw = _raw_exchange(client, b"HEAD /v1/health HTTP/1.1\r\n"
                                        b"Host: x\r\n\r\n")
        [(status, headers, body)] = _parse_responses(raw, head=True)
        assert status == 501
        assert headers["Content-Type"] == "application/json"
        assert int(headers["Content-Length"]) > 0
        assert body == b""

    def test_malformed_request_line_gets_json_400(self, tmp_path):
        with live_server(tmp_path) as (_, client):
            raw = _raw_exchange(client, b"GARBAGE\r\n\r\n")
        [(status, headers, body)] = _parse_responses(raw)
        assert status == 400
        assert headers["Content-Type"] == "application/json"
        _assert_error_doc(body, "bad-request")


class TestChunkedBody:
    def test_chunked_post_gets_411_and_close(self, tmp_path):
        payload = json.dumps({"config": NOMINAL_CONFIG}).encode("utf-8")
        request = (b"POST /v1/evaluate HTTP/1.1\r\nHost: x\r\n"
                   b"Content-Type: application/json\r\n"
                   b"Transfer-Encoding: chunked\r\n\r\n"
                   + b"%x\r\n" % len(payload) + payload + b"\r\n0\r\n\r\n"
                   + b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n")
        with live_server(tmp_path) as (_, client):
            raw = _raw_exchange(client, request)
            # One structured refusal, then EOF: no chunk line answered as
            # a request of its own.
            [(status, headers, body)] = _parse_responses(raw)
            assert status == 411
            assert headers["Connection"] == "close"
            _assert_error_doc(body, "length-required")
            # The server itself is unharmed.
            assert client.get("/v1/health")[0] == 200
