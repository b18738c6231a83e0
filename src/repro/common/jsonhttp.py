"""The JSON request handler both HTTP surfaces are built on.

The coordinator's REST API (:mod:`repro.service.rest`) and the gateway's
operations surface (:mod:`repro.gateway.server`) answer with JSON objects
and read bounded JSON-object request bodies; :class:`JsonHandler` holds
that plumbing once, and each surface adds only its routes and its
error-to-status mapping.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler
from typing import Any, ClassVar, Dict

__all__ = ["JsonHandler"]


class JsonHandler(BaseHTTPRequestHandler):
    """Replies with JSON and reads bounded JSON-object request bodies."""

    protocol_version = "HTTP/1.1"

    #: Largest accepted request body, in bytes.  A control request (a
    #: campaign spec, an ack) is a few KB, so anything beyond this is a
    #: client error (or abuse), not a legitimate request.
    max_body_bytes: ClassVar[int] = 4 * 1024 * 1024

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr chatter; each surface keeps its own
        event log and metrics."""

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        self._reply_text(status, json.dumps(payload), "application/json")

    def _reply_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    def _body(self) -> Dict[str, Any]:
        """The request body as a JSON object; ``ValueError`` when malformed.

        The declared length is checked before reading: a negative one would
        make ``rfile.read`` block until the client hangs up, and an
        oversized one is refused without buffering it.
        """
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:
            raise ValueError(f"negative Content-Length {length}")
        if length > self.max_body_bytes:
            raise ValueError(f"request body exceeds {self.max_body_bytes} bytes")
        if length == 0:
            return {}
        payload = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload
