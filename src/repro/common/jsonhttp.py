"""The JSON-over-HTTP transport both HTTP surfaces share.

The coordinator (:mod:`repro.service.rest`, :mod:`repro.service.client`)
and the gateway's operations surface (:mod:`repro.gateway.server`,
:mod:`repro.gateway.client`) speak one contract, held here once.  Replies
are JSON (``/metrics`` is Prometheus text); a refusal is a 4xx with an
``{"error": message}`` body.  :class:`JsonHandler` maps what a surface's
routes raise onto a status through that surface's ``error_status`` table,
bounds a request body in size and time, and ends a hung-up connection
silently; :class:`JsonServer` owns the server's lifecycle.
:class:`JsonClient` maps a status back onto the surface's exception and a
transport failure onto its ``*UnavailableError``, fires the fault seam
``<fault_prefix>.<op>`` and retries only idempotent calls.

Error mapping — what the server raises, the status it answers, and what
the client raises for that status::

    coordinator  CampaignIncompleteError   409  CampaignIncompleteError
                 ConfigurationError        400  ServiceError
                 ServiceError              404  ServiceError
                 (unreachable)                  ServiceUnavailableError
    gateway      StreamRejectedError       409  StreamRejectedError
                 UnknownStreamError        404  UnknownStreamError
                 GatewayError,             400  GatewayError
                 ConfigurationError
                 (pool full, /ready)       503  StreamRejectedError
                 (unreachable)                  GatewayUnavailableError
    both         malformed request         400
                 stalled request body      408
                 an unlisted exception     500
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, ClassVar, Dict, Mapping, Optional, Tuple, Type

from repro import faults
from repro.common.retry import RetryPolicy

__all__ = ["HttpError", "JsonClient", "JsonHandler", "JsonServer"]

#: A peer that hung up or stalled mid-request: nobody is left to answer.
_HANGUPS = (BrokenPipeError, ConnectionResetError, TimeoutError)


class HttpError(Exception):
    """A refused request, with the status to answer.  The connection then
    closes: a refused body leaves the request's framing in doubt."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class JsonHandler(BaseHTTPRequestHandler):
    """Replies with JSON and reads bounded JSON-object request bodies.

    A surface subclasses it with its route bodies, ``_get()`` and
    ``_post(payload)``, and its :attr:`error_status` table.
    """

    protocol_version = "HTTP/1.1"

    #: Largest accepted request body, in bytes.  A control request (a
    #: campaign spec, an ack) is a few KB, so anything beyond this is a
    #: client error (or abuse), not a legitimate request.
    max_body_bytes: ClassVar[int] = 4 * 1024 * 1024

    #: Socket timeout in seconds (``StreamRequestHandler`` applies it to
    #: the connection).  A body that stalls this long gets a 408 and its
    #: thread is freed; an idle keep-alive connection is closed.  A write
    #: blocks only while the peer stops reading, so a feed that only
    #: writes (the gateway's SSE) runs on as long as its consumer reads.
    timeout: ClassVar[float] = 10.0

    #: ``(exception class or classes, status)`` pairs, first match wins.
    #: The reply carries the exception's message; an unlisted exception
    #: is a 500.
    error_status: ClassVar[Tuple[Tuple[Any, int], ...]] = ()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr chatter; each surface keeps its own
        event log and metrics."""

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._get)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(lambda: self._post(self._body()))

    def _dispatch(self, route: Callable[[], None]) -> None:
        try:
            try:
                route()
            except _HANGUPS:
                raise
            except HttpError as error:
                self.close_connection = True
                self._error(error.status, str(error))
            except Exception as error:
                for kind, status in self.error_status:
                    if isinstance(error, kind):
                        self._error(status, str(error))
                        break
                else:
                    self._error(500, f"{type(error).__name__}: {error}")
        except _HANGUPS:
            self.close_connection = True

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """Answer the stdlib's own refusals (a malformed request line, an
        unsupported method) in the same JSON form."""
        self.close_connection = True
        self._error(code, message or self.responses.get(code, ("error",))[0])

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        self._reply_text(status, json.dumps(payload), "application/json")

    def _reply_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    def _body(self) -> Dict[str, Any]:
        """The request body as a JSON object; :class:`HttpError` otherwise.

        The declared length is checked before reading: a negative one would
        make ``rfile.read`` block until the client hangs up, and an
        oversized one is refused without buffering it.
        """
        try:
            length = int(self.headers.get("Content-Length") or 0)
            if length < 0:
                raise ValueError(f"negative Content-Length {length}")
            if length > self.max_body_bytes:
                raise ValueError(
                    f"request body exceeds {self.max_body_bytes} bytes"
                )
            if length == 0:
                return {}
            raw = self.rfile.read(length)
            if len(raw) < length:
                raise ValueError(f"body ended after {len(raw)} of {length} bytes")
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
            return payload
        except TimeoutError:
            raise HttpError(
                408, f"request body timed out after {self.timeout:g} s"
            ) from None
        except ValueError as error:
            raise HttpError(400, f"malformed request body: {error}") from None


class JsonServer:
    """A threaded HTTP server around one bound :class:`JsonHandler` class.

    Usable blocking (:meth:`serve_forever`, the ``--serve`` CLI modes) or in
    the background (:meth:`start` / :meth:`shutdown`, tests and the smoke
    harnesses).  Binding ``port=0`` lets the OS pick a free port —
    :attr:`url` reports the actual one.
    """

    def __init__(self, handler: Type[JsonHandler], host: str, port: int):
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The (host, port) actually bound."""
        return self._server.server_address[0], self._server.server_address[1]

    @property
    def url(self) -> str:
        """The server's base URL."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self):
        """Serve on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._server.serve_forever()

    def shutdown(self) -> None:
        """Stop serving and release the socket."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class JsonClient:
    """Talks to one :class:`JsonHandler` surface over HTTP.

    A surface's client declares the class attributes below and calls
    :meth:`_request` from its operations.

    Parameters
    ----------
    base_url:
        The server's base URL, e.g. ``"http://127.0.0.1:8765"``.
    timeout:
        Per-request socket timeout in seconds.
    retry:
        Optional :class:`~repro.common.retry.RetryPolicy` applied to
        idempotent operations on transport failure.  ``None`` (the
        default) preserves fail-fast behaviour.
    """

    #: Status → exception raised for a reachable server's refusal.
    error_by_status: ClassVar[Mapping[int, Type[Exception]]] = {}
    #: Raised for a refusal whose status the table does not name.
    refused_error: ClassVar[Type[Exception]]
    #: Raised (and retried on) when the server cannot be reached at all.
    unavailable_error: ClassVar[Type[Exception]]
    #: Fault seams fire as ``<fault_prefix>.<op>``.
    fault_prefix: ClassVar[str]
    #: What messages call the server.
    noun: ClassVar[str]

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.retry = retry

    def metrics_text(self) -> str:
        """The server's ``/metrics`` document (Prometheus text)."""
        return self._request("GET", "/metrics", op="metrics")

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        op: str = "request",
        idempotent: bool = True,
    ) -> Any:
        """One operation: the decoded reply (a JSON value, or the text of a
        non-JSON reply), retried on transport failure when idempotent."""
        return self._retried(
            lambda: self._send(method, path, payload, op),
            f"{method} {path}",
            idempotent,
        )

    def _retried(
        self, call: Callable[[], Any], description: str, idempotent: bool = True
    ) -> Any:
        """``call()``, retried under the policy on transport failure."""
        if self.retry is None or not idempotent:
            return call()
        return self.retry.call(
            call, retry_on=(self.unavailable_error,), description=description
        )

    def _send(
        self, method: str, path: str, payload: Optional[Dict[str, Any]], op: str
    ) -> Any:
        try:
            # Fault seam: chaos plans refuse/delay/duplicate calls here,
            # upstream of the real transport.
            directive = faults.fire(f"{self.fault_prefix}.{op}", path=path)
            response = self._exchange(method, path, payload)
            if directive == "duplicate":
                # Re-send the same (idempotent) operation — the duplicated
                # answer must match what a single send produced.
                response = self._exchange(method, path, payload)
            return response
        except (OSError, http.client.HTTPException) as error:
            # Includes InjectedFault: injected transport failures take the
            # same recovery path as real ones.
            reason = getattr(error, "reason", error)
            raise self.unavailable_error(
                f"cannot reach {self.noun} at {self.base_url}: {reason}"
            ) from None

    def _exchange(
        self, method: str, path: str, payload: Optional[Dict[str, Any]]
    ) -> Any:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                text = response.read().decode("utf-8")
                if response.headers.get_content_type() == "application/json":
                    return json.loads(text)
                return text
        except urllib.error.HTTPError as error:
            # The server answered — surface its message, not a stack of
            # urllib internals.
            try:
                detail = json.loads(error.read().decode("utf-8")).get("error")
            except Exception:
                detail = None
            kind = self.error_by_status.get(error.code, self.refused_error)
            raise kind(
                detail or f"{self.noun} returned HTTP {error.code} for {method} {path}"
            ) from None
