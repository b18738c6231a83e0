"""REST control surface over a :class:`CampaignCoordinator`.

A deliberately small, dependency-free HTTP layer on the shared JSON
transport (:mod:`repro.common.jsonhttp`) — every route is a thin JSON
translation of one coordinator method, so the protocol semantics (leases,
idempotent acks, reduction) live in exactly one place and the in-process
and remote paths cannot drift.  Refusals answer ``{"error": message}``
with the status :mod:`repro.common.jsonhttp`'s error-mapping table gives.

Routes::

    GET  /health                                     liveness + version
    GET  /metrics                                    Prometheus text exposition
    GET  /campaigns                                  submitted campaign ids
    POST /campaigns               {"spec": {...}}    submit (idempotent)
    GET  /campaigns/<id>                             scheduling progress
    GET  /campaigns/<id>/spec                        normalized spec document
    GET  /campaigns/<id>/chunks                      per-chunk states
    GET  /campaigns/<id>/events                      progress log
    GET  /campaigns/<id>/trace                       merged worker span records
    GET  /campaigns/<id>/tables                      reduced tables (409 until
                                                     the campaign completes)
    POST /campaigns/<id>/claim    {"worker_id"}      lease the next chunk
    POST /campaigns/<id>/chunks/<cid>/heartbeat      renew a lease
    POST /campaigns/<id>/chunks/<cid>/ack            complete a chunk

Security note: the service is **unauthenticated** and meant for loopback
or a trusted LAN only — bind it accordingly (the default
:class:`~repro.common.config.ServiceConfig` listens on ``127.0.0.1``).
"""

from __future__ import annotations

import re
from typing import Any, Dict

from repro.api.spec import CampaignSpec
from repro.common.codec import coerce_int
from repro.common.exceptions import (
    CampaignIncompleteError,
    ConfigurationError,
    ServiceError,
)
from repro.common.jsonhttp import HttpError, JsonHandler, JsonServer
from repro.service.coordinator import CampaignCoordinator

__all__ = ["CoordinatorServer"]

_CAMPAIGN = re.compile(r"^/campaigns/([0-9a-f]+)$")
_SUBRESOURCE = re.compile(
    r"^/campaigns/([0-9a-f]+)/(spec|chunks|events|trace|tables)$"
)
_CLAIM = re.compile(r"^/campaigns/([0-9a-f]+)/claim$")
_CHUNK_ACTION = re.compile(
    r"^/campaigns/([0-9a-f]+)/chunks/([A-Za-z0-9_.-]+)/(heartbeat|ack)$"
)


class _Handler(JsonHandler):
    """Routes requests onto the server's coordinator."""

    # Set by CoordinatorServer when the handler class is bound.
    coordinator: CampaignCoordinator

    error_status = (
        (CampaignIncompleteError, 409),
        (ConfigurationError, 400),
        (ServiceError, 404),
    )

    def _get(self) -> None:
        coordinator = self.coordinator
        if self.path == "/health":
            self._reply(200, coordinator.health())
            return
        if self.path == "/metrics":
            self._reply_text(
                200,
                coordinator.metrics_render(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if self.path == "/campaigns":
            self._reply(200, {"campaigns": coordinator.campaign_ids()})
            return
        match = _CAMPAIGN.match(self.path)
        if match:
            self._reply(200, coordinator.progress(match.group(1)))
            return
        match = _SUBRESOURCE.match(self.path)
        if match:
            campaign_id, resource = match.groups()
            if resource == "spec":
                self._reply(200, {"spec": coordinator.spec_mapping(campaign_id)})
            elif resource == "chunks":
                self._reply(200, {"chunks": coordinator.chunk_states(campaign_id)})
            elif resource == "events":
                self._reply(200, {"events": coordinator.events(campaign_id)})
            elif resource == "trace":
                self._reply(200, {"spans": coordinator.trace(campaign_id)})
            else:  # tables
                self._reply(200, {"tables": coordinator.tables(campaign_id)})
            return
        self._error(404, f"no such resource: {self.path}")

    def _post(self, payload: Dict[str, Any]) -> None:
        coordinator = self.coordinator
        if self.path == "/campaigns":
            if "spec" not in payload:
                raise HttpError(400, "submission body needs a 'spec' mapping")
            spec = CampaignSpec.from_mapping(payload["spec"])
            campaign_id = coordinator.submit(spec)
            progress = coordinator.progress(campaign_id)
            self._reply(
                200,
                {
                    "campaign_id": campaign_id,
                    "n_chunks": progress["n_chunks"],
                    "n_runs": progress["n_runs"],
                },
            )
            return
        match = _CLAIM.match(self.path)
        if match:
            campaign_id = match.group(1)
            worker_id = str(payload.get("worker_id") or "anonymous")
            chunk = coordinator.claim(campaign_id, worker_id)
            self._reply(
                200,
                {
                    "chunk": chunk,
                    "complete": coordinator.progress(campaign_id)["complete"],
                },
            )
            return
        match = _CHUNK_ACTION.match(self.path)
        if match:
            campaign_id, chunk_id, action = match.groups()
            worker_id = str(payload.get("worker_id") or "anonymous")
            if action == "heartbeat":
                alive = coordinator.heartbeat(campaign_id, chunk_id, worker_id)
                self._reply(200, {"alive": alive})
            else:  # ack
                spans = payload.get("spans")
                response = coordinator.ack(
                    campaign_id,
                    chunk_id,
                    worker_id,
                    n_simulated=coerce_int(
                        payload.get("n_simulated", 0), "n_simulated"
                    ),
                    n_cache_hits=coerce_int(
                        payload.get("n_cache_hits", 0), "n_cache_hits"
                    ),
                    spans=spans if isinstance(spans, list) else None,
                )
                self._reply(200, response)
            return
        self._error(404, f"no such resource: {self.path}")


class CoordinatorServer(JsonServer):
    """A :class:`~repro.common.jsonhttp.JsonServer` bound to one coordinator."""

    def __init__(
        self,
        coordinator: CampaignCoordinator,
        host: str = "127.0.0.1",
        port: int = 8765,
    ):
        self.coordinator = coordinator
        handler = type("BoundHandler", (_Handler,), {"coordinator": coordinator})
        super().__init__(handler, host, port)
