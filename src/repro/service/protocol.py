"""Wire protocol of the allocation service.

Newline-delimited JSON over TCP: each request is one JSON object on a
single line, each response is one JSON object on a single line, in
request order per connection.

Request shape::

    {"verb": "allocate" | "status" | "stats" | "drain" | "ping"
             | "cancel" | "health" | "metrics" | "trace"
             | "upgrade_status" | "replicate",
     "id": <any JSON value, echoed back>,        # optional
     "trace_id": "client-chosen-id",             # optional
     "trace": true,                              # lifecycle trace
     # allocate only:
     "source": "<mini-C program text>",          # exactly one of
     "ir": "<printed IR module text>",           # source / ir
     "target": "x86" | "x86+ebp" | "risc",       # optional
     "function": "name",                         # optional filter
     "deadline": <seconds, wall clock>,          # optional
     "tenant": "client-name",                    # optional fair-queue key
     "report": true,                             # per-function reports
     "config": {"backend": ..., "time_limit": ...,
                "size_only": ..., "presolve": ...,
                "code_size_weight": ...,
                "data_size_weight": ...},        # optional
     # cancel / trace / upgrade_status only:
     "request": <trace_id or id of a queued/traced allocate>,
     # upgrade_status only: long-poll — park the reply until the
     # upgrade reaches a terminal state or the deadline passes
     "wait_ms": <milliseconds, capped server-side>,
     # replicate only (exactly one of the two):
     "fetch": ["<fingerprint>", ...],   # export cache records
     "records": [{...}, ...]}           # import replicated records

The ``metrics`` verb returns the Prometheus text exposition of the
telemetry registries; ``trace`` returns a finished request's span
tree (``repro.obs.Span.to_dict()``) by trace_id, or the most recently
stored one — a background upgrade appended to an older tree later
does not make it the most recent; ``upgrade_status``
returns the background optimal-upgrade record of a fast-answered
allocate (states ``queued`` / ``solving`` / ``done`` / ``failed`` /
``dropped``, with the measured optimality gap once ``done``).  With
``wait_ms`` the reply is parked server-side until the record turns
terminal or the deadline passes — the long-poll behind ``submit
--wait-optimal``.  ``replicate`` is the gateway's successor-replication
verb: the ``fetch`` form exports checksummed cache record dicts from
this shard's (tenant-namespaced) cache, the ``records`` form imports
them on a ring successor — best-effort, never clobbering a
locally-earned record.

Response shape::

    {"id": <echo>, "trace_id": "...", "verb": "...", "ok": true|false,
     "result": {...},                            # when ok
     "error": {"code": "...", "message": "..."}} # when not ok

Error codes (:data:`ERROR_CODES`): ``overloaded`` (admission queue
full — resubmit later), ``draining`` (server is shutting down),
``bad_request`` (malformed fields, unknown target/backend/function,
failed compile), ``parse_error`` (request line is not valid JSON),
``unknown_verb``, ``internal``, ``too_large`` (request exceeds the
size limit), and ``cancelled`` (a queued request removed by the
``cancel`` verb — the waiting allocate gets this as its terminal
response).

Every `allocate` admission gets a terminal response: a result (solver,
cache replay, or baseline fallback), or an explicit error — the
service never silently drops an accepted request.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..allocation import allocation_code_size, render_allocation
from ..core import AllocatorConfig, config_from_wire
from ..ir import format_function
from ..tiers import TIER_BASELINE, TIER_IP

PROTOCOL_VERSION = 1

VERB_ALLOCATE = "allocate"
VERB_STATUS = "status"
VERB_STATS = "stats"
VERB_DRAIN = "drain"
VERB_PING = "ping"
VERB_CANCEL = "cancel"
VERB_HEALTH = "health"
VERB_METRICS = "metrics"
VERB_TRACE = "trace"
VERB_UPGRADE_STATUS = "upgrade_status"
VERB_REPLICATE = "replicate"
VERBS = (
    VERB_ALLOCATE, VERB_STATUS, VERB_STATS, VERB_DRAIN, VERB_PING,
    VERB_CANCEL, VERB_HEALTH, VERB_METRICS, VERB_TRACE,
    VERB_UPGRADE_STATUS, VERB_REPLICATE,
)

E_OVERLOADED = "overloaded"
E_DRAINING = "draining"
E_BAD_REQUEST = "bad_request"
E_PARSE = "parse_error"
E_UNKNOWN_VERB = "unknown_verb"
E_INTERNAL = "internal"
E_TOO_LARGE = "too_large"
E_CANCELLED = "cancelled"
#: gateway-only: every shard is down or breaker-open — the client
#: should honor the ``Retry-After`` header and resubmit
E_UNAVAILABLE = "unavailable"
ERROR_CODES = (
    E_OVERLOADED, E_DRAINING, E_BAD_REQUEST, E_PARSE, E_UNKNOWN_VERB,
    E_INTERNAL, E_TOO_LARGE, E_CANCELLED, E_UNAVAILABLE,
)

#: largest accepted request line (also the asyncio stream limit)
MAX_LINE_BYTES = 8 * 1024 * 1024


class ProtocolError(Exception):
    """A request that cannot be serviced; carries the error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def encode(message: dict) -> bytes:
    """One NDJSON frame (compact JSON + newline)."""
    return json.dumps(
        message, separators=(",", ":"), sort_keys=True
    ).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict:
    """Parse one request frame; raises :class:`ProtocolError`."""
    try:
        message = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(E_PARSE, f"invalid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(E_PARSE, "request must be a JSON object")
    return message


def ok_response(message: dict, verb: str, result: dict) -> dict:
    return {
        "id": message.get("id"),
        "trace_id": message.get("trace_id", ""),
        "verb": verb,
        "ok": True,
        "result": result,
    }


def error_response(
    message: dict, verb: str, code: str, detail: str
) -> dict:
    return {
        "id": message.get("id") if isinstance(message, dict) else None,
        "trace_id": (
            message.get("trace_id", "")
            if isinstance(message, dict) else ""
        ),
        "verb": verb,
        "ok": False,
        "error": {"code": code, "message": detail},
    }


def request_config(
    message: dict, defaults: AllocatorConfig
) -> AllocatorConfig:
    """Build the per-request :class:`AllocatorConfig`: the server
    defaults with the ``config`` object's knobs (the table
    :data:`~repro.core.CONFIG_KNOBS`) applied.  A non-object, an
    unknown key or an ill-typed value is a ``bad_request``."""
    try:
        return config_from_wire(message.get("config"), defaults)
    except ValueError as exc:
        raise ProtocolError(E_BAD_REQUEST, str(exc)) from None


def allocation_entry(
    name: str, alloc, target, *, source: str, tier: str,
    cache_hit: bool = False, timed_out: bool = False,
) -> dict:
    """One function of an ``allocate`` reply, exact or fast path: what
    produced it, and its code when the allocation succeeded."""
    entry = {
        "function": name,
        "status": alloc.status,
        "allocator": alloc.allocator,
        "source": source,
        "cache_hit": cache_hit,
        "timed_out": timed_out,
        "tier": tier,
    }
    if alloc.succeeded:
        entry["rendered"] = render_allocation(alloc, target)
        entry["code"] = format_function(alloc.function)
        entry["assignment"] = {
            v: r.name for v, r in sorted(alloc.assignment.items())
        }
        entry["code_size"] = allocation_code_size(alloc, target)
    return entry


def outcome_entry(outcome, target, request: AllocateRequest) -> dict:
    """An engine outcome as one reply entry.  When ``request`` asked
    for reports and the attempt carries one, the entry includes it,
    stamped with the request's trace ID."""
    entry = allocation_entry(
        outcome.function, outcome.final, target,
        source=outcome.source,
        tier=TIER_BASELINE if outcome.fell_back else TIER_IP,
        cache_hit=outcome.cache_hit,
        timed_out=outcome.timed_out,
    )
    if outcome.fingerprint:
        # The cache key of this function's record — what the gateway's
        # successor replicator fetches and pushes.
        entry["fingerprint"] = outcome.fingerprint
    if outcome.attempt.succeeded:
        entry["objective"] = outcome.attempt.objective
    if request.wants_report and outcome.attempt.report is not None:
        entry["report"] = dict(
            outcome.attempt.report.to_dict(), trace_id=request.trace_id
        )
    return entry


def allocate_reply(
    request: "AllocateRequest", queue_seconds: float, functions: list,
    **extra,
) -> dict:
    """An answered ``allocate``: ``tier`` is the one tier every function
    used, else ``"mixed"``; ``extra`` adds or overrides result fields."""
    tiers = {entry["tier"] for entry in functions}
    return {
        "ok": True,
        "result": {
            "target": request.target_name,
            "functions": functions,
            "queue_seconds": queue_seconds,
            "tier": tiers.pop() if len(tiers) == 1 else "mixed",
            **extra,
        },
    }


@dataclass(slots=True)
class AllocateRequest:
    """A validated, compiled ``allocate`` request (pre-admission)."""

    message: dict
    trace_id: str
    target_name: str
    config: AllocatorConfig
    #: IR functions to allocate, in request order
    functions: list = field(default_factory=list)
    #: wall-clock budget in seconds from admission (None: unbounded)
    deadline: float | None = None
    #: client-declared tenant — the fair-queueing key (falls back to
    #: the connection when empty) and the per-tenant tally row
    tenant: str = ""
    #: the client asked for a request-lifecycle trace (a client
    #: supplied ``trace_id`` or ``"trace": true``); server-generated
    #: trace IDs deliberately do not trigger tracing, so the hot path
    #: allocates no span objects when nobody is looking
    wants_trace: bool = False

    @property
    def wants_report(self) -> bool:
        return bool(self.message.get("report"))


def parse_allocate(
    message: dict,
    default_target: str,
    defaults: AllocatorConfig,
    trace_id: str,
    targets: dict,
) -> AllocateRequest:
    """Validate and compile an ``allocate`` request.

    ``targets`` maps target names to factories (as
    :data:`repro.target.TARGETS` does).  Raises :class:`ProtocolError`
    on any defect.
    """
    from ..ir import parse_module
    from ..lang import compile_program

    source = message.get("source")
    ir_text = message.get("ir")
    if (source is None) == (ir_text is None):
        raise ProtocolError(
            E_BAD_REQUEST,
            "exactly one of 'source' (mini-C) or 'ir' (IR text) "
            "is required",
        )
    target_name = message.get("target", default_target)
    if target_name not in targets:
        raise ProtocolError(
            E_BAD_REQUEST,
            f"unknown target {target_name!r} "
            f"(known: {', '.join(sorted(targets))})",
        )
    config = request_config(message, defaults)
    deadline = message.get("deadline")
    if deadline is not None:
        try:
            deadline = float(deadline)
        except (TypeError, ValueError):
            raise ProtocolError(
                E_BAD_REQUEST, "deadline must be a number of seconds"
            ) from None
        if deadline <= 0:
            raise ProtocolError(
                E_BAD_REQUEST, "deadline must be positive"
            )
    try:
        if source is not None:
            module = compile_program(str(source), name="request")
        else:
            module = parse_module(str(ir_text), name="request")
    except Exception as exc:
        raise ProtocolError(
            E_BAD_REQUEST, f"compile failed: {exc}"
        ) from None
    functions = list(module)
    wanted = message.get("function")
    if wanted is not None:
        functions = [fn for fn in functions if fn.name == wanted]
        if not functions:
            raise ProtocolError(
                E_BAD_REQUEST, f"no function named {wanted!r}"
            )
    if not functions:
        raise ProtocolError(E_BAD_REQUEST, "program has no functions")
    return AllocateRequest(
        message=message,
        trace_id=trace_id,
        target_name=target_name,
        config=config,
        functions=functions,
        deadline=deadline,
        tenant=str(message.get("tenant") or ""),
        wants_trace=bool(
            message.get("trace") or message.get("trace_id")
        ),
    )
