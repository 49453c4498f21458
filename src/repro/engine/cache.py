"""Persistent on-disk cache of finished allocations.

One JSON record per solved allocation IP, stored under
``<root>/<fp[:2]>/<fp>.json`` where ``fp`` is the canonical problem
fingerprint (:mod:`repro.engine.fingerprint`).  A record holds the
*allocation itself*: the allocated function as canonical printed IR,
the ``{vreg: register}`` assignment, the spill statistics, the exact
objective and the size of the model it was solved from, plus the
solver's facts (time, nodes, backend).  Replaying a record decodes it
(:meth:`CacheRecord.to_allocation`); the engine then runs the
allocation validator and the equivalence check
(:func:`repro.equivalence.check_equivalence`) against the function's
lowered IR, so a warm run builds no §5 network or model, runs no
rewrite or solver, and still hands back an allocation proven legal and
faithful to the function.

Records are self-invalidating: the fingerprint covers the lowered IR,
target, config, cost coefficients and the allocator's version, and a
record that does not decode or fails either check is treated as a
miss by the engine.  Every record carries a sha256 checksum of its
payload, and writes are atomic (temp file + ``os.replace``) so
concurrent runs sharing a cache directory can never observe a torn
record.  The checksum is unkeyed: it detects damage, not a record
written on purpose, which is why the engine checks the code itself.

The cache is bounded: ``max_entries`` (default from the
``REPRO_CACHE_MAX_ENTRIES`` environment variable, unbounded when
unset) caps the number of records, with least-recently-used pruning.
Recency is the record file's mtime — a hit touches the file, so
entries that keep earning their place survive, and a cache shared by
many runs (or by the allocation service's concurrent clients)
converges on the hot working set.  All public methods are
thread-safe; cross-process safety comes from the atomic writes.

Multi-tenant namespaces: a cache built with ``namespace="tenant"``
stores its records under ``<root>/ns/<tenant>/`` with its own LRU
bound and its own eviction count, so one noisy tenant churns only its
own subtree and can never evict another tenant's hot working set.
The anonymous namespace (``namespace=""``) is the root itself, which
keeps single-tenant layouts byte-compatible with earlier versions.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..allocation import Allocation, AllocationError, SpillStats
from ..faults import SITE_CACHE_CORRUPT, SITE_CACHE_IO, should_fire
from ..fileio import atomic_write
from ..ir import (
    ParseError,
    VerificationError,
    format_function,
    parse_function,
    verify_function,
)
from ..obs import counter, define_counter, define_gauge
from ..target import TargetMachine

#: cache record schema version; bump to invalidate all existing records
#: (2: added the ``sha256`` payload checksum to the envelope; 3: the
#: record stores the allocated function instead of solver values)
CACHE_VERSION = 3

#: corrupt records are moved here (with a ``.bad`` suffix, so the
#: record globs never see them) instead of being re-parsed forever
QUARANTINE_DIR = "quarantine"

#: environment variable supplying the default ``max_entries``
CACHE_MAX_ENTRIES_ENV = "REPRO_CACHE_MAX_ENTRIES"

#: per-tenant namespaces live under ``<root>/NAMESPACE_DIR/<tenant>``
NAMESPACE_DIR = "ns"

#: characters allowed verbatim in a namespace directory name
_NS_SAFE = re.compile(r"[^A-Za-z0-9._-]")

STAT_EVICTIONS = define_counter(
    "engine.cache_evictions", "cache records pruned by the LRU bound"
)
STAT_ENTRIES = define_gauge(
    "engine.cache_entries", "records currently in the result cache"
)
STAT_CORRUPT = define_counter(
    "engine.cache_corrupt",
    "corrupt cache records quarantined on load",
)
STAT_REPLICA_HITS = define_counter(
    "engine.cache_replica_hits",
    "cache hits served from a successor-replicated record",
)
STAT_REPLICAS_STORED = define_counter(
    "engine.cache_replicas_stored",
    "replicated records imported from a ring predecessor",
)


def _payload_checksum(d: dict) -> str:
    """sha256 over the canonical JSON of everything but the checksum."""
    payload = {k: v for k, v in d.items() if k != "sha256"}
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


#: what :meth:`ResultCache.import_replica` can do with one record
REPLICA_OUTCOMES = ("stored", "kept_local", "unchanged", "invalid", "error")

#: keys excluded from replica content comparison: the checksum itself,
#: the replica marker (an owner record and its replica differ only
#: here), and the write timestamp
_CONTENT_NEUTRAL_KEYS = ("sha256", "replica", "created")


def _content_key(d: dict) -> str:
    """Checksum of the allocation-meaningful payload of a record dict
    — the version under which replication decides "same record"."""
    payload = {
        k: v for k, v in d.items() if k not in _CONTENT_NEUTRAL_KEYS
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def namespace_dirname(tenant: str) -> str:
    """A tenant id as a collision-free directory name.

    Filesystem-hostile characters are replaced, and any tenant whose
    name needed replacing (or truncating) gets a short content hash
    appended so distinct tenants can never share a namespace.
    """
    safe = _NS_SAFE.sub("_", tenant)[:48]
    if safe == tenant:
        return safe
    digest = hashlib.sha256(tenant.encode("utf-8")).hexdigest()[:8]
    return f"{safe or 'ns'}-{digest}"


def default_max_entries() -> int | None:
    """The LRU bound from ``REPRO_CACHE_MAX_ENTRIES`` (None = unbounded)."""
    raw = os.environ.get(CACHE_MAX_ENTRIES_ENV, "")
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


@dataclass(slots=True)
class CacheRecord:
    """One cached allocation, keyed by problem fingerprint."""

    fingerprint: str
    function: str
    status: str  # "optimal" | "feasible"
    #: the solved §4 objective, stored exactly (JSON floats round-trip)
    objective: float = 0.0
    #: the allocated function as canonical printed IR
    code: str = ""
    #: {vreg name: real register name}
    assignment: dict[str, str] = field(default_factory=dict)
    #: the :class:`~repro.allocation.SpillStats` fields
    stats: dict[str, int] = field(default_factory=dict)
    #: size of the IP model the allocation was solved from
    n_variables: int = 0
    n_constraints: int = 0
    solve_seconds: float = 0.0
    nodes: int = 0
    lp_relaxations: int = 0
    backend: str = ""
    timed_out: bool = False
    created: float = 0.0
    #: True when this record arrived via successor replication rather
    #: than being solved (or upgraded) locally.  Replicas may be
    #: overwritten by fresher replicas; locally-earned records may not.
    replica: bool = False

    @classmethod
    def from_allocation(
        cls, fingerprint: str, alloc: Allocation
    ) -> "CacheRecord | None":
        """The record of a finished allocation (None unless it
        succeeded).  The solver facts come from its run report's
        :class:`~repro.obs.SolverStats` (zero when it has none)."""
        if not alloc.succeeded:
            return None
        solver = alloc.report.solver if alloc.report else None
        return cls(
            fingerprint=fingerprint,
            function=alloc.fn_name,
            status=alloc.status,
            objective=alloc.objective,
            code=format_function(alloc.function),
            assignment={v: r.name for v, r in alloc.assignment.items()},
            stats=asdict(alloc.stats),
            n_variables=alloc.n_variables,
            n_constraints=alloc.n_constraints,
            solve_seconds=alloc.solve_seconds,
            nodes=getattr(solver, "nodes", 0),
            lp_relaxations=getattr(solver, "lp_relaxations", 0),
            backend=getattr(solver, "backend", ""),
            timed_out=getattr(solver, "timed_out", False),
        )

    def to_allocation(self, target: TargetMachine) -> Allocation:
        """Rebuild the allocation this record stores.

        Raises :class:`~repro.allocation.AllocationError` when the
        record does not decode (unparsable or structurally malformed
        code, unknown register, malformed stats, bad status).  Decoding
        checks form only: the caller runs
        :func:`~repro.allocation.validate_allocation` and
        :func:`~repro.equivalence.check_equivalence` on the result
        before trusting it.
        """
        if self.status not in ("optimal", "feasible"):
            raise AllocationError(f"record status {self.status!r}")
        try:
            function = parse_function(self.code)
            # the validator assumes well-formed blocks and branches
            verify_function(function, check_defs=False)
            assignment = {
                v: target.register_file[r]
                for v, r in self.assignment.items()
            }
            stats = SpillStats(**self.stats)
        except (ParseError, VerificationError, KeyError, TypeError,
                ValueError) as exc:
            raise AllocationError(
                f"undecodable record for {self.function}: "
                f"{type(exc).__name__}: {exc}"
            ) from None
        return Allocation(
            fn_name=function.name,
            function=function,
            assignment=assignment,
            allocator="ip",
            status=self.status,
            stats=stats,
            n_variables=self.n_variables,
            n_constraints=self.n_constraints,
            objective=self.objective,
        )

    def to_dict(self) -> dict:
        d = {
            "version": CACHE_VERSION,
            "fingerprint": self.fingerprint,
            "function": self.function,
            "status": self.status,
            "objective": self.objective,
            "code": self.code,
            "assignment": dict(self.assignment),
            "stats": dict(self.stats),
            "n_variables": self.n_variables,
            "n_constraints": self.n_constraints,
            "solve_seconds": self.solve_seconds,
            "nodes": self.nodes,
            "lp_relaxations": self.lp_relaxations,
            "backend": self.backend,
            "timed_out": self.timed_out,
            "created": self.created,
            "replica": self.replica,
        }
        d["sha256"] = _payload_checksum(d)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CacheRecord | None":
        if d.get("version") != CACHE_VERSION:
            return None
        try:
            return cls(
                fingerprint=d["fingerprint"],
                function=d["function"],
                status=d["status"],
                objective=float(d["objective"]),
                code=str(d["code"]),
                assignment={
                    str(k): str(v) for k, v in d["assignment"].items()
                },
                stats={str(k): int(v) for k, v in d["stats"].items()},
                n_variables=int(d.get("n_variables", 0)),
                n_constraints=int(d.get("n_constraints", 0)),
                solve_seconds=float(d.get("solve_seconds", 0.0)),
                nodes=int(d.get("nodes", 0)),
                lp_relaxations=int(d.get("lp_relaxations", 0)),
                backend=d.get("backend", ""),
                timed_out=bool(d.get("timed_out", False)),
                created=float(d.get("created", 0.0)),
                replica=bool(d.get("replica", False)),
            )
        except (AttributeError, KeyError, TypeError, ValueError):
            return None


class ResultCache:
    """Filesystem-backed fingerprint -> :class:`CacheRecord` store.

    ``max_entries`` bounds the cache with LRU pruning; ``None`` reads
    the ``REPRO_CACHE_MAX_ENTRIES`` environment variable, and any value
    <= 0 means unbounded.

    ``namespace`` scopes the cache to one tenant: records live under
    ``<root>/ns/<tenant>/`` and the LRU bound applies to that subtree
    alone.  The empty namespace is the shared root.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        max_entries: int | None = None,
        namespace: str = "",
    ) -> None:
        self.namespace = namespace
        self.root = Path(root)
        if namespace:
            self.root = (
                self.root / NAMESPACE_DIR / namespace_dirname(namespace)
            )
        if max_entries is None:
            max_entries = default_max_entries()
        self.max_entries = (
            max_entries if max_entries and max_entries > 0 else None
        )
        #: records this instance pruned from its namespace (the stats
        #: verb surfaces it per tenant; STAT_EVICTIONS is the global)
        self.evictions = 0
        self._lock = threading.RLock()
        #: lazily initialised record count (scanning once, then kept
        #: incrementally so bounded puts stay O(1) until they prune)
        self._count: int | None = None

    def path_for(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> CacheRecord | None:
        """Load a record, or ``None`` on miss/corruption/version skew.

        A hit touches the record file (LRU touch-on-hit), so recently
        replayed entries outlive cold ones under pruning.  Undecodable
        or checksum-failing records are quarantined (moved aside and
        counted in ``engine.cache_corrupt``) so a persistently corrupt
        file is never re-parsed on every lookup.
        """
        path = self.path_for(fingerprint)
        try:
            if should_fire(SITE_CACHE_IO, fingerprint):
                raise OSError("injected cache I/O error")
            text = path.read_text()
        except OSError:
            return None
        if should_fire(SITE_CACHE_CORRUPT, fingerprint):
            # Garble the on-disk bytes we just read so the *real*
            # corruption handling below runs against this record.
            text = text[: len(text) // 2] + "\x00#corrupt#"
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            self._quarantine(path)
            return None
        if not isinstance(data, dict):
            self._quarantine(path)
            return None
        if data.get("version") != CACHE_VERSION:
            # Old schema, not corruption: a plain miss (the following
            # put overwrites it with a current record).
            return None
        if data.get("sha256") != _payload_checksum(data):
            self._quarantine(path)
            return None
        record = CacheRecord.from_dict(data)
        if record is None or record.fingerprint != fingerprint:
            return None
        if record.replica:
            STAT_REPLICA_HITS.incr()
        try:
            os.utime(path)
        except OSError:
            pass
        return record

    def peek(self, fingerprint: str) -> CacheRecord | None:
        """Load a record without side effects: no LRU touch, no
        replica-hit counting, no quarantine, no fault injection.

        The replication path uses this on both ends — export reads the
        owner's record, import compares against the local one — and
        neither read should perturb the serving-path statistics.
        """
        path = self.path_for(fingerprint)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(data, dict):
            return None
        if data.get("version") != CACHE_VERSION:
            return None
        if data.get("sha256") != _payload_checksum(data):
            return None
        record = CacheRecord.from_dict(data)
        if record is None or record.fingerprint != fingerprint:
            return None
        return record

    #: most records one replicate exchange may carry, each direction
    REPLICATE_BATCH_MAX = 64

    def export_records(self, fingerprints) -> list[dict]:
        """The checksummed record dicts of the fingerprints this cache
        holds, read with :meth:`peek`; missing or invalid ones are
        simply absent.  The ``replicate`` verb's fetch form."""
        records = []
        for fp in list(fingerprints)[: self.REPLICATE_BATCH_MAX]:
            record = self.peek(str(fp))
            if record is not None:
                records.append(record.to_dict())
        return records

    def import_records(self, records) -> dict[str, int]:
        """Import replicas pushed by a ring predecessor through
        :meth:`import_replica`; returns how many records met each
        outcome, so the gateway can count what actually landed.  The
        ``replicate`` verb's records form."""
        counts = dict.fromkeys(REPLICA_OUTCOMES, 0)
        for data in list(records)[: self.REPLICATE_BATCH_MAX]:
            status = self.import_replica(
                data if isinstance(data, dict) else {}
            )
            counts[status] += 1
        return counts

    def import_replica(self, data: dict) -> str:
        """Store a record dict pushed by a ring predecessor.

        The wire format is exactly :meth:`CacheRecord.to_dict`, so the
        checksum the owner wrote travels with the record and is
        re-verified here — a garbled replica is refused, never stored.
        Returns what happened:

        * ``"invalid"`` — malformed, wrong version, or checksum failed;
        * ``"kept_local"`` — a locally-earned (non-replica) record
          already exists; replication never clobbers it;
        * ``"unchanged"`` — an identical replica is already present
          (content-compared ignoring timestamps and the replica flag);
        * ``"stored"`` — written (marked ``replica=True``);
        * ``"error"`` — local write failed (best-effort, swallowed).
        """
        if not isinstance(data, dict):
            return "invalid"
        if data.get("version") != CACHE_VERSION:
            return "invalid"
        if data.get("sha256") != _payload_checksum(data):
            return "invalid"
        record = CacheRecord.from_dict(data)
        if record is None or not record.fingerprint:
            return "invalid"
        local = self.peek(record.fingerprint)
        if local is not None:
            if not local.replica:
                return "kept_local"
            if _content_key(local.to_dict()) == _content_key(data):
                return "unchanged"
        record.replica = True
        status = self.put(record)
        if status == "error":
            return "error"
        STAT_REPLICAS_STORED.incr()
        return "stored"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt record out of the cache tree."""
        STAT_CORRUPT.incr()
        qdir = self.root / QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / (path.name + ".bad"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                return
        with self._lock:
            if self._count is not None and self._count > 0:
                self._count -= 1

    def put(self, record: CacheRecord) -> str:
        """Atomically persist a record (best-effort: IO errors are
        swallowed — a cache must never fail the run), then prune the
        least-recently-used entries past ``max_entries``.

        Returns the write's effect: ``"inserted"`` (new fingerprint,
        occupancy grew by one), ``"replaced"`` (in-place overwrite of
        an existing entry — the background-upgrade path — which must
        neither grow occupancy nor touch the eviction counters), or
        ``"error"`` (swallowed IO failure, nothing changed).  A record
        whose entry was LRU-evicted mid-upgrade simply re-inserts:
        ``os.replace`` makes both directions atomic, and the freshness
        probe under the lock classifies the write correctly either
        way.
        """
        if not record.created:
            record.created = time.time()
        path = self.path_for(record.fingerprint)
        with self._lock:
            fresh = not path.exists()
            try:
                if should_fire(SITE_CACHE_IO, record.fingerprint):
                    raise OSError("injected cache I/O error")
                atomic_write(
                    path, json.dumps(record.to_dict()) + "\n",
                    prefix=".tmp-", suffix=".json",
                )
            except OSError:
                return "error"
            if fresh and self._count is not None:
                self._count += 1
            if self.max_entries is not None:
                self._prune_locked()
            STAT_ENTRIES.set(self._entries_locked())
            return "inserted" if fresh else "replaced"

    def _entries_locked(self) -> int:
        if self._count is None:
            self._count = sum(1 for _ in self.root.glob("*/*.json")) \
                if self.root.is_dir() else 0
        return self._count

    def _prune_locked(self) -> None:
        """Evict oldest-mtime records until the count fits the bound."""
        if self._entries_locked() <= self.max_entries:
            return
        entries = []
        for path in self.root.glob("*/*.json"):
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:
                pass
        self._count = len(entries)
        entries.sort(key=lambda e: e[0])
        for _, path in entries[: max(0, len(entries) - self.max_entries)]:
            try:
                path.unlink()
            except OSError:
                continue
            self._count -= 1
            self.evictions += 1
            STAT_EVICTIONS.incr()
            if self.namespace:
                counter(
                    "engine.cache_evictions.ns."
                    f"{namespace_dirname(self.namespace)}"
                ).incr()

    def __len__(self) -> int:
        with self._lock:
            # Recount: other processes may have added records.
            self._count = None
            return self._entries_locked()

    def clear(self) -> int:
        """Delete every record; returns how many were removed."""
        removed = 0
        with self._lock:
            for path in self.root.glob("*/*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            self._count = 0
            STAT_ENTRIES.set(0)
        return removed
