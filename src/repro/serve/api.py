"""The unified typed query API — the *single* query surface of the repo.

Every route question this reproduction asks — "what is the policy path
from src to dst?", "which ASes observe both ends of this circuit?",
"what does this hijack capture?" — is expressed as one of three typed
queries, batched into a :class:`BatchRequest`, and answered with typed
results carrying ``schema_version``:

- :class:`PathQuery` → :class:`PathResult` — one (src, dst) policy path;
- :class:`ExposureQuery` → :class:`ExposureResult` — the ASes observing
  both ends of a circuit under an observation mode (§3.3), optionally
  intersected with a colluding adversary set;
- :class:`HijackQuery` → :class:`HijackQueryResult` — a hijack's capture
  set and Tor-level damage (§3.2), optionally scored against client ASes.

The same objects travel two ways: in-process callers hand them to
:class:`repro.serve.facade.QueryFacade`, and the :mod:`repro.serve.daemon`
serialises them over a line-JSON socket via :func:`encode` /
:func:`decode`.  Both paths produce bit-identical results because both
bottom out in the same facade.

Two further request shapes exist for the in-process tier only (they carry
no wire form because their results are kernel outcome objects):

- :class:`PathBatch` → :class:`PathBatchResult` — the typed form of
  :meth:`repro.asgraph.engine.RoutingEngine.paths_many`;
- :class:`OutcomeBatch` → :class:`OutcomeBatchResult` — the typed form of
  :meth:`repro.asgraph.engine.RoutingEngine.outcomes_many`.

Wire form: every object is a JSON document with a ``"type"``
discriminator; :func:`decode` validates shape and values and raises
:class:`WireError` with a message suitable for an error response.  All
collection fields are normalised (sorted, de-duplicated where they are
sets) at construction, so ``decode(encode(x)) == x`` holds exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

__all__ = [
    "API_SCHEMA_VERSION",
    "WireError",
    "PathQuery",
    "ExposureQuery",
    "HijackQuery",
    "PathResult",
    "ExposureResult",
    "HijackQueryResult",
    "QueryError",
    "BatchRequest",
    "BatchResponse",
    "PathBatch",
    "PathBatchResult",
    "OutcomeBatch",
    "OutcomeBatchResult",
    "encode",
    "decode",
    "query_key",
]

#: Version of the wire schema; bump on any incompatible payload change.
API_SCHEMA_VERSION = 1

#: Observation modes an :class:`ExposureQuery` accepts (the values of
#: :class:`repro.core.surveillance.ObservationMode`, kept as plain strings
#: so this module stays dependency-free; cross-checked by the test suite).
EXPOSURE_MODES = ("forward", "reverse", "either")

#: Attack kinds a :class:`HijackQuery` accepts (the values of
#: :class:`repro.bgpsim.attacks.AttackKind`, same plain-string rationale).
HIJACK_KINDS = (
    "same-prefix-hijack",
    "more-specific-hijack",
    "interception",
    "community-scoped-hijack",
)


class WireError(ValueError):
    """A wire document is malformed: wrong type, field, or value."""


def _check_asn(name: str, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise WireError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _asn_tuple(name: str, values: Iterable[object]) -> Tuple[int, ...]:
    return tuple(sorted({_check_asn(name, v) for v in values}))


# -- queries -----------------------------------------------------------------


@dataclass(frozen=True)
class PathQuery:
    """Policy path from ``src`` towards ``dst``'s prefix."""

    src: int
    dst: int

    def __post_init__(self) -> None:
        _check_asn("src", self.src)
        _check_asn("dst", self.dst)


@dataclass(frozen=True)
class ExposureQuery:
    """Which ASes observe both ends of one circuit (§3.3).

    ``mode`` is an observation model value (``"forward"`` | ``"reverse"``
    | ``"either"``).  With a non-empty ``adversaries`` set the result also
    reports whether the colluding set compromises the circuit.
    """

    client: int
    guard: int
    exit: int
    dest: int
    mode: str = "either"
    adversaries: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in ("client", "guard", "exit", "dest"):
            _check_asn(name, getattr(self, name))
        if self.mode not in EXPOSURE_MODES:
            raise WireError(
                f"mode must be one of {EXPOSURE_MODES}, got {self.mode!r}"
            )
        object.__setattr__(
            self, "adversaries", _asn_tuple("adversaries", self.adversaries)
        )


@dataclass(frozen=True)
class HijackQuery:
    """A hijack of ``victim``'s prefix by ``attacker`` (§3.2).

    ``clients`` (optional) are client ASes to score: the result reports
    which of them the attacker captures and — for same-prefix hijacks —
    which still route to the true origin (the resilience question).
    """

    victim: int
    attacker: int
    kind: str = "same-prefix-hijack"
    clients: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_asn("victim", self.victim)
        _check_asn("attacker", self.attacker)
        if self.kind not in HIJACK_KINDS:
            raise WireError(
                f"kind must be one of {HIJACK_KINDS}, got {self.kind!r}"
            )
        object.__setattr__(self, "clients", _asn_tuple("clients", self.clients))


# -- results -----------------------------------------------------------------


@dataclass(frozen=True)
class PathResult:
    """Answer to a :class:`PathQuery`; ``path`` is None when unreachable."""

    src: int
    dst: int
    path: Optional[Tuple[int, ...]] = None
    schema_version: int = API_SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_asn("src", self.src)
        _check_asn("dst", self.dst)
        if self.path is not None:
            object.__setattr__(
                self, "path", tuple(_check_asn("path hop", h) for h in self.path)
            )


@dataclass(frozen=True)
class ExposureResult:
    """Answer to an :class:`ExposureQuery`.

    ``observers`` are the ASes seeing both circuit ends under the query's
    mode; ``compromised`` is None when the query named no adversaries.
    """

    query: ExposureQuery
    observers: Tuple[int, ...]
    compromised: Optional[bool] = None
    schema_version: int = API_SCHEMA_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(self, "observers", _asn_tuple("observers", self.observers))

    @property
    def num_observers(self) -> int:
        return len(self.observers)


@dataclass(frozen=True)
class HijackQueryResult:
    """Answer to a :class:`HijackQuery`.

    ``victim_retained_clients`` is populated for same-prefix hijacks only
    (the resilience semantics: clients whose selected route still reaches
    the true origin); it is empty for other kinds, where "not captured"
    does not imply "still reaches the victim".
    """

    query: HijackQuery
    capture_set: Tuple[int, ...]
    capture_fraction: float
    interception_feasible: bool = False
    captured_clients: Tuple[int, ...] = ()
    victim_retained_clients: Tuple[int, ...] = ()
    schema_version: int = API_SCHEMA_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "capture_set", _asn_tuple("capture_set", self.capture_set)
        )
        object.__setattr__(
            self,
            "captured_clients",
            _asn_tuple("captured_clients", self.captured_clients),
        )
        object.__setattr__(
            self,
            "victim_retained_clients",
            _asn_tuple("victim_retained_clients", self.victim_retained_clients),
        )
        if not isinstance(self.capture_fraction, float):
            object.__setattr__(
                self, "capture_fraction", float(self.capture_fraction)
            )


@dataclass(frozen=True)
class QueryError:
    """A per-query failure slot inside a :class:`BatchResponse`.

    One bad query never poisons its batch: the daemon answers the others
    and puts a :class:`QueryError` in the failing slot.
    """

    kind: str
    message: str
    schema_version: int = API_SCHEMA_VERSION


# -- batches -----------------------------------------------------------------

_QUERY_TYPES = (PathQuery, ExposureQuery, HijackQuery)
_RESULT_TYPES = (PathResult, ExposureResult, HijackQueryResult, QueryError)


@dataclass(frozen=True)
class BatchRequest:
    """An ordered batch of queries; results come back slot-for-slot."""

    queries: Tuple[object, ...]
    id: Optional[str] = None

    def __post_init__(self) -> None:
        queries = tuple(self.queries)
        for q in queries:
            if not isinstance(q, _QUERY_TYPES):
                raise WireError(f"not a query object: {q!r}")
        object.__setattr__(self, "queries", queries)
        if self.id is not None and not isinstance(self.id, str):
            raise WireError(f"batch id must be a string, got {self.id!r}")


@dataclass(frozen=True)
class BatchResponse:
    """Results aligned with the request's queries (errors slot in-place)."""

    results: Tuple[object, ...]
    id: Optional[str] = None
    schema_version: int = API_SCHEMA_VERSION

    def __post_init__(self) -> None:
        results = tuple(self.results)
        for r in results:
            if not isinstance(r, _RESULT_TYPES):
                raise WireError(f"not a result object: {r!r}")
        object.__setattr__(self, "results", results)


# -- in-process batch shapes (no wire form) ----------------------------------


@dataclass(frozen=True)
class PathBatch:
    """Typed request for :meth:`RoutingEngine.paths_many`."""

    queries: Tuple[PathQuery, ...]

    def __post_init__(self) -> None:
        queries = tuple(self.queries)
        for q in queries:
            if not isinstance(q, PathQuery):
                raise WireError(f"not a PathQuery: {q!r}")
        object.__setattr__(self, "queries", queries)

    @classmethod
    def of(cls, pairs: Iterable[Tuple[int, int]]) -> "PathBatch":
        """Build from raw (src, dst) pairs."""
        return cls(queries=tuple(PathQuery(src=s, dst=d) for s, d in pairs))


@dataclass(frozen=True)
class PathBatchResult:
    """Per-query paths, input order preserved (duplicates included)."""

    results: Tuple[PathResult, ...]
    schema_version: int = API_SCHEMA_VERSION

    def mapping(self) -> Dict[Tuple[int, int], Optional[Tuple[int, ...]]]:
        """The legacy ``{(src, dst): path}`` view."""
        return {(r.src, r.dst): r.path for r in self.results}

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


@dataclass(frozen=True)
class OutcomeBatch:
    """Typed request for :meth:`RoutingEngine.outcomes_many`.

    ``rows`` are announcement sets in any shape ``outcome()`` accepts;
    ``targets`` is None, one shared set, or a per-row sequence — exactly
    the semantics the loose-argument form had.
    """

    rows: Tuple[object, ...]
    excluded_links: Optional[Tuple[frozenset, ...]] = None
    origin_export_scopes: Optional[Tuple[Tuple[int, frozenset], ...]] = None
    targets: object = None

    @classmethod
    def of(
        cls,
        rows: Sequence[object],
        excluded_links: Optional[Iterable[Iterable[int]]] = None,
        origin_export_scopes: Optional[Dict[int, frozenset]] = None,
        targets: object = None,
    ) -> "OutcomeBatch":
        return cls(
            rows=tuple(rows),
            excluded_links=(
                tuple(frozenset(l) for l in excluded_links)
                if excluded_links is not None
                else None
            ),
            origin_export_scopes=(
                tuple(sorted(origin_export_scopes.items()))
                if origin_export_scopes is not None
                else None
            ),
            targets=targets,
        )


@dataclass(frozen=True)
class OutcomeBatchResult:
    """Per-row routing outcomes, input order preserved."""

    outcomes: Tuple[object, ...]  # one CompactOutcome per row

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __getitem__(self, index):
        return self.outcomes[index]


# -- wire codec --------------------------------------------------------------


def encode(obj: object) -> dict:
    """The JSON-able wire document of any wire-typed API object."""
    if isinstance(obj, PathQuery):
        return {"type": "path", "src": obj.src, "dst": obj.dst}
    if isinstance(obj, ExposureQuery):
        return {
            "type": "exposure",
            "client": obj.client,
            "guard": obj.guard,
            "exit": obj.exit,
            "dest": obj.dest,
            "mode": obj.mode,
            "adversaries": list(obj.adversaries),
        }
    if isinstance(obj, HijackQuery):
        return {
            "type": "hijack",
            "victim": obj.victim,
            "attacker": obj.attacker,
            "kind": obj.kind,
            "clients": list(obj.clients),
        }
    if isinstance(obj, PathResult):
        return {
            "type": "path_result",
            "schema_version": obj.schema_version,
            "src": obj.src,
            "dst": obj.dst,
            "path": list(obj.path) if obj.path is not None else None,
        }
    if isinstance(obj, ExposureResult):
        return {
            "type": "exposure_result",
            "schema_version": obj.schema_version,
            "query": encode(obj.query),
            "observers": list(obj.observers),
            "compromised": obj.compromised,
        }
    if isinstance(obj, HijackQueryResult):
        return {
            "type": "hijack_result",
            "schema_version": obj.schema_version,
            "query": encode(obj.query),
            "capture_set": list(obj.capture_set),
            "capture_fraction": obj.capture_fraction,
            "interception_feasible": obj.interception_feasible,
            "captured_clients": list(obj.captured_clients),
            "victim_retained_clients": list(obj.victim_retained_clients),
        }
    if isinstance(obj, QueryError):
        return {
            "type": "query_error",
            "schema_version": obj.schema_version,
            "kind": obj.kind,
            "message": obj.message,
        }
    if isinstance(obj, BatchRequest):
        return {
            "type": "batch",
            "id": obj.id,
            "queries": [encode(q) for q in obj.queries],
        }
    if isinstance(obj, BatchResponse):
        return {
            "type": "batch_result",
            "schema_version": obj.schema_version,
            "id": obj.id,
            "results": [encode(r) for r in obj.results],
        }
    raise WireError(f"object has no wire form: {obj!r}")


def _require(doc: dict, field_name: str) -> object:
    if field_name not in doc:
        raise WireError(f"{doc.get('type', '?')} document missing {field_name!r}")
    return doc[field_name]


def _check_version(doc: dict) -> int:
    version = doc.get("schema_version", API_SCHEMA_VERSION)
    if version != API_SCHEMA_VERSION:
        raise WireError(
            f"unsupported schema_version {version!r} "
            f"(this build speaks {API_SCHEMA_VERSION})"
        )
    return version


def decode(doc: object) -> object:
    """Inverse of :func:`encode`; raises :class:`WireError` on bad input."""
    if not isinstance(doc, dict):
        raise WireError(f"wire document must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("type")
    try:
        if kind == "path":
            return PathQuery(src=_require(doc, "src"), dst=_require(doc, "dst"))
        if kind == "exposure":
            return ExposureQuery(
                client=_require(doc, "client"),
                guard=_require(doc, "guard"),
                exit=_require(doc, "exit"),
                dest=_require(doc, "dest"),
                mode=doc.get("mode", "either"),
                adversaries=tuple(doc.get("adversaries", ())),
            )
        if kind == "hijack":
            return HijackQuery(
                victim=_require(doc, "victim"),
                attacker=_require(doc, "attacker"),
                kind=doc.get("kind", "same-prefix-hijack"),
                clients=tuple(doc.get("clients", ())),
            )
        if kind == "path_result":
            path = doc.get("path")
            return PathResult(
                src=_require(doc, "src"),
                dst=_require(doc, "dst"),
                path=tuple(path) if path is not None else None,
                schema_version=_check_version(doc),
            )
        if kind == "exposure_result":
            query = decode(_require(doc, "query"))
            if not isinstance(query, ExposureQuery):
                raise WireError("exposure_result query is not an exposure query")
            return ExposureResult(
                query=query,
                observers=tuple(_require(doc, "observers")),
                compromised=doc.get("compromised"),
                schema_version=_check_version(doc),
            )
        if kind == "hijack_result":
            query = decode(_require(doc, "query"))
            if not isinstance(query, HijackQuery):
                raise WireError("hijack_result query is not a hijack query")
            return HijackQueryResult(
                query=query,
                capture_set=tuple(_require(doc, "capture_set")),
                capture_fraction=float(_require(doc, "capture_fraction")),
                interception_feasible=bool(doc.get("interception_feasible", False)),
                captured_clients=tuple(doc.get("captured_clients", ())),
                victim_retained_clients=tuple(
                    doc.get("victim_retained_clients", ())
                ),
                schema_version=_check_version(doc),
            )
        if kind == "query_error":
            return QueryError(
                kind=str(_require(doc, "kind")),
                message=str(_require(doc, "message")),
                schema_version=_check_version(doc),
            )
        if kind == "batch":
            queries = _require(doc, "queries")
            if not isinstance(queries, list):
                raise WireError("batch queries must be a list")
            decoded = tuple(decode(q) for q in queries)
            for q in decoded:
                if not isinstance(q, _QUERY_TYPES):
                    raise WireError(f"batch contains a non-query: {q!r}")
            return BatchRequest(queries=decoded, id=doc.get("id"))
        if kind == "batch_result":
            results = _require(doc, "results")
            if not isinstance(results, list):
                raise WireError("batch_result results must be a list")
            decoded = tuple(decode(r) for r in results)
            for r in decoded:
                if not isinstance(r, _RESULT_TYPES):
                    raise WireError(f"batch_result contains a non-result: {r!r}")
            return BatchResponse(
                results=decoded, id=doc.get("id"),
                schema_version=_check_version(doc),
            )
    except WireError:
        raise
    except (TypeError, ValueError) as exc:
        raise WireError(f"malformed {kind!r} document: {exc}") from None
    raise WireError(f"unknown wire type {kind!r}")


def query_key(query: object) -> str:
    """Canonical cache key of a query: its wire form, key-sorted."""
    return json.dumps(encode(query), sort_keys=True, separators=(",", ":"))
