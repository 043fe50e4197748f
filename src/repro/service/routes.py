"""HTTP surface of the experiment service: routes and handlers.

The route table is deliberately small and flat — every endpoint is a thin
adapter from HTTP to the shared front door (:mod:`repro.frontdoor`) and the
run registry (:mod:`repro.service.registry`):

========  ==========================  =====================================================
method    path                        meaning
========  ==========================  =====================================================
POST      ``/runs``                   submit a run request (dedupes in flight, cache-hits
                                      completed runs); body fields: ``scenario`` (library
                                      name or scenario mapping), ``seed``, ``backend``,
                                      ``chunk_symbols``, ``bits``, ``trial_mode``,
                                      ``ci_target``, ``max_symbols`` — all but
                                      ``scenario`` optional; the compute kernel is
                                      the server's ``$REPRO_KERNEL``, never a field
GET       ``/runs``                   status snapshots of every known run
GET       ``/runs/{id}``              one run's status (``id`` is the run key digest)
GET       ``/runs/{id}/events``       the run's server-sent event stream: one ``point``
                                      event per grid point, terminal ``report``/``error``
GET       ``/scenarios``              the shared scenario catalogue (= ``repro list --json``)
GET       ``/probe``                  cache probe: ``?scenario=&seed=&backend=&
                                      chunk_symbols=&bits=`` without running anything
GET       ``/artifacts``              artefact ids in the store
GET       ``/artifacts/{key}``        one artefact's verified envelope
GET       ``/compare``                ``?a=&b=&metric=`` — per-point metric deltas
GET       ``/stats``                  execution/run/artefact counts + executor telemetry
========  ==========================  =====================================================

Handlers return :class:`JsonResponse` or :class:`EventStreamResponse`; all
transport concerns (parsing, timeouts, serialisation) live in
:mod:`repro.service.app`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import frontdoor
from repro.service import registry as registry_mod
from repro.service.registry import RunHandle


class HttpError(Exception):
    """A handler-level failure with an HTTP status attached."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class JsonResponse:
    payload: Any
    status: int = 200


@dataclass
class EventStreamResponse:
    """Stream a run handle's events as ``text/event-stream``."""

    handle: RunHandle


#: Handler signature: (service, path params, query, decoded JSON body).
Handler = Callable[[Any, Dict[str, str], Dict[str, str], Any], Any]


def _run_request_from_fields(fields: Dict[str, Any]) -> frontdoor.RunRequest:
    """Build a :class:`~repro.frontdoor.RunRequest` from loose HTTP fields."""
    known = {
        "scenario", "seed", "backend", "chunk_symbols", "bits",
        "trial_mode", "ci_target", "max_symbols",
    }
    unknown = sorted(set(fields) - known)
    if unknown:
        raise HttpError(400, f"unknown run field(s): {', '.join(unknown)}")
    if "scenario" not in fields:
        raise HttpError(400, "run request needs a 'scenario' (name or mapping)")
    try:
        return frontdoor.RunRequest.build(
            fields["scenario"],
            seed=fields.get("seed", 0),
            backend=fields.get("backend"),
            chunk_symbols=fields.get("chunk_symbols", frontdoor.DEFAULT_CHUNK_SYMBOLS),
            bits=fields.get("bits"),
            trial_mode=fields.get("trial_mode"),
            ci_target=fields.get("ci_target"),
            max_symbols=fields.get("max_symbols"),
        )
    except (TypeError, ValueError) as error:
        raise HttpError(400, str(error)) from error


def _coerce_query_fields(query: Dict[str, str]) -> Dict[str, Any]:
    """Query-string run fields (``GET /probe``) with ints parsed."""
    fields: Dict[str, Any] = {}
    for name, value in query.items():
        if name in ("seed", "chunk_symbols", "bits", "max_symbols"):
            try:
                fields[name] = int(value)
            except ValueError:
                raise HttpError(400, f"{name} must be an integer, got {value!r}") from None
        elif name == "ci_target":
            try:
                fields[name] = float(value)
            except ValueError:
                raise HttpError(400, f"{name} must be a number, got {value!r}") from None
        else:
            fields[name] = value
    return fields


# -- handlers ------------------------------------------------------------------
def get_scenarios(service, params, query, body) -> JsonResponse:
    return JsonResponse(frontdoor.scenario_catalogue())


def post_runs(service, params, query, body) -> JsonResponse:
    if not isinstance(body, dict):
        raise HttpError(400, "POST /runs needs a JSON object body")
    fields = dict(body)
    fields.setdefault("chunk_symbols", service.chunk_symbols)
    request = _run_request_from_fields(fields)
    handle, how = service.registry.submit(request)
    status = handle.snapshot()
    status["status"] = how
    # 202 while the simulation is (still) in flight, 200 once served.
    return JsonResponse(status, status=200 if handle.state != registry_mod.RUNNING else 202)


def get_runs(service, params, query, body) -> JsonResponse:
    return JsonResponse({"runs": service.registry.runs()})


def _handle_or_404(service, params) -> RunHandle:
    handle = service.registry.get(params["id"])
    if handle is None:
        raise HttpError(404, f"no run {params['id']!r} (submit one with POST /runs)")
    return handle


def get_run(service, params, query, body) -> JsonResponse:
    return JsonResponse(_handle_or_404(service, params).snapshot())


def get_run_events(service, params, query, body) -> EventStreamResponse:
    return EventStreamResponse(_handle_or_404(service, params))


def get_probe(service, params, query, body) -> JsonResponse:
    fields = _coerce_query_fields(query)
    fields.setdefault("chunk_symbols", service.chunk_symbols)
    request = _run_request_from_fields(fields)
    return JsonResponse(frontdoor.probe(service.store, request))


def get_artifacts(service, params, query, body) -> JsonResponse:
    scenario = query.get("scenario")
    return JsonResponse({"artifacts": service.store.list(scenario)})


def get_artifact(service, params, query, body) -> JsonResponse:
    return JsonResponse(service.store.read_envelope(params["key"]))


def get_compare(service, params, query, body) -> JsonResponse:
    missing = sorted({"a", "b", "metric"} - set(query))
    if missing:
        raise HttpError(400, f"GET /compare needs query parameter(s): {', '.join(missing)}")
    try:
        comparison = service.store.compare(query["a"], query["b"], query["metric"])
    except KeyError as error:  # unknown metric name
        raise HttpError(400, str(error.args[0])) from None
    return JsonResponse(comparison)


def get_stats(service, params, query, body) -> JsonResponse:
    return JsonResponse(service.registry.stats())


#: The route table: (method, path pattern) -> handler.  ``{name}`` segments
#: capture into the handler's path params.
ROUTES: List[Tuple[str, str, Handler]] = [
    ("GET", "/scenarios", get_scenarios),
    ("POST", "/runs", post_runs),
    ("GET", "/runs", get_runs),
    ("GET", "/runs/{id}", get_run),
    ("GET", "/runs/{id}/events", get_run_events),
    ("GET", "/probe", get_probe),
    ("GET", "/artifacts", get_artifacts),
    ("GET", "/artifacts/{key}", get_artifact),
    ("GET", "/compare", get_compare),
    ("GET", "/stats", get_stats),
]


def match_route(method: str, path: str) -> Tuple[Optional[Handler], Dict[str, str], bool]:
    """Resolve ``(handler, path params, path_exists)`` for a request.

    ``path_exists`` distinguishes 404 (no such path) from 405 (path exists,
    wrong method).
    """
    segments = [seg for seg in path.split("/") if seg != ""]
    path_exists = False
    for route_method, pattern, handler in ROUTES:
        pattern_segments = [seg for seg in pattern.split("/") if seg != ""]
        if len(pattern_segments) != len(segments):
            continue
        params: Dict[str, str] = {}
        for pat, seg in zip(pattern_segments, segments):
            if pat.startswith("{") and pat.endswith("}"):
                params[pat[1:-1]] = seg
            elif pat != seg:
                break
        else:
            path_exists = True
            if route_method == method:
                return handler, params, True
    return None, {}, path_exists
