"""Durable experiment artefacts: a content-addressed report store.

A :class:`ReportStore` is a directory of JSON artefacts, one per persisted
:class:`~repro.scenarios.runner.ExperimentReport` — the ``BENCH_*.json``
pattern generalised to every experiment.  Artefact ids are human-readable
*and* content-addressed::

    <scenario-name>__<backend>__seed<seed>__<digest>.json

where ``digest`` is a SHA-256 prefix of the report's canonical JSON, so the
same experiment (same scenario, seed, backend, *and* results) always lands on
the same file — saving twice is idempotent — while any drift in the numbers
produces a new artefact sitting next to the old one for longitudinal
comparison (:meth:`ReportStore.compare`).

Artefacts are self-describing envelopes (format tag, artefact id, save
timestamp, report mapping) and load back into full
:class:`~repro.scenarios.runner.ExperimentReport` values via
:meth:`ReportStore.load`.

>>> import tempfile
>>> from repro.scenarios import ExperimentRunner, get_scenario
>>> report = ExperimentRunner(get_scenario("ber-vs-photons").with_budget(128), seed=1).run()
>>> store = ReportStore(tempfile.mkdtemp())
>>> artifact = store.save(report)
>>> store.load(artifact.stem) == report
True
>>> store.list() == [artifact.stem]
True
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.scenarios.runner import ExperimentReport

#: Format tag written into every artefact envelope; bumped on layout changes.
ARTIFACT_FORMAT = "repro-report-v1"

#: Format tag of checkpoint files (JSONL, one completed point per line).
CHECKPOINT_FORMAT = "repro-checkpoint-v1"

#: Format tag of run-index entries (run key -> completed artefact id).
RUN_INDEX_FORMAT = "repro-run-index-v1"

_DIGEST_CHARS = 12

#: Distinguishes scratch files of concurrent saves from the *same* process
#: (the pid alone would collide); combined with the pid for cross-process
#: uniqueness.
_SCRATCH_COUNTER = itertools.count()


class CorruptArtifactError(ValueError):
    """An artefact on disk is damaged: truncated, foreign, or digest-mismatched.

    Subclasses :class:`ValueError`, so pre-existing ``except ValueError``
    call sites (and the CLI's error mapping) keep working; ``path`` names
    the offending file so tooling can :meth:`ReportStore.quarantine` it.
    """

    def __init__(self, message: str, path: Optional[Path] = None) -> None:
        super().__init__(message)
        self.path = path


def _is_key(name: str) -> bool:
    """Whether ``name`` is a bare file name: no directory part, so a key
    joined to the store root names a file in the root itself."""
    return name not in ("", ".", "..") and Path(name).name == name


def _is_file(path: Path) -> bool:
    """``path.is_file()``, but false for a name the file system refuses
    (too long), which ``is_file`` raises for."""
    try:
        return path.is_file()
    except OSError:
        return False


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry to disk (crash safety of the rename itself).

    Best effort: not every platform/filesystem lets directories be opened
    for fsync, and a failure here only narrows the crash window, never
    correctness (the artefact content was already fsynced).
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform dependent
        pass
    finally:
        os.close(fd)


def _canonical_json(mapping: Mapping[str, Any]) -> str:
    """Canonical (compact, key-sorted) JSON — the *hashing* form only.

    Artefact files themselves are stored indented for human diffing; to
    verify a digest by hand, re-serialise the loaded report mapping through
    this form, not the bytes on disk.
    """
    return json.dumps(mapping, sort_keys=True, separators=(",", ":"))


def report_digest(report: ExperimentReport) -> str:
    """Content digest of a report (SHA-256 prefix of its canonical JSON)."""
    payload = _canonical_json(report.to_mapping()).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:_DIGEST_CHARS]


def run_digest(
    scenario: Union[Mapping[str, Any], Any],
    backend: str,
    seed: int,
    chunk_symbols: int,
) -> str:
    """The *run key*: a digest of everything a report is deterministic in.

    Reports are a pure function of ``(scenario, backend, seed,
    chunk_symbols)`` — never of the executor, worker count or retries — so
    this key can be computed **before** running anything and used to answer
    "has this exact experiment already been simulated?".  It is the key of
    the store's run index (:meth:`ReportStore.find_run`), of in-flight
    dedupe in :mod:`repro.service`, and of resume checkpoints
    (:meth:`ReportStore.run_checkpoint`).

    ``scenario`` is a scenario mapping (or anything with ``to_mapping()``,
    e.g. a :class:`~repro.scenarios.scenario.Scenario`).

    >>> from repro.scenarios import get_scenario
    >>> key = run_digest(get_scenario("ber-vs-photons"), "batch", 0, 8192)
    >>> len(key), key == run_digest(get_scenario("ber-vs-photons"), "batch", 0, 8192)
    (12, True)
    >>> key == run_digest(get_scenario("ber-vs-photons"), "batch", 1, 8192)
    False
    """
    if hasattr(scenario, "to_mapping"):
        scenario = scenario.to_mapping()
    key = {
        "scenario": dict(scenario),
        "backend": backend,
        "seed": seed,
        "chunk_symbols": chunk_symbols,
    }
    digest = hashlib.sha256(_canonical_json(key).encode("utf-8")).hexdigest()
    return digest[:_DIGEST_CHARS]


def artifact_id(report: ExperimentReport) -> str:
    """The report's content-addressed artefact id (without ``.json``).

    The id doubles as a file name inside the flat store directory, so names
    that would traverse or nest paths are rejected rather than silently
    writing outside the store (or into directories that do not exist).
    """
    for label, value in (("scenario name", report.name), ("backend name", report.backend)):
        if any(sep in value for sep in ("/", "\\")) or value.startswith("."):
            raise ValueError(
                f"{label} {value!r} cannot be stored: artefact ids are flat "
                f"file names (no path separators, no leading dot)"
            )
    if "__" in report.backend:
        # list()/latest() parse ids with rsplit("__", 3): scenario names may
        # contain the separator (they sit left of the last three), backend
        # names may not.
        raise ValueError(
            f"backend name {report.backend!r} cannot be stored: artefact ids "
            f"reserve '__' as the field separator right of the scenario name"
        )
    return f"{report.name}__{report.backend}__seed{report.seed}__{report_digest(report)}"


class ReportStore:
    """A directory of persisted experiment reports.

    Parameters
    ----------
    root:
        Store directory; created on first :meth:`save`.  The store is flat —
        artefact ids are unique by construction (scenario name, backend, seed
        and content digest are all part of the id).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # -- writing ---------------------------------------------------------------
    def save(self, report: ExperimentReport, run_key: Optional[str] = None) -> Path:
        """Persist ``report``; returns the artefact path.

        Idempotent: an artefact with identical content is overwritten in
        place (same id), never duplicated.

        ``run_key`` (see :func:`run_digest`) additionally records the run
        index entry ``run_key -> artefact id``, making the completed run an
        O(1) cache hit for :meth:`find_run` — the dedupe path of the
        experiment service and of ``repro probe``.
        """
        if not isinstance(report, ExperimentReport):
            raise TypeError(f"can only store ExperimentReport values, got {report!r}")
        self.root.mkdir(parents=True, exist_ok=True)
        name = artifact_id(report)
        envelope = {
            "format": ARTIFACT_FORMAT,
            "artifact": name,
            "saved_unix": time.time(),
            "report": report.to_mapping(),
        }
        path = self.root / f"{name}.json"
        # Atomic and durable: an interrupted run (Ctrl-C, OOM, power loss)
        # must never leave a truncated artefact behind — write aside, flush
        # to disk, then rename into place.  A crash before the rename leaves
        # only a dot-prefixed scratch file, which list()/load()/latest()
        # never see; concurrent saves of the same id are last-writer-wins
        # (each writes its own scratch, renames are atomic), never
        # interleaved.
        scratch = self.root / f".{name}.tmp-{os.getpid()}-{next(_SCRATCH_COUNTER)}"
        with open(scratch, "w") as handle:
            handle.write(json.dumps(envelope, sort_keys=True, indent=2))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, path)
        _fsync_directory(self.root)
        if run_key is not None:
            self._record_run(run_key, name)
        return path

    # -- run index ---------------------------------------------------------------
    def _run_index_path(self, run_key: str) -> Path:
        return self.root / "index" / f"{run_key}.json"

    def _record_run(self, run_key: str, artifact: str) -> None:
        """Durably map ``run_key`` to a completed artefact id (atomic write)."""
        index_dir = self.root / "index"
        index_dir.mkdir(parents=True, exist_ok=True)
        entry = {
            "format": RUN_INDEX_FORMAT,
            "run": run_key,
            "artifact": artifact,
            "saved_unix": time.time(),
        }
        scratch = index_dir / f".{run_key}.tmp-{os.getpid()}-{next(_SCRATCH_COUNTER)}"
        scratch.write_text(json.dumps(entry, sort_keys=True, indent=2))
        os.replace(scratch, self._run_index_path(run_key))

    def find_run(self, run_key: str) -> Optional[str]:
        """Artefact id of the completed run with this key, or ``None``.

        Tolerant by construction: a missing/corrupt index entry, or an entry
        whose artefact was since deleted or quarantined, reads as a cache
        miss (re-running lands on the same artefact id and re-records the
        entry), never as an error.
        """
        path = self._run_index_path(run_key)
        try:
            entry = json.loads(path.read_bytes().decode("utf-8"))
        except (OSError, ValueError, RecursionError):  # missing, UTF-8, JSON, nesting
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("format") != RUN_INDEX_FORMAT
            or entry.get("run") != run_key
            or not isinstance(entry.get("artifact"), str)
            or not _is_key(entry["artifact"])
        ):
            return None
        artifact = entry["artifact"]
        if not _is_file(self.root / f"{artifact}.json"):
            return None
        return artifact

    # -- reading ---------------------------------------------------------------
    def _resolve(self, ref: Union[str, Path], paths: bool = False) -> Path:
        """Resolve an artefact reference: an id, an id + ``.json`` or, with
        ``paths``, the path of a file anywhere.

        By default the reference is a key of this store only, a bare file
        name under the root, so that no key a service client sends reaches a
        file outside the store; ``paths=True`` is for callers that take a
        path from their own user, such as ``repro show``.
        """
        if paths and _is_file(Path(ref)):
            return Path(ref)
        name = str(ref)
        if not name.endswith(".json"):
            name = f"{name}.json"
        path = self.root / name
        if (paths or _is_key(name)) and _is_file(path):
            return path
        known = ", ".join(self.list()) or "<empty store>"
        raise FileNotFoundError(
            f"no artefact {str(ref)!r} in store {self.root}; available: {known}"
        )

    def read_envelope(self, ref: Union[str, Path], paths: bool = False) -> Dict[str, Any]:
        """The raw artefact envelope (format, artefact id, timestamp, report).

        Verifies the envelope end to end — valid UTF-8 JSON nested no deeper
        than the interpreter can parse, the expected format tag, a report
        payload, and the content digest embedded in the artefact id matching
        a recomputation over the payload — and raises
        :class:`CorruptArtifactError` (a :class:`ValueError`) naming the
        file otherwise.  Truncated writes, bit rot, and hand-edited
        artefacts all surface here instead of as downstream surprises.
        ``ref`` is a key of this store, or with ``paths=True`` also a path
        (see :meth:`_resolve`).
        """
        path = self._resolve(ref, paths)
        try:
            envelope = json.loads(path.read_bytes().decode("utf-8"))
        except (ValueError, RecursionError) as error:  # UTF-8, JSON, nesting
            raise CorruptArtifactError(
                f"artefact {path} is not valid JSON: {error}", path=path
            ) from error
        if not isinstance(envelope, dict) or envelope.get("format") != ARTIFACT_FORMAT:
            raise CorruptArtifactError(
                f"artefact {path} is not a {ARTIFACT_FORMAT} envelope "
                f"(format={envelope.get('format') if isinstance(envelope, dict) else None!r})",
                path=path,
            )
        if not isinstance(envelope.get("report"), dict):
            raise CorruptArtifactError(
                f"artefact {path} carries no report payload", path=path
            )
        artifact = envelope.get("artifact")
        parts = artifact.rsplit("__", 3) if isinstance(artifact, str) else []
        if len(parts) != 4:
            raise CorruptArtifactError(
                f"artefact {path} has no well-formed artefact id "
                f"(artifact={artifact!r})",
                path=path,
            )
        try:
            payload = _canonical_json(envelope["report"]).encode("utf-8")
        except RecursionError as error:  # parsed just below the limit
            raise CorruptArtifactError(
                f"artefact {path} nests its report too deeply", path=path
            ) from error
        actual = hashlib.sha256(payload).hexdigest()[:_DIGEST_CHARS]
        if actual != parts[3]:
            raise CorruptArtifactError(
                f"artefact {path} failed digest verification: id says {parts[3]}, "
                f"payload hashes to {actual} — the report content was altered "
                f"after it was saved",
                path=path,
            )
        return envelope

    def quarantine(self, ref: Union[str, Path]) -> Path:
        """Move a (typically corrupt) artefact aside, out of the store's view.

        The file lands in ``<root>/quarantine/`` under its original name;
        :meth:`list`, :meth:`latest` and :meth:`load` no longer see it.
        Returns the new path.
        """
        path = self._resolve(ref)
        refuge = self.root / "quarantine"
        refuge.mkdir(parents=True, exist_ok=True)
        target = refuge / path.name
        os.replace(path, target)
        return target

    def load(self, ref: Union[str, Path], paths: bool = False) -> ExperimentReport:
        """Load an artefact back into an :class:`ExperimentReport`
        (``paths`` as in :meth:`read_envelope`)."""
        return ExperimentReport.from_mapping(self.read_envelope(ref, paths)["report"])

    def list(self, scenario: Optional[str] = None) -> List[str]:
        """Sorted artefact ids, optionally restricted to one scenario name.

        The scenario name is everything before the trailing
        ``__<backend>__seed<seed>__<digest>`` triple, so names containing
        ``__`` filter correctly.
        """
        # One scandir pass over bare names: no Path object per entry.
        try:
            with os.scandir(self.root) as entries:
                names = [entry.name[:-5] for entry in entries if entry.name.endswith(".json")]
        except OSError:  # a missing or unreadable root holds no artefacts
            return []
        # Structural filter: a real artefact id always has the trailing
        # __<backend>__seed<seed>__<digest> triple, so foreign .json files in
        # the (user-facing) store directory never masquerade as artefacts.
        ids = [name for name in names if len(name.rsplit("__", 3)) == 4]
        if scenario is not None:
            ids = [name for name in ids if name.rsplit("__", 3)[0] == scenario]
        return sorted(ids)

    def latest(
        self,
        scenario: Optional[str] = None,
        backend: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> Optional[str]:
        """Id of the most recently saved matching artefact (``None`` if none).

        Recency is the envelope's save timestamp (artefact id as a
        deterministic tie-break), so longitudinal tooling can always diff
        "current run" against "last recorded run".
        """
        best: Optional[Tuple[float, str]] = None
        for name in self.list(scenario):
            # Backend and seed are encoded in the id, so non-matching (and
            # foreign) files are skipped without parsing their JSON.
            parts = name.rsplit("__", 3)
            if len(parts) != 4:
                continue
            if backend is not None and parts[1] != backend:
                continue
            if seed is not None and parts[2] != f"seed{seed}":
                continue
            try:
                envelope = self.read_envelope(name)
            except ValueError:
                # A stray/corrupt .json in the store directory (the default
                # store is a user-facing ./artifacts) must not break the scan.
                continue
            key = (float(envelope.get("saved_unix", 0.0)), name)
            if best is None or key > best:
                best = key
        return None if best is None else best[1]

    # -- longitudinal comparison -----------------------------------------------
    def compare(
        self,
        ref_a: Union[str, Path],
        ref_b: Union[str, Path],
        metric: str,
        paths: bool = False,
    ) -> Dict[str, Any]:
        """Per-point deltas of one metric between two artefacts.

        Points are matched by their parameter values; the result records the
        metric value in each run and ``delta = b - a`` for every point present
        in both, plus the points only one run has (grid drift shows up
        instead of silently vanishing).  ``paths`` is as in
        :meth:`read_envelope`.
        """
        report_a = self.load(ref_a, paths)
        report_b = self.load(ref_b, paths)

        def keyed(report: ExperimentReport):
            return {
                tuple(sorted(point.parameters.items())): point
                for point in report.points
            }

        points_a, points_b = keyed(report_a), keyed(report_b)
        shared = [key for key in points_a if key in points_b]
        rows: List[Dict[str, Any]] = []
        for key in shared:
            a, b = points_a[key].metric(metric), points_b[key].metric(metric)
            rows.append(
                {
                    "parameters": dict(key),
                    "a": a,
                    "b": b,
                    "delta": b - a,
                }
            )
        return {
            "metric": metric,
            "scenario_a": report_a.name,
            "scenario_b": report_b.name,
            "points": rows,
            "only_a": [dict(key) for key in points_a if key not in points_b],
            "only_b": [dict(key) for key in points_b if key not in points_a],
        }

    # -- crash recovery ----------------------------------------------------------
    def run_checkpoint(
        self,
        scenario: Mapping[str, Any],
        backend: str,
        seed: int,
        chunk_symbols: int,
    ) -> "RunCheckpoint":
        """The incremental checkpoint for one exact run of an experiment.

        Keyed by everything a report is deterministic in — the scenario
        mapping, backend, seed, and ``chunk_symbols`` — so a checkpoint can
        only ever resume the *same* run: change any input and the key (hence
        the file) differs, and stale recorded points can never leak into a
        different experiment.
        """
        run_key = run_digest(scenario, backend, seed, chunk_symbols)
        name = str(scenario.get("name", "experiment"))
        safe = name if not any(sep in name for sep in ("/", "\\")) else "experiment"
        path = self.root / "checkpoints" / f"{safe}__{backend}__seed{seed}__{run_key}.jsonl"
        return RunCheckpoint(path, run_key)

    def __repr__(self) -> str:
        return f"ReportStore({str(self.root)!r})"


class RunCheckpoint:
    """Append-only JSONL journal of one run's completed points.

    Line 1 is a header (``{"format": ..., "run": <key>}``); every following
    line is ``{"index": <grid index>, "point": <ExperimentPoint mapping>}``.
    Appends are flushed and fsynced, so a killed run loses at most the point
    that was mid-write — and :meth:`load` tolerates exactly that: a torn
    final line is ignored rather than poisoning the resume.

    Adaptive-budget runs additionally journal *partial rounds*:
    ``{"index": <grid index>, "partial": <accumulated outcome mapping>}``
    lines record a point's cumulative Monte-Carlo state after each
    unconverged round (see :meth:`append_partial` / :meth:`load_partials`),
    so a resumed run continues from the last finished round instead of
    re-simulating it.  Partial lines carry no ``"point"`` key, so
    :meth:`load` — and therefore any pre-adaptive reader — skips them.
    """

    def __init__(self, path: Path, run_key: str) -> None:
        self.path = Path(path)
        self.run_key = run_key

    def exists(self) -> bool:
        return self.path.is_file()

    def _entries(self) -> Iterator[Dict[str, Any]]:
        """The journal's indexed entries, in order, after a valid header.

        The header must be the first line and name this run; a missing
        file, a foreign format or another run's key yields nothing.  Blank
        lines are skipped, and reading stops at the first torn line — one
        that is not UTF-8 JSON or nests too deeply to parse: the tail of a
        killed run, or damage, after which nothing is trusted.  Each line
        is decoded on its own, so a bad byte stops the read at its line.
        """
        if not self.path.is_file():
            return
        lines = self.path.read_bytes().splitlines()
        try:
            header = json.loads(lines[0].decode("utf-8")) if lines else None
        except (ValueError, RecursionError):  # UTF-8, JSON, nesting
            return
        if (
            not isinstance(header, dict)
            or header.get("format") != CHECKPOINT_FORMAT
            or header.get("run") != self.run_key
        ):
            # A different format or another run's key: refuse to resume from
            # it rather than mixing experiments.
            return
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                entry = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError):  # UTF-8, JSON, nesting
                return
            if isinstance(entry, dict) and isinstance(entry.get("index"), int):
                yield entry

    def load(self) -> Dict[int, Mapping[str, Any]]:
        """Recorded points by grid index (empty for a missing/foreign file)."""
        return {
            entry["index"]: entry["point"]
            for entry in self._entries()
            if isinstance(entry.get("point"), dict)
        }

    def load_partials(self) -> Dict[int, Mapping[str, Any]]:
        """Last recorded partial round per grid index (adaptive resume).

        Each partial line carries the point's *cumulative* accumulated
        outcome, so only the latest one per index matters.  Indices that
        later completed (a ``"point"`` line exists) are excluded — their
        partial history is superseded.
        """
        partials: Dict[int, Mapping[str, Any]] = {}
        completed = set()
        for entry in self._entries():
            if isinstance(entry.get("point"), dict):
                completed.add(entry["index"])
            elif isinstance(entry.get("partial"), dict):
                partials[entry["index"]] = entry["partial"]
        return {
            index: partial
            for index, partial in partials.items()
            if index not in completed
        }

    def _append_entry(self, entry: Mapping[str, Any]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        write_header = not self.path.is_file() or self.path.stat().st_size == 0
        with open(self.path, "a") as handle:
            if write_header:
                handle.write(
                    json.dumps({"format": CHECKPOINT_FORMAT, "run": self.run_key}) + "\n"
                )
            handle.write(json.dumps(dict(entry)) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def append(self, index: int, point_mapping: Mapping[str, Any]) -> None:
        """Durably record one completed point."""
        self._append_entry({"index": index, "point": dict(point_mapping)})

    def append_partial(self, index: int, partial_mapping: Mapping[str, Any]) -> None:
        """Durably record one unconverged adaptive round (cumulative state)."""
        self._append_entry({"index": index, "partial": dict(partial_mapping)})

    def discard(self) -> None:
        """Delete the checkpoint (done after the final artefact is saved)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def __repr__(self) -> str:
        return f"RunCheckpoint({str(self.path)!r})"
