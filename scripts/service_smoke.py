#!/usr/bin/env python
"""End-to-end smoke of the real ``repro serve`` daemon (CI gate).

Boots ``python -m repro serve`` as a genuine subprocess on an ephemeral port
(``--port 0``), then exercises the whole service loop with nothing but the
standard library:

1. ``GET /scenarios`` — the catalogue answers;
2. ``POST /runs`` — a run starts and its SSE stream delivers every point
   plus the terminal ``report`` event;
3. the same request again — served as a dedupe/cache hit: ``/stats`` shows
   the execution count did **not** increase;
4. a second seed plus ``GET /compare`` — the analysis surface works over
   artefacts the daemon itself stored;
5. SIGINT — the server shuts down cleanly (exit code 0).

Everything is wrapped in a hard deadline: a hung server fails the job in
seconds, not after CI's multi-hour default.  Exit status: 0 on success,
1 on any contract violation (with a diagnostic on stderr).

Usage::

    python scripts/service_smoke.py            # from the repository root
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from urllib.parse import urlencode

REPO_ROOT = Path(__file__).resolve().parent.parent
DEADLINE_SECONDS = 120.0
SCENARIO = "ber-vs-photons"
BITS = 256
READY_PATTERN = re.compile(r"^serving http://(?P<host>[\d.]+):(?P<port>\d+)\s*$")


class SmokeFailure(AssertionError):
    pass


def check(condition, message):
    if not condition:
        raise SmokeFailure(message)


def get_json(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def post_json(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def stream_events(base, run_key):
    """Consume one run's SSE stream; returns the list of (event, data)."""
    events, event, data_lines = [], "", []
    with urllib.request.urlopen(f"{base}/runs/{run_key}/events", timeout=60) as response:
        for raw in response:
            line = raw.decode("utf-8").rstrip("\r\n")
            if line == "":
                if data_lines:
                    events.append((event, json.loads("\n".join(data_lines))))
                    if event in ("report", "error"):
                        return events
                event, data_lines = "", []
            elif line.startswith("event:"):
                event = line.partition(":")[2].strip()
            elif line.startswith("data:"):
                data_lines.append(line.partition(":")[2].lstrip(" "))
    return events


def wait_for_ready_line(server, deadline):
    """Parse the machine-readable ready line the CLI prints on stdout."""
    while time.monotonic() < deadline:
        line = server.stdout.readline()
        if not line:
            break
        match = READY_PATTERN.match(line.strip())
        if match:
            return match.group("host"), int(match.group("port"))
    raise SmokeFailure("server never printed its ready line")


def run_request(seed):
    return {"scenario": SCENARIO, "seed": seed, "bits": BITS}


def smoke(base):
    # 1. Catalogue.
    catalogue = get_json(base, "/scenarios")
    check(any(entry["name"] == SCENARIO for entry in catalogue),
          f"{SCENARIO} missing from /scenarios")
    check(get_json(base, "/stats")["executions"] == 0, "fresh server has executions")

    # 2. Fresh run + full SSE stream.
    status = post_json(base, "/runs", run_request(seed=5))
    check(status["status"] == "started", f"first submit was {status['status']!r}")
    events = stream_events(base, status["run"])
    kinds = [event for event, _ in events]
    check(kinds[-1] == "report", f"stream ended with {kinds[-1]!r}, not a report")
    check(kinds[:-1] == ["point"] * status["points"],
          f"expected {status['points']} point events, saw {kinds[:-1]}")
    report = events[-1][1]["report"]
    check(len(report["points"]) == status["points"], "report is missing points")

    # 3. Identical request → dedupe/cache hit, no second execution.
    executions = get_json(base, "/stats")["executions"]
    check(executions == 1, f"expected 1 execution, saw {executions}")
    again = post_json(base, "/runs", run_request(seed=5))
    check(again["status"] == "cached", f"repeat submit was {again['status']!r}")
    replay = stream_events(base, again["run"])
    check(replay[-1][1]["report"] == report, "cached stream replayed a different report")
    check(get_json(base, "/stats")["executions"] == executions,
          "the repeated request re-executed the simulation")

    # 4. Second seed, then compare the two artefacts the daemon stored.
    second = post_json(base, "/runs", run_request(seed=6))
    stream_events(base, second["run"])
    artifacts = get_json(base, "/artifacts")["artifacts"]
    check(len(artifacts) == 2, f"expected 2 artifacts, saw {artifacts}")
    query = urlencode({"a": artifacts[0], "b": artifacts[1], "metric": "ber"})
    comparison = get_json(base, f"/compare?{query}")
    check(len(comparison.get("points", ())) == status["points"],
          "compare did not pair every grid point")


def main():
    deadline = time.monotonic() + DEADLINE_SECONDS
    pythonpath = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)),
               PYTHONUNBUFFERED="1")
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as store:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--store", store],
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            host, port = wait_for_ready_line(server, deadline)
            base = f"http://{host}:{port}"
            smoke(base)
            # 5. Clean shutdown on SIGINT, well inside the deadline.
            server.send_signal(signal.SIGINT)
            code = server.wait(timeout=max(1.0, deadline - time.monotonic()))
            check(code == 0, f"server exited {code} on SIGINT")
        except Exception:
            server.kill()
            server.wait(timeout=10)
            stderr = server.stderr.read()
            if stderr:
                print(f"--- server stderr ---\n{stderr}", file=sys.stderr)
            raise
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=10)
    print("service smoke: ok (run, dedupe hit, SSE stream, compare, clean shutdown)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeFailure as failure:
        print(f"service smoke FAILED: {failure}", file=sys.stderr)
        sys.exit(1)
