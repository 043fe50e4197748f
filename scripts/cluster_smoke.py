#!/usr/bin/env python
"""End-to-end smoke of the real cluster executor (CI gate).

Boots two genuine ``python -m repro worker`` subprocesses on ephemeral ports
(``--listen 127.0.0.1:0``), then proves the distributed fabric's headline
contract with nothing but the standard library:

1. a serial ``repro run`` produces the reference report;
2. ``repro workers`` probes both workers as reachable;
3. a cluster run (``--executor cluster --workers a,b --retry 3``) starts,
   and **one worker is SIGKILLed while the run is in flight** — the run
   must still exit 0 and its report must be byte-for-byte the serial one
   (chunks requeue onto the survivor; seeds are absolute, so the answer
   cannot drift);
4. ``repro workers`` now reports the dead worker unreachable (exit 1 for an
   all-dead fleet, 0 while anyone answers);
5. SIGINT — the surviving worker shuts down cleanly (exit code 0).

Everything is wrapped in a hard deadline: a hung coordinator or worker
fails the job in seconds, not after CI's multi-hour default.  Exit status:
0 on success, 1 on any contract violation (with a diagnostic on stderr).

Usage::

    python scripts/cluster_smoke.py            # from the repository root
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEADLINE_SECONDS = 120.0
SCENARIO = "design-space-grid"
BITS = 1_048_576
SEED = 7
#: Seconds into the cluster run before the victim worker is SIGKILLed —
#: early enough that work is still outstanding (the run takes several
#: seconds at this budget), late enough that the fleet is attached.
KILL_AFTER_SECONDS = 1.0
READY_PATTERN = re.compile(r"^worker listening on (?P<host>[\d.]+):(?P<port>\d+)\s*$")


class SmokeFailure(AssertionError):
    pass


def check(condition, message):
    if not condition:
        raise SmokeFailure(message)


def remaining(deadline):
    return max(1.0, deadline - time.monotonic())


def run_cli(arguments, deadline, env):
    """Run one ``python -m repro …`` command to completion."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *arguments],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=remaining(deadline),
    )


def start_worker(env):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def wait_for_ready_line(worker, deadline):
    """Parse the machine-readable ready line the worker prints on stdout."""
    while time.monotonic() < deadline:
        line = worker.stdout.readline()
        if not line:
            break
        match = READY_PATTERN.match(line.strip())
        if match:
            return f"{match.group('host')}:{match.group('port')}"
    raise SmokeFailure("worker never printed its ready line")


def run_arguments(extra=()):
    return [
        "run", SCENARIO, "--bits", str(BITS), "--seed", str(SEED),
        "--json", "--no-store", "--quiet", *extra,
    ]


def dump_process_stderr(label, process):
    stderr = process.stderr.read() if process.stderr else ""
    if stderr:
        print(f"--- {label} stderr ---\n{stderr}", file=sys.stderr)


def smoke(deadline, env, workers):
    address_a, address_b = (wait_for_ready_line(worker, deadline) for worker in workers)
    fleet = f"{address_a},{address_b}"

    # 1. The serial reference report.
    serial = run_cli(run_arguments(), deadline, env)
    check(serial.returncode == 0, f"serial run exited {serial.returncode}: {serial.stderr}")
    reference = json.loads(serial.stdout)

    # 2. Both workers probe as reachable before the run.
    probe = run_cli(["workers", fleet, "--json"], deadline, env)
    check(probe.returncode == 0, f"fleet probe exited {probe.returncode}: {probe.stderr}")
    states = [row["state"] for row in json.loads(probe.stdout)]
    check(states == ["idle", "idle"], f"fresh fleet probed as {states}")

    # 3. Cluster run with a mid-run worker kill.
    victim = workers[1]
    cluster = subprocess.Popen(
        [sys.executable, "-m", "repro",
         *run_arguments(["--executor", "cluster", "--workers", fleet, "--retry", "3"])],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        time.sleep(KILL_AFTER_SECONDS)
        victim.kill()  # SIGKILL: no goodbye on the wire, the coordinator sees EOF
        stdout, stderr = cluster.communicate(timeout=remaining(deadline))
    except Exception:
        cluster.kill()
        raise
    check(victim.wait(timeout=10) != 0, "the killed worker somehow exited cleanly")
    check(cluster.returncode == 0,
          f"cluster run exited {cluster.returncode} after the kill: {stderr}")
    report = json.loads(stdout)
    check(report == reference,
          "cluster report (one worker killed mid-run) differs from the serial report")

    # 4. The fleet probe now tells the two workers apart.
    probe = run_cli(["workers", fleet, "--json"], deadline, env)
    check(probe.returncode == 0, "probe should exit 0 while any worker answers")
    by_address = {row["address"]: row["state"] for row in json.loads(probe.stdout)}
    check(by_address[address_b] == "unreachable",
          f"killed worker probed as {by_address[address_b]!r}")
    check(by_address[address_a] != "unreachable", "surviving worker probed unreachable")
    dead_probe = run_cli(["workers", address_b], deadline, env)
    check(dead_probe.returncode == 1, "an all-dead fleet must probe as exit 1")

    # 5. Clean shutdown of the survivor on SIGINT, well inside the deadline.
    survivor = workers[0]
    survivor.send_signal(signal.SIGINT)
    code = survivor.wait(timeout=remaining(deadline))
    check(code == 0, f"surviving worker exited {code} on SIGINT")


def main():
    deadline = time.monotonic() + DEADLINE_SECONDS
    pythonpath = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)),
               PYTHONUNBUFFERED="1")
    workers = [start_worker(env), start_worker(env)]
    try:
        smoke(deadline, env, workers)
    except Exception:
        for index, worker in enumerate(workers):
            if worker.poll() is None:
                worker.kill()
                worker.wait(timeout=10)
            dump_process_stderr(f"worker {index}", worker)
        raise
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
                worker.wait(timeout=10)
    print("cluster smoke: ok (fleet probe, mid-run worker kill, bit-identical report, clean shutdown)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeFailure as failure:
        print(f"cluster smoke FAILED: {failure}", file=sys.stderr)
        sys.exit(1)
