"""The ``serve-place`` and ``serve-admit`` workloads.

Each daemon is a fresh ``repro-mc serve --cores 8 --levels 2``
subprocess.  The load comes from this process over ``CONNECTIONS``
keep-alive connections, one thread each, in a closed loop: a connection
sends its next request only after the previous answer has arrived.
Latency is timed per request on the client, from the first byte sent to
the last byte read.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CORES = 8
LEVELS = 2
#: Closed-loop client connections (the machine has two cores).
CONNECTIONS = 2
#: Length of one /place stream; every stream runs on a fresh daemon.
PLACES_PER_ROUND = 1500
#: /admit task-set shape (M=8, K=2, 40-80 tasks, CA-TPA).
ADMIT_TASKS = (40, 80)
#: /admit bodies made per block, between timed stretches.
ADMIT_BLOCK = 1000
#: Daemon starts timed for ``setup_s`` at least.
SETUP_SAMPLES = 3
_LISTEN_RE = re.compile(r"listening on http://([\d.]+):(\d+)")


_CPUS = sorted(os.sched_getaffinity(0))
#: One CPU for the client and another for the daemon, when there are two.
#: Pinning keeps the kernel from putting the client threads and the
#: daemon on one CPU in some runs and on two in others, which otherwise
#: shows up as run-to-run jumps in latency.
CPU_SPLIT = ({_CPUS[0]}, {_CPUS[1]}) if len(_CPUS) >= 2 else None


def pin_client() -> None:
    """Pin the calling thread, and threads it starts later, to the client CPU."""
    if CPU_SPLIT is not None:
        os.sched_setaffinity(0, CPU_SPLIT[0])


class Daemon:
    """One ``repro-mc serve`` subprocess; ``setup_s`` is spawn to banner."""

    def __init__(self, root: Path, trace_out: Path | None = None):
        serve = ["serve", "--cores", str(CORES), "--levels", str(LEVELS), "--port", "0"]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro.cli", *serve]
        else:
            launcher = str(HERE / "traced_daemon.py")
            argv = [sys.executable, launcher, str(trace_out), *serve]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        if CPU_SPLIT is not None:
            # The daemon's later threads inherit this from its main thread.
            os.sched_setaffinity(self.proc.pid, CPU_SPLIT[1])
        self.peak_rss_mb = 0.0
        try:
            self.host, self.port = self._await_banner()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start
        # Keep reading stderr so the daemon can never block on a full pipe.
        self._drain = threading.Thread(target=self.proc.stderr.read, daemon=True)
        self._drain.start()

    def _await_banner(self) -> tuple[str, int]:
        timer = threading.Timer(60.0, self.proc.kill)
        timer.start()
        try:
            for line in self.proc.stderr:
                match = _LISTEN_RE.search(line)
                if match:
                    return match.group(1), int(match.group(2))
        finally:
            timer.cancel()
        raise RuntimeError(f"daemon exited before listening (rc={self.proc.poll()})")

    def get(self, path: str) -> dict:
        conn = Connection(self.host, self.port)
        try:
            status, body = conn.request("GET", path)
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        """Record peak RSS, then SIGTERM (graceful drain) and reap."""
        if self.proc.poll() is None:
            self.peak_rss_mb = peak_rss_mb(self.proc.pid)
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if hasattr(self, "_drain"):
            self._drain.join(timeout=10)
        self.proc.stderr.close()


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a live process: the peak RSS of the program it runs.

    Read from ``/proc`` rather than from ``getrusage``/``wait4``, whose
    ``ru_maxrss`` also counts the forking parent's pages held before
    ``exec``.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Connection:
    """A minimal HTTP/1.1 keep-alive client (Content-Length bodies only)."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self.sock.sendall(head + body)
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        header, _, self.buf = self.buf.partition(b"\r\n\r\n")
        lines = header.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                length = int(value)
        while len(self.buf) < length:
            self._fill()
        data, self.buf = self.buf[:length], self.buf[length:]
        return status, data

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed by the daemon")
        self.buf += chunk

    def close(self) -> None:
        self.sock.close()


def drive(
    daemon: Daemon, path: str, bodies: list[bytes], deadline: float | None = None
):
    """Closed loop over ``CONNECTIONS`` connections.

    Sends ``bodies`` in order (the next free connection takes the next
    body) until all are answered or ``deadline`` passes.  Returns
    ``(answers, elapsed)`` where ``answers[i]`` is ``(status, body,
    seconds)`` for every body sent; status 0 marks a transport failure.
    """
    answers: list[tuple[int, bytes, float] | None] = [None] * len(bodies)
    lock = threading.Lock()
    cursor = iter(range(len(bodies)))

    def worker() -> None:
        conn = None
        while True:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            with lock:
                i = next(cursor, None)
            if i is None:
                break
            t0 = time.perf_counter()
            try:
                if conn is None:
                    conn = Connection(daemon.host, daemon.port)
                status, data = conn.request("POST", path, bodies[i])
            except OSError as exc:
                status, data = 0, str(exc).encode()
                if conn is not None:
                    conn.close()
                conn = None
            answers[i] = (status, data, time.perf_counter() - t0)
        if conn is not None:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    # Indices are taken in order and every taken one is answered, so the
    # answered requests are a prefix of the stream.
    sent = answers[: sum(a is not None for a in answers)]
    if any(a is None for a in sent):
        raise RuntimeError("answers are not a prefix of the stream")
    return sent, elapsed


def daemon_p95(metrics: dict, kind: str) -> float:
    hist = metrics["metrics"]["histograms"].get(f"serve.{kind}.seconds")
    return float(hist["p95"]) if hist and hist.get("p95") is not None else 0.0


def counter(metrics: dict, name: str) -> int:
    return int(metrics["metrics"]["counters"].get(name, 0))


# ----------------------------------------------------------------------
# serve-place
# ----------------------------------------------------------------------
def place_stream(seed: int, round_index: int) -> list[dict]:
    """Single-task /place bodies: HI tasks, period 50-200, u(LO) 0.1-1%."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(round_index,)))
    tasks = []
    for i in range(PLACES_PER_ROUND):
        period = float(rng.uniform(50.0, 200.0))
        lo = period * float(rng.uniform(0.001, 0.01))
        name = f"r{round_index}t{i}"
        tasks.append({"name": name, "period": period, "wcets": [lo, lo * 2]})
    return tasks


def check_place(tasks: list[dict], answers, state: dict) -> tuple[int, int, list[str]]:
    """Check one round; returns ``(errors, accepted, problems)``.

    The final ``/state`` must be feasible on every core; every 200 must
    name the core ``/state`` holds the task on; every 409'd task must be
    infeasible on every final core, which holds because the live set
    only grows between the refusal and the end of the round.
    """
    from repro.analysis import is_feasible_core
    from repro.model import MCTask, MCTaskSet, Partition
    from repro.model.io import taskset_from_dict
    from repro.partition.backend import probe_feasible

    problems: list[str] = []
    bad: set[int] = set()  # answers that fail a check
    final = []
    if state["taskset"] is not None:
        final = list(taskset_from_dict(state["taskset"]))
    core_of = {t.name: int(c) for t, c in zip(final, state["assignment"])}
    accepted, rejected = 0, []
    for i, (status, data, _) in enumerate(answers):
        name = tasks[i]["name"]
        try:
            body = json.loads(data) if status else {}
        except json.JSONDecodeError:
            body = {}
        if status == 200 and body.get("accepted") is True:
            accepted += 1
            if core_of.get(name) != body.get("core"):
                bad.add(i)
                problems.append(
                    f"{name}: answered core {body.get('core')}, "
                    f"/state holds {core_of.get(name)}"
                )
        elif status == 409 and body.get("accepted") is False and body.get("reason"):
            rejected.append(i)
            if name in core_of:
                bad.add(i)
                problems.append(f"{name}: refused but present in /state")
        else:
            bad.add(i)
            problems.append(f"{name}: status {status} is not a placement decision")
    state_errors = 0
    if accepted != len(core_of):
        state_errors += 1
        problems.append(f"{accepted} accepted, but {len(core_of)} tasks in /state")
    refused = [
        MCTask(wcets=tuple(tasks[i]["wcets"]), period=tasks[i]["period"])
        for i in rejected
    ]
    if final or refused:
        part = Partition.from_assignment(
            MCTaskSet(final + refused, levels=LEVELS),
            CORES,
            list(state["assignment"]) + [-1] * len(refused),
        )
        for m in range(CORES):
            if part.core_size(m) and not is_feasible_core(part.level_matrix(m)):
                state_errors += 1
                problems.append(f"final /state core {m} is not Theorem-1 feasible")
        for offset, i in enumerate(rejected):
            if any(probe_feasible(part, m, len(final) + offset) for m in range(CORES)):
                bad.add(i)
                problems.append(f"{tasks[i]['name']}: refused, yet feasible at the end")
    return len(bad) + state_errors, accepted, problems


def run_place(
    seed: int,
    seconds: float,
    root: Path,
    rounds: int | None = None,
    trace_dir: Path | None = None,
) -> dict:
    """Fresh-daemon rounds of one stream each, for ``seconds`` or ``rounds``."""
    latencies: list[float] = []
    setup: list[float] = []
    rss: list[float] = []
    busy = 0.0
    attempted = errors = accepted = overflow = 0
    problems: list[str] = []
    ratios: list[float] = []
    dumps: list[Path] = []
    r = 0
    while r < rounds if rounds is not None else (r == 0 or busy < seconds):
        tasks = place_stream(seed, r)
        bodies = [json.dumps({"task": t}).encode() for t in tasks]
        trace_out = None if trace_dir is None else trace_dir / f"place-{r}.json"
        daemon = Daemon(root, trace_out)
        try:
            setup.append(daemon.setup_s)
            answers, elapsed = drive(daemon, "/place", bodies)
            metrics = daemon.get("/metrics")
            state = daemon.get("/state")
        finally:
            daemon.stop()
        busy += elapsed
        rss.append(daemon.peak_rss_mb)
        lat = [a[2] for a in answers]
        latencies += lat
        attempted += len(answers)
        bad, ok, found = check_place(tasks, answers, state)
        errors += bad
        accepted += ok
        problems += found
        overflow += counter(metrics, "serve.overflow_503")
        ratios.append(daemon_p95(metrics, "place") / float(np.percentile(lat, 95)))
        if trace_out is not None:
            dumps.append(trace_out)
        r += 1
    return {
        "attempted": attempted,
        "failed": min(errors, attempted),
        "problems": problems,
        "rounds": r,
        "busy_s": busy,
        "setup": setup,
        "latencies": latencies,
        "rss": rss,
        "accept_ratio": accepted / attempted,
        "overflow_503": overflow,
        "daemon_over_client_p95": float(np.median(ratios)),
        "dumps": dumps,
    }


# ----------------------------------------------------------------------
# serve-admit
# ----------------------------------------------------------------------
def admit_bodies(seed: int, first: int, count: int) -> tuple[list[bytes], list]:
    """Distinct seeded CA-TPA /admit bodies ``first .. first+count-1``."""
    from repro.gen.generator import generate_taskset
    from repro.gen.params import WorkloadConfig
    from repro.model.io import taskset_to_dict

    config = WorkloadConfig(cores=CORES, levels=LEVELS, task_count_range=ADMIT_TASKS)
    bodies, tasksets = [], []
    for i in range(first, first + count):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        taskset = generate_taskset(config, rng)
        tasksets.append(taskset)
        doc = {"taskset": taskset_to_dict(taskset), "cores": CORES, "scheme": "ca-tpa"}
        bodies.append(json.dumps(doc).encode())
    return bodies, tasksets


def check_admit(tasksets, answers) -> tuple[int, list[str]]:
    """Every answer must equal the offline CA-TPA partitioner's."""
    from repro.metrics.core import imbalance_factor
    from repro.partition.registry import get_partitioner

    partitioner = get_partitioner("ca-tpa")
    errors, problems = 0, []
    for i, (status, data, _) in enumerate(answers):
        if status != 200:
            errors += 1
            problems.append(f"admit {i}: status {status}")
            continue
        body = json.loads(data)
        result = partitioner.partition(tasksets[i], CORES)
        utils = result.partition.core_utilizations("max")
        expected = {
            "schedulable": bool(result.schedulable),
            "assignment": result.partition.assignment.tolist(),
            "order": list(result.order),
            "failed_task": result.failed_task,
            "utilizations": utils.tolist(),
            "lambda": float(imbalance_factor(utils)),
        }
        if any(body.get(k) != v for k, v in expected.items()):
            errors += 1
            problems.append(f"admit {i}: answer differs from the offline partitioner")
    return errors, problems


def run_admit(
    seed: int,
    seconds: float,
    root: Path,
    count: int | None = None,
    trace_dir: Path | None = None,
) -> dict:
    """One daemon answering distinct sets for ``seconds`` (or the first ``count``).

    Bodies are made in blocks, outside the timed closed loop, whenever
    the daemon has answered every body made so far.
    """
    bodies: list[bytes] = []
    tasksets: list = []
    answers: list = []
    busy = 0.0
    trace_out = None if trace_dir is None else trace_dir / "admit.json"
    daemon = Daemon(root, trace_out)
    try:
        while len(answers) < count if count is not None else busy < seconds:
            if len(answers) == len(bodies):
                block = ADMIT_BLOCK
                if count is not None:
                    block = min(block, count - len(bodies))
                more, sets = admit_bodies(seed, len(bodies), block)
                bodies += more
                tasksets += sets
            deadline = None
            if count is None:
                deadline = time.perf_counter() + seconds - busy
            got, elapsed = drive(daemon, "/admit", bodies[len(answers):], deadline)
            answers += got
            busy += elapsed
        metrics = daemon.get("/metrics")
    finally:
        daemon.stop()
    lat = [a[2] for a in answers]
    errors, problems = check_admit(tasksets, answers)
    return {
        "attempted": len(answers),
        "failed": errors,
        "problems": problems,
        "busy_s": busy,
        "setup": [daemon.setup_s],
        "latencies": lat,
        "rss": [daemon.peak_rss_mb],
        "overflow_503": counter(metrics, "serve.overflow_503"),
        "daemon_over_client_p95": (
            daemon_p95(metrics, "admit") / float(np.percentile(lat, 95))
        ),
        "dumps": [trace_out] if trace_out is not None else [],
    }


def extra_setup(root: Path, have: list[float]) -> list[float]:
    """Top the daemon start samples up to ``SETUP_SAMPLES``."""
    samples = list(have)
    while len(samples) < SETUP_SAMPLES:
        daemon = Daemon(root)
        daemon.stop()
        samples.append(daemon.setup_s)
    return samples
