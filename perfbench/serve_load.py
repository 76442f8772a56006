"""The ``serve-hot`` and ``serve-mixed`` workloads.

The server is ``python -m repro.serve serve`` in a subprocess pinned to
one core (or, traced, the :mod:`server` launcher around the same entry
point); this process is the load generator, pinned to another core, with
two NDJSON connections.  Both workloads are closed loops: each
connection keeps a fixed number of queries pipelined and sends the next
event as answers land.

* ``serve-hot`` — ``INFLIGHT["serve-hot"]`` queries per connection, all
  hits on a warmed pool that spans fastsim, batchsim and the exact
  family.
* ``serve-mixed`` — ``INFLIGHT["serve-mixed"]`` queries per connection
  over a seeded stream in which 75% of queries are hot-pool hits, 10%
  fresh batchsim cells sent as bursts of four identical queries (one
  computes, three coalesce), 10% fresh fastsim queries and 5% fastsim
  ``run_until``.  Fresh results outgrow the 256-entry LRU, so eviction
  runs, and kernels on executor threads compete with the event loop.

Time is measured on the server's CPU clock (:class:`CpuClock`): on a
shared virtual machine the server's core is often taken by other
tenants, and wall-clock figures of identical runs spread by 2x, while
CPU-clock figures of a saturated server stay within a few per cent.
Latency percentiles are taken over every answer of the timed window.
For throughput the window is cut into ``SUBWINDOWS`` pieces and the
upper quartile over them is reported, which keeps the least-contended
stretches of the run.  Wall figures are kept in the result file beside
them.

The service shares one ``TrialRunner`` per ``(scenario, p, n, params)``,
and two batchsim runs in flight on one runner corrupt each other's
batch-program state (wrong indicators, then memoised).  So every query
that computes on the batchsim tier carries a ``p`` from a slot of its
own: the family's base value plus ``slot * P_STEP``.  The hot pool
holds slots ``0 .. HOT_BATCHSIM - 1``; bursts cycle through the next
``P_SLOTS``, more than the bursts that can be in flight at once, so no
two in-flight computes share a runner.  The offsets are bounded, so the
work per query does not drift with the run's length, and too small to
change any cell's round count.

Set-up (server start to listening, plus warming the pool, in server CPU
seconds) is repeated ``SETUPS`` times and its median reported.  Every
answer sharing a fingerprint must carry one ``indicators_sha256``, and
after the timed window a seeded sample of answers is recomputed in this
process through ``TrialRunner`` and must match.
"""

from __future__ import annotations

import asyncio
import bisect
import collections
import hashlib
import itertools
import json
import os
import random
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

import common
from common import median, quantile, ratio

#: Set-ups per run; the median is reported as ``setup_s``.
SETUPS = 3
#: Client connections (never more than the cores the benchmark has).
CONNECTIONS = 2
#: Queries each connection keeps in flight, per workload.
INFLIGHT = {"serve-hot": 32, "serve-mixed": 24}
#: Closed-loop warm-up before the timed window, discarded (seconds).
WARMUP_SECONDS = 1.0
#: Pieces of the timed window the reported figures are taken over, and
#: the fewest answers a piece needs to count.
SUBWINDOWS = 10
MIN_PIECE_ANSWERS = 100

#: Fastsim-served cells for the pools: ``(family, p, n)``.
FASTSIM = tuple(
    (family, p, n)
    for family, p, sizes in (
        ("simple-omission", 0.3, (3, 4, 5, 6)),
        ("simple-omission-radio", 0.2, (3, 4, 5)),
        ("simple-malicious-mp", 0.2, (3, 4, 5)),
        ("flooding", 0.1, (8, 16, 32)),
        ("grid-flooding", 0.1, (4, 6)),
        ("equalizing-star", 0.2, (3, 4)),
        ("layered-omission", 0.1, (3, 4)),
        ("radio-repeat", 0.2, (8, 16)),
    )
    for n in sizes
)
#: Batchsim cells, each about 10 ms of kernel work: ``(family, p, n,
#: trials)``.
BATCHSIM = (
    ("windowed-malicious", 0.2, 3, 64),
    ("kucera-flip", 0.2, 4, 64),
    ("round-robin", 0.3, 2, 64),
    ("hello", 0.6, 8, 256),
)
#: Exact (combinatorial) family sizes; trials=1 and seed=0 are pinned.
EXACT_SIZES = (2, 3, 4)
#: The hot pool: 48 fastsim + 12 batchsim + 3 exact entries, well
#: inside the server's 256-entry LRU.
HOT_FASTSIM, HOT_BATCHSIM = 48, 12
#: ``run_until`` queries: a fastsim (prefix-stable) flooding cell with
#: success near 1/2; Hoeffding stops after the 512, 1024 and 2048
#: extensions.
RUN_UNTIL = {"op": "run_until", "scenario": "flooding", "p": 0.4, "n": 16,
             "params": {"rounds": 26}, "target_width": 0.1,
             "max_trials": 8192}
#: Step between the distinct ``p`` of batchsim-tier queries, and the
#: slots bursts cycle through (see above).
P_STEP = 1e-9
P_SLOTS = 64
#: One block of ``serve-mixed`` events: 30 hits, 1 burst of ``BURST``,
#: 4 fresh fastsim and 2 ``run_until`` — 40 queries in the 75/10/10/5
#: proportions.
BURST = 4
#: Bursts that can be in flight at once must fit in ``P_SLOTS``.
assert P_SLOTS * BURST > CONNECTIONS * max(INFLIGHT.values())
MIXED_BLOCK = ("hit",) * 30 + ("burst",) + ("fresh",) * 4 + ("until",) * 2
#: Answers recomputed in-process after the window.
VERIFY_SAMPLE = 8
#: Linux socket option for nanosecond receive stamps; Python's socket
#: module does not name it.
SO_TIMESTAMPNS = 35


# -- inputs ----------------------------------------------------------
#
# The seed picks root seeds and orders; the composition of every input
# (cells, trial counts, event kinds) is fixed, so runs with different
# seeds do the same amount of work.


def balanced(rng: random.Random, items) -> Iterator:
    """Endless picks using every item equally often, in seeded order."""
    while True:
        block = list(items)
        rng.shuffle(block)
        yield from block


def fastsim_query(rng: random.Random, cell, trials: int) -> Dict:
    family, p, n = cell
    return {"scenario": family, "p": p, "n": n, "trials": trials,
            "seed": rng.randrange(2**31)}


def own_p(base: float, slot: int) -> float:
    """The ``p`` of runner slot ``slot`` near ``base``."""
    return round(base + slot * P_STEP, 12)


def batchsim_query(rng: random.Random, cell, slot: int) -> Dict:
    family, p, n, trials = cell
    return {"scenario": family, "p": own_p(p, slot), "n": n,
            "trials": trials, "seed": rng.randrange(2**31)}


def hot_pool(seed: int) -> List[Dict]:
    rng = random.Random(f"hot-pool/{seed}")
    pool = [fastsim_query(rng, FASTSIM[i % len(FASTSIM)], (1024, 4096)[i % 2])
            for i in range(HOT_FASTSIM)]
    pool += [batchsim_query(rng, BATCHSIM[i % len(BATCHSIM)], i)
             for i in range(HOT_BATCHSIM)]
    pool += [{"scenario": "layered-opt", "p": 0.0, "n": n, "trials": 1,
              "seed": 0} for n in EXACT_SIZES]
    return pool


def hot_events(seed: int, stream: str) -> Iterator[Tuple[str, List[Dict]]]:
    """``serve-hot``: every pool entry equally often, one query each."""
    rng = random.Random(f"hot-order/{seed}/{stream}")
    for request in balanced(rng, hot_pool(seed)):
        yield "hit", [request]


def mixed_events(seed: int, stream: str) -> Iterator[Tuple[str, List[Dict]]]:
    """``serve-mixed``: shuffled ``MIXED_BLOCK`` blocks, fresh seeds."""
    rng = random.Random(f"serve-mixed/{seed}/{stream}")
    hits = balanced(rng, hot_pool(seed))
    bursts = balanced(rng, BATCHSIM)
    fresh = balanced(rng, FASTSIM)
    slots = itertools.cycle(range(HOT_BATCHSIM, HOT_BATCHSIM + P_SLOTS))
    for kind in balanced(rng, MIXED_BLOCK):
        if kind == "hit":
            yield kind, [next(hits)]
        elif kind == "burst":
            yield kind, [batchsim_query(rng, next(bursts), next(slots))] * BURST
        elif kind == "fresh":
            yield kind, [fastsim_query(rng, next(fresh), 4096)]
        else:
            yield kind, [dict(RUN_UNTIL, seed=rng.randrange(2**31))]


def events_for(workload: str, seed: int,
               stream: str) -> Iterator[Tuple[str, List[Dict]]]:
    """The workload's event stream; the warm-up and the timed window
    are different streams (other orders, other fresh seeds)."""
    events = hot_events if workload == "serve-hot" else mixed_events
    return events(seed, stream)


def load_shape(workload: str) -> Dict[str, Any]:
    """How the load was shaped, for the provenance stamp."""
    return {"clock": "server CPU", "loop": "closed",
            "connections": CONNECTIONS,
            "inflight_per_connection": INFLIGHT[workload],
            "subwindows": SUBWINDOWS, "setups": SETUPS}


def encode(request: Dict, request_id: int) -> bytes:
    return (json.dumps(dict(request, id=request_id), separators=(",", ":"))
            + "\n").encode("utf8")


# -- server process --------------------------------------------------


class Server:
    """One server subprocess, pinned to the server core."""

    def __init__(self, traced: bool, tag: str, cores: List[int]):
        self.traced = traced
        self.cores = cores
        self.summary_path = common.out_path(f"server-{tag}-summary.json")
        self.spans_path = common.out_path(f"spans-{tag}.jsonl")
        self._log_path = common.out_path(f"server-{tag}.log")
        self.process: Optional[subprocess.Popen] = None
        self.address: Tuple[str, int] = ("127.0.0.1", 0)

    def start(self, timeout: float = 60.0) -> None:
        serve_args = ["serve", "--host", "127.0.0.1", "--port", "0"]
        if self.traced:
            command = [sys.executable, os.path.join(common.HERE, "server.py"),
                       "--summary", self.summary_path,
                       "--spans", self.spans_path, "--", *serve_args]
        else:
            command = [sys.executable, "-m", "repro.serve", *serve_args]
        cores = self.cores
        with open(self._log_path, "w", encoding="utf8") as log:
            self.process = subprocess.Popen(
                command, cwd=common.ROOT, env=common.child_env(),
                stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                preexec_fn=lambda: common.pin_to(cores),
            )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self._log_path, encoding="utf8") as handle:
                for line in handle:
                    if "listening on" in line:
                        host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
                        self.address = (host, int(port))
                        return
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not start; see {self._log_path}")

    def cpu_seconds(self) -> float:
        """On-CPU seconds of every server thread so far (nanosecond
        ``schedstat`` counters; threads that already exited are gone)."""
        task_dir = f"/proc/{self.process.pid}/task"
        total = 0
        for tid in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{tid}/schedstat", encoding="utf8") as stat:
                    total += int(stat.read().split()[0])
            except (FileNotFoundError, ProcessLookupError):
                continue
        return total / 1e9

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="utf8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process = None


class CpuClock:
    """Maps wall-clock instants onto the server's cumulative CPU time.

    A sampler thread reads :meth:`Server.cpu_seconds` about once a
    millisecond; an instant's CPU time is interpolated between samples.
    A latency on this clock is the server CPU time that passed while the
    query was in flight — its own work and the work queued ahead of
    it — but not time the server's core spent on other tenants of the
    machine.
    """

    PERIOD = 0.001

    def __init__(self, server: Server):
        self._server = server
        self.walls: List[float] = []
        self.cpus: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        cpu = self._server.cpu_seconds()
        self.walls.append(time.perf_counter())
        self.cpus.append(max(cpu, self.cpus[-1]) if self.cpus else cpu)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.sample()
            time.sleep(self.PERIOD)

    def __enter__(self) -> "CpuClock":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self.sample()

    def at(self, wall: float) -> float:
        index = bisect.bisect_left(self.walls, wall)
        if index <= 0:
            return self.cpus[0]
        if index >= len(self.walls):
            return self.cpus[-1]
        w0, w1 = self.walls[index - 1], self.walls[index]
        c0, c1 = self.cpus[index - 1], self.cpus[index]
        return c0 + (c1 - c0) * (wall - w0) / (w1 - w0)


# -- client ----------------------------------------------------------


class Connection:
    """A pipelined NDJSON connection that correlates answers by id.

    An answer is timed by when the kernel received it
    (``SO_TIMESTAMPNS``), not by when this process read it.  The load
    generator's core is taken by other tenants too, and while it is, the
    server keeps working through its queue; timed at the read, that
    stall would count as server latency.  Reads are small, so the stamp
    of a read (its last segment's) is close to its last answer's.
    """

    READ_SIZE = 512
    _STAMP = struct.Struct("ll")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.pending: Dict[int, Tuple[float, Any]] = {}
        self._partial = bytearray()
        #: ``(line, kernel stamp, read instant)`` of whole answer lines.
        self._lines: collections.deque = collections.deque()
        self._ready = asyncio.Event()
        self._closed = False
        # Kernel stamps are CLOCK_REALTIME; everything else is timed
        # with time.perf_counter.
        self._offset = time.perf_counter() - time.time()
        asyncio.get_running_loop().add_reader(sock.fileno(), self._on_readable)

    @classmethod
    async def open(cls, address) -> "Connection":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setsockopt(socket.SOL_SOCKET, SO_TIMESTAMPNS, 1)
        sock.setblocking(False)
        try:
            await asyncio.get_running_loop().sock_connect(sock, address)
        except BaseException:
            sock.close()
            raise
        # Sends block (a few KB in flight never fill the buffer); reads
        # pass MSG_DONTWAIT.
        sock.setblocking(True)
        return cls(sock)

    def _on_readable(self) -> None:
        while True:
            try:
                data, ancillary, _flags, _address = self.sock.recvmsg(
                    self.READ_SIZE, socket.CMSG_SPACE(self._STAMP.size),
                    socket.MSG_DONTWAIT)
            except BlockingIOError:
                break
            except OSError:
                data = b""
            read = time.perf_counter()
            if not data:
                self._closed = True
                asyncio.get_running_loop().remove_reader(self.sock.fileno())
                break
            stamp = read
            for level, kind, payload in ancillary:
                if level == socket.SOL_SOCKET and kind == SO_TIMESTAMPNS:
                    seconds, nanoseconds = self._STAMP.unpack(payload)
                    stamp = seconds + 1e-9 * nanoseconds + self._offset
            self._partial += data
            while True:
                end = self._partial.find(b"\n")
                if end < 0:
                    break
                self._lines.append((bytes(self._partial[:end]), stamp, read))
                del self._partial[:end + 1]
        self._ready.set()

    def send(self, line: bytes, request_id: int, tag: Any) -> None:
        self.pending[request_id] = (time.perf_counter(), tag)
        self.sock.sendall(line)

    async def receive(self) -> Tuple[Any, float, float, float, Dict]:
        """The next answer: ``(tag, sent, received, read, answer)``."""
        while not self._lines:
            if self._closed:
                raise ConnectionError("server closed the connection")
            self._ready.clear()
            await self._ready.wait()
        line, received, read = self._lines.popleft()
        answer = json.loads(line)
        started, tag = self.pending.pop(answer["id"])
        return tag, started, received, read, answer

    async def close(self) -> None:
        if not self._closed:
            asyncio.get_running_loop().remove_reader(self.sock.fileno())
            self._closed = True
        self.sock.close()


class Ledger:
    """Every answer seen, with the checks that make it correct."""

    def __init__(self):
        self.digests: Dict[str, str] = {}
        self.requests: Dict[str, Dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Set while the timed window runs; answers computed inside it
        #: are the pool the post-window recomputation samples from.
        self.in_window = False
        self.window_computed: set = set()

    def check(self, request: Dict, answer: Dict) -> None:
        self.attempted += 1
        if not answer.get("ok"):
            self.fail(f"error answer: {answer.get('error')}: "
                      f"{answer.get('message')}")
            return
        fingerprint = answer["fingerprint"]
        sha = answer["indicators_sha256"]
        known = self.digests.setdefault(fingerprint, sha)
        self.requests.setdefault(fingerprint, request)
        if self.in_window and answer.get("source") == "computed":
            self.window_computed.add(fingerprint)
        if known != sha:
            self.fail(f"fingerprint {fingerprint[:12]} answered with two "
                      f"indicator digests")

    def fail(self, text: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(text)


async def fill(address, requests: List[Dict], ledger: Ledger) -> None:
    """Send ``requests`` eight in flight and check every answer."""
    conn = await Connection.open(address)
    try:
        next_index = 0
        for _ in range(len(requests)):
            while next_index < len(requests) and len(conn.pending) < 8:
                conn.send(encode(requests[next_index], next_index),
                          next_index, next_index)
                next_index += 1
            index, *_, answer = await conn.receive()
            ledger.check(requests[index], answer)
    finally:
        await conn.close()


async def wire_op(address, op: str) -> Dict:
    conn = await Connection.open(address)
    try:
        conn.send(encode({"op": op}, 0), 0, op)
        return (await conn.receive())[-1]
    finally:
        await conn.close()


async def set_up(seed: int, traced: bool, tag: str, ledger: Ledger,
                 cores: List[int]) -> Tuple[Server, float, float]:
    """Start a server and warm it.

    Returns the server, the CPU seconds it used from exec to warm and
    the wall seconds the same took.
    """
    started = time.perf_counter()
    server = Server(traced, tag, cores)
    server.start()
    try:
        await fill(server.address, hot_pool(seed), ledger)
        cpu = server.cpu_seconds()
    except BaseException:
        server.stop()
        raise
    return server, cpu, time.perf_counter() - started


async def closed_loop(address, events: Iterator[Tuple[str, List[Dict]]],
                      inflight: int, seconds: float,
                      ledger: Ledger) -> Dict[str, Any]:
    """Keep ``inflight`` queries pipelined per connection for ``seconds``.

    A new event (one query, or a burst of identical ones) goes out as
    soon as a connection has room; nothing is sent after the deadline,
    and every answer in flight is awaited.  Records are
    ``(sent, received, read, trials, source, kind, elapsed_ms)``.
    """
    records: List[Tuple[float, float, float, int, str, str, float]] = []
    ids = itertools.count()

    async def drive(conn: Connection, deadline: float) -> None:
        while True:
            while (len(conn.pending) < inflight
                   and time.perf_counter() < deadline):
                kind, batch = next(events)
                for request in batch:
                    request_id = next(ids)
                    conn.send(encode(request, request_id), request_id,
                              (kind, request))
            if not conn.pending:
                return
            (kind, request), started, now, read, answer = await conn.receive()
            ledger.check(request, answer)
            records.append((started, now, read, answer.get("trials", 0),
                            answer.get("source", "error"), kind,
                            answer.get("elapsed_ms", 0.0)))

    conns = [await Connection.open(address) for _ in range(CONNECTIONS)]
    try:
        start = time.perf_counter()
        await asyncio.gather(*(drive(conn, start + seconds)
                               for conn in conns))
        end = time.perf_counter()
    finally:
        for conn in conns:
            await conn.close()
    return {"records": records, "start": start, "end": end}


# -- verification ----------------------------------------------------


def recompute(request: Dict) -> str:
    """The request's indicator digest, recomputed in this process."""
    import numpy as np
    from repro.experiments.registry import FAMILY_EXACT, get_family
    from repro.montecarlo import TrialRunner
    from repro.serve.service import (SEQUENTIAL_CONFIDENCE,
                                     SEQUENTIAL_INITIAL_TRIALS)
    family = get_family(request["scenario"])
    built, failure_model = family.build(request["p"], request["n"],
                                        **request.get("params", {}))
    if family.kind == FAMILY_EXACT:
        indicators = np.array([bool(built())], dtype=bool)
    elif request.get("op") == "run_until":
        indicators = TrialRunner(built, failure_model).run_until(
            request["target_width"], request["max_trials"], request["seed"],
            SEQUENTIAL_CONFIDENCE, bound=request.get("bound", "hoeffding"),
            initial_trials=SEQUENTIAL_INITIAL_TRIALS).result.indicators
    else:
        indicators = TrialRunner(built, failure_model).run(
            request["trials"], request["seed"]).indicators
    return hashlib.sha256(indicators.tobytes()).hexdigest()


def verify_sample(ledger: Ledger, fingerprints: List[str], seed: int) -> int:
    """Recompute a seeded sample; returns how many were checked."""
    rng = random.Random(f"verify/{seed}")
    chosen = rng.sample(fingerprints, min(VERIFY_SAMPLE, len(fingerprints)))
    for fingerprint in chosen:
        if recompute(ledger.requests[fingerprint]) != ledger.digests[fingerprint]:
            ledger.fail(f"fingerprint {fingerprint[:12]}: recomputed "
                        f"indicators differ from the served answer")
    return len(chosen)


# -- metrics ---------------------------------------------------------


def stats_delta(before: Dict, after: Dict) -> Dict[str, float]:
    def delta(section: str, key: str) -> float:
        return after[section][key] - before[section][key]

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    started = delta("coalescer", "started")
    joined = delta("coalescer", "joined")
    admitted = delta("admission", "admitted")
    rejected = delta("admission", "rejected")
    return {"cache.hit_ratio": ratio(hits, hits + misses),
            "coalescer.joined_ratio": ratio(joined, started + joined),
            "admission.rejected_ratio": ratio(rejected, admitted + rejected),
            "cache.evictions": delta("cache", "evictions")}


def histogram_means(before: Dict, after: Dict) -> Dict[str, float]:
    """Window means of the server's own ``serve.*.seconds`` histograms
    (sum/count deltas, in microseconds) for the trace cross-check."""
    def totals(payload):
        out: Dict[str, List[float]] = {}
        for entry in payload["metrics"]["histograms"]:
            name = entry["name"]
            if name.startswith("serve.") and name.endswith(".seconds"):
                acc = out.setdefault(name, [0.0, 0])
                acc[0] += entry["sum"]
                acc[1] += entry["count"]
        return out

    first, second = totals(before), totals(after)
    return {name: 1e6 * ratio(total - first.get(name, [0.0, 0])[0],
                              count - first.get(name, [0.0, 0])[1])
            for name, (total, count) in second.items()}


def window_metrics(records, clock: CpuClock, start: float,
                   end: float) -> Dict[str, Any]:
    """Throughput and latency on the server CPU clock; wall figures
    beside.  Latency percentiles are over every answer of the window;
    throughput is the upper quartile over the ``SUBWINDOWS`` pieces."""
    pieces = []
    width = (end - start) / SUBWINDOWS
    for index in range(SUBWINDOWS):
        low, high = start + index * width, start + (index + 1) * width
        rows = [row for row in records if low <= row[1] < high]
        cpu = max(clock.at(high) - clock.at(low), 1e-9)
        pieces.append({"answers": len(rows), "cpu_s": cpu,
                       "qps": len(rows) / cpu,
                       "trials_per_s": sum(row[3] for row in rows) / cpu})
    # A piece the server barely ran in (its core was taken) says nothing.
    full = [p for p in pieces if p["answers"] >= MIN_PIECE_ANSWERS] or pieces

    def best(key: str) -> float:
        return quantile([piece[key] for piece in full], 0.75)

    latencies = [1e3 * (clock.at(now) - clock.at(sent))
                 for sent, now, *_ in records]
    # The same, timed at the read: what a stalled load generator adds.
    at_read = [1e3 * (clock.at(read) - clock.at(sent))
               for sent, _now, read, *_ in records]
    wall = [1e3 * (now - sent) for sent, now, *_ in records]
    return {
        "qps": best("qps"),
        "trials_per_s": best("trials_per_s"),
        "latency_p50_ms": quantile(latencies, 0.50),
        "latency_p99_ms": quantile(latencies, 0.99),
        "read_latency_p99_ms": quantile(at_read, 0.99),
        "read_lag_ms_p99": quantile([1e3 * (read - now)
                                     for _sent, now, read, *_ in records],
                                    0.99),
        "subwindows": pieces,
        "cpu_qps": len(records) / max(clock.at(end) - clock.at(start), 1e-9),
        "wall_qps": len(records) / max(end - start, 1e-9),
        "wall_latency_p50_ms": quantile(wall, 0.50),
        "wall_latency_p99_ms": quantile(wall, 0.99),
        "wire_us_mean": common.mean([1e6 * (now - sent) - 1e3 * elapsed
                                     for sent, now, *_, elapsed in records]),
        "window_s": end - start,
        "samples": len(records),
    }


def layer_metrics(tracer, queries: int) -> Dict[str, float]:
    """Per-layer figures from the traced server's span aggregates."""
    def mean_us(layer):
        calls, total, _self = tracer.layer(layer)
        return 1e6 * ratio(total, calls)

    obs_calls, _obs_total, obs_self = tracer.layer("obs")
    executions = tracer.layer("engine.execution")
    waits = tracer.samples.get("admission.acquire", [])
    probes = tracer.layer("montecarlo.dispatch_entry")
    runs = (tracer.layer("montecarlo.run")[0]
            + tracer.layer("montecarlo.run_until")[0])
    return {
        "service.submit_us_mean": mean_us("service.submit"),
        "service.fingerprint_us_mean": mean_us("service.fingerprint"),
        "service.fingerprint_calls_per_query": ratio(
            tracer.layer("service.fingerprint")[0], queries),
        "cache.get_us_mean": mean_us("cache.get"),
        "obs.us_per_query": 1e6 * ratio(obs_self, queries),
        "obs.calls_per_query": ratio(obs_calls, queries),
        "admission.wait_ms_p99": 1e3 * quantile(waits, 0.99),
        # The service probes through dispatch_entry() before run(), so a
        # run's own timings["probe"] is the cached lookup; both count.
        "montecarlo.probe_ms_mean": 1e3 * ratio(
            probes[1] + tracer.counted("montecarlo.probe_s"), runs),
        "fastsim.sample_us_mean": mean_us("fastsim.sample"),
        "engine.round_us": 1e6 * ratio(executions[1],
                                       tracer.counted("engine.rounds")),
    }


# -- workloads -------------------------------------------------------


async def run_phase(workload: str, seed: int, seconds: float, traced: bool,
                    setups: int, tag: str, cores: List[int]) -> Dict[str, Any]:
    """Set up ``setups`` times, keep the last server, run one window."""
    ledger = Ledger()
    setup_times, setup_walls = [], []
    server = None
    for number in range(setups):
        if server is not None:
            server.stop()
        server, took, wall = await set_up(seed, traced, f"{tag}-{number}",
                                          ledger, cores)
        setup_times.append(took)
        setup_walls.append(wall)
    inflight = INFLIGHT[workload]
    try:
        address = server.address
        await closed_loop(address, events_for(workload, seed, "warm-up"),
                          inflight, WARMUP_SECONDS, ledger)
        if traced:
            server.process.send_signal(signal.SIGUSR1)
            await asyncio.sleep(0.05)
        stats_before = await wire_op(address, "stats")
        metrics_before = await wire_op(address, "metrics")
        ledger.in_window = True
        with CpuClock(server) as clock:
            run = await closed_loop(address,
                                    events_for(workload, seed, "window"),
                                    inflight, seconds, ledger)
        stats_after = await wire_op(address, "stats")
        metrics_after = await wire_op(address, "metrics")
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    records = run["records"]
    out = window_metrics(records, clock, run["start"], run["end"])
    out.update(stats_delta(stats_before, stats_after))
    out["setup_times"] = setup_times
    out["setup_walls"] = setup_walls
    out["peak_rss_mb"] = peak_rss
    out["histogram_means_us"] = histogram_means(metrics_before, metrics_after)
    out["sources"] = {}
    for record in records:
        out["sources"][record[4]] = out["sources"].get(record[4], 0) + 1
    # Computed answers from the window when there are any (serve-mixed),
    # else the hot pool the window replayed (serve-hot).
    candidates = ledger.window_computed or set(ledger.requests)
    out["verified"] = verify_sample(ledger, sorted(candidates), seed)
    out["ledger"] = ledger
    out["queries_in_window"] = stats_after["queries"] - stats_before["queries"]
    if traced:
        from tracer import Tracer
        with open(server.summary_path, encoding="utf8") as handle:
            out["tracer"] = Tracer.from_summary(json.load(handle))
        out["spans_file"] = server.spans_path
    return out


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> Dict[str, Any]:
    """Run one serve workload; returns metrics, checks and details."""
    cores = common.core_split()
    common.pin_to(cores["client"])
    server_cores = cores["server"]
    if not trace:
        phase = asyncio.run(run_phase(workload, seed, seconds, False,
                                      SETUPS, f"{workload}-{seed}",
                                      server_cores))
        return _end_to_end(phase)
    plain = asyncio.run(run_phase(workload, seed, seconds / 2, False, 1,
                                  f"{workload}-{seed}-plain", server_cores))
    traced = asyncio.run(run_phase(workload, seed, seconds / 2, True, 1,
                                   f"{workload}-{seed}-traced", server_cores))
    return _per_layer(plain, traced)


def _end_to_end(phase: Dict[str, Any]) -> Dict[str, Any]:
    ledger = phase["ledger"]
    metrics = {
        "setup_s": median(phase["setup_times"]),
        "trials_per_s": phase["trials_per_s"],
        "qps": phase["qps"],
        "latency_p50_ms": phase["latency_p50_ms"],
        "latency_p99_ms": phase["latency_p99_ms"],
        "peak_rss_mb": phase["peak_rss_mb"],
        "ok_ratio": 1.0 - ratio(ledger.failed, ledger.attempted),
    }
    return {"metrics": metrics, "attempted": ledger.attempted,
            "failed": ledger.failed, "problems": ledger.problems,
            "details": _details(phase)}


def _per_layer(plain: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, Any]:
    tracer = traced["tracer"]
    queries = tracer.layer("service.submit")[0]
    metrics = layer_metrics(tracer, queries)
    ledger = traced["ledger"]
    attempted = plain["ledger"].attempted + ledger.attempted
    failed = plain["ledger"].failed + ledger.failed
    metrics.update({
        "protocol.wire_us_mean": traced["wire_us_mean"],
        "cache.hit_ratio": traced["cache.hit_ratio"],
        "coalescer.joined_ratio": traced["coalescer.joined_ratio"],
        "admission.rejected_ratio": traced["admission.rejected_ratio"],
        "failed_ratio": ratio(failed, attempted),
        # Extra server CPU per query with the hooks installed.
        "tracing.overhead_pct": 100.0 * (ratio(plain["cpu_qps"],
                                               traced["cpu_qps"]) - 1.0),
    })
    histograms = traced["histogram_means_us"]
    crosscheck = {
        "service.submit_us_mean": (metrics["service.submit_us_mean"],
                                   histograms.get("serve.query.seconds", 0.0)),
        "service.fingerprint_us_mean": (
            metrics["service.fingerprint_us_mean"],
            histograms.get("serve.fingerprint.seconds", 0.0)),
        "cache.get_us_mean": (metrics["cache.get_us_mean"],
                              histograms.get("serve.cache.seconds", 0.0)),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": plain["ledger"].problems + ledger.problems,
            "crosscheck": crosscheck,
            "details": {"plain": _details(plain), "traced": _details(traced),
                        "tracer": tracer.summary()}}


def _details(phase: Dict[str, Any]) -> Dict[str, Any]:
    keep = ("setup_times", "setup_walls", "samples", "sources",
            "subwindows", "cpu_qps", "wall_qps", "wall_latency_p50_ms",
            "wall_latency_p99_ms", "read_latency_p99_ms",
            "read_lag_ms_p99", "wire_us_mean", "window_s",
            "cache.evictions", "cache.hit_ratio", "coalescer.joined_ratio",
            "admission.rejected_ratio", "verified", "queries_in_window",
            "histogram_means_us", "spans_file")
    return {key: phase[key] for key in keep if key in phase}
