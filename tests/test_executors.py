"""Executor-contract conformance suite, run against every backend.

The contract (``repro.montecarlo.executors.base``) is what the sharded
dispatch tiers rely on: index-ordered results, in-order ``on_result``
streaming cut off strictly below the lowest failing shard, lowest-index
deterministic error propagation, ``WorkerCrashError`` attribution and
bounded shard retry.  Each test here runs against the in-process, the
local-pool and the remote-socket backend through the *same* assertions,
so a new backend cannot silently weaken the semantics the trial
runners' bit-identity guarantee is built on.

The shards are catalog spec shards (:func:`run_spec_shard`), the only
kind a remote worker runs; a spec whose ``p`` the family refuses is the
deterministic error.  Crashes come from :mod:`repro.distrib.testing`
on the local pool and from ``--die-after-runs`` workers remotely.
"""

from __future__ import annotations

import concurrent.futures
import socket

import numpy as np
import pytest

from repro import obs
from repro.distrib.testing import shard_exit, shard_exit_unless_marked
from repro.montecarlo.executors import (
    DEFAULT_SPEC_RETRIES,
    InProcessExecutor,
    LocalProcessExecutor,
    RemoteSocketExecutor,
    WorkerCrashError,
    make_executor,
)
from repro.montecarlo.executors.base import pool_context
from repro.montecarlo.executors.remote import RemoteShardError, parse_peers
from repro.montecarlo.fingerprint import canonical_spec
from repro.montecarlo.trials import run_spec_shard
from tests.helpers import WorkerProcess

fork_only = pytest.mark.skipif(
    pool_context().get_start_method() != "fork",
    reason="crash-injection workers rely on fork-shared module state",
)

#: Simple-Omission on a depth-3 binary tree, phase length 2.
SPEC = canonical_spec("simple-omission", 0.3, 3, {"phase_length": 2})

#: What a failing shard raises on each backend: the family's own
#: ``ValueError`` in-process and on the pool, its structured
#: ``shard-error`` from a remote worker.
SHARD_ERRORS = (ValueError, RemoteShardError)


def _shard(start, stop):
    """An engine-tier shard of :data:`SPEC` over ``[start, stop)``."""
    return (SPEC, "engine", 2007, start, stop)


def _failing(p):
    """A shard whose spec the family refuses: ``p must lie in [0, 1),
    got <p>``."""
    return (canonical_spec("simple-omission", p, 3, {}), "engine", 2007,
            0, 1)


def _same(results, shards):
    return all(np.array_equal(value, run_spec_shard(*shard))
               for value, shard in zip(results, shards, strict=True))


@pytest.fixture(scope="module")
def worker_pair():
    """Two loopback workers shared by the read-only conformance tests."""
    workers = [WorkerProcess(), WorkerProcess()]
    yield workers
    for worker in workers:
        worker.close()


BACKENDS = ["in-process", "local-process", "remote-socket"]


@pytest.fixture(params=BACKENDS)
def executor(request, worker_pair):
    """One executor per contract backend; remote rides the loopback pair."""
    if request.param == "in-process":
        return InProcessExecutor()
    if request.param == "local-process":
        return LocalProcessExecutor(2)
    return RemoteSocketExecutor([(w.host, w.port) for w in worker_pair])


class TestConformance:
    """The same assertions against every backend."""

    def test_results_come_back_in_shard_order(self, executor):
        shards = [_shard(4 * i, 4 * i + 4) for i in range(7)]
        results = executor.run_sharded(run_spec_shard, shards)
        assert _same(results, shards)
        assert np.array_equal(np.concatenate(results),
                              run_spec_shard(*_shard(0, 28)))

    def test_on_result_streams_in_shard_order(self, executor):
        # Shard 0 is the largest, so it completes last on any parallel
        # backend; the callback must still fire strictly in index order.
        shards = [_shard(0, 64)] + [_shard(64 + i, 65 + i) for i in range(3)]
        seen = []
        results = executor.run_sharded(
            run_spec_shard, shards,
            on_result=lambda index, value: seen.append((index, value)),
        )
        assert _same(results, shards)
        assert [index for index, _ in seen] == [0, 1, 2, 3]
        assert _same([value for _, value in seen], shards)

    def test_lowest_shard_index_error_wins(self, executor):
        shards = [_shard(0, 1), _failing(1.1), _shard(1, 2), _failing(1.3),
                  _shard(2, 3), _failing(1.5)]
        with pytest.raises(SHARD_ERRORS, match="got 1.1"):
            executor.run_sharded(run_spec_shard, shards)

    def test_on_result_never_fires_at_or_after_the_failing_shard(
            self, executor):
        seen = []
        with pytest.raises(SHARD_ERRORS, match="got 1.1"):
            executor.run_sharded(
                run_spec_shard, [_shard(0, 1), _failing(1.1), _shard(1, 2)],
                on_result=lambda index, value: seen.append((index, value)),
            )
        assert [index for index, _ in seen] == [0]
        assert _same([seen[0][1]], [_shard(0, 1)])

    def test_metrics_labelled_by_backend(self, executor):
        with obs.use_registry() as registry:
            executor.run_sharded(run_spec_shard,
                                 [_shard(i, i + 1) for i in range(3)])
            counter = registry.counter("mc.executor.shards",
                                       backend=executor.name)
            assert counter.value == 3
            assert registry.histogram("mc.executor.shard.seconds",
                                      backend=executor.name).count == 3
            assert registry.histogram("mc.executor.shard.queue_seconds",
                                      backend=executor.name).count == 3

    def test_describe_names_backend_and_workers(self, executor):
        summary = executor.describe()
        assert summary["backend"] == executor.name
        assert summary["workers"] == executor.worker_count()


class TestLocalCrashSemantics:
    """The historical pool guarantees, now on the executor interface."""

    @fork_only
    def test_crash_attributed_to_lowest_shard_with_zero_retries(self):
        executor = LocalProcessExecutor(2, max_shard_retries=0)
        with pytest.raises(WorkerCrashError,
                           match=r"shard 0 of 3.*shard args: \(0,\)"):
            executor.run_sharded(shard_exit, [(i,) for i in range(3)])

    @fork_only
    def test_crashed_shard_is_retried_within_budget(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        executor = LocalProcessExecutor(2, max_shard_retries=1)
        with obs.use_registry() as registry:
            results = executor.run_sharded(
                shard_exit_unless_marked, [(7, marker)])
            assert results == [49]
            assert registry.counter("mc.executor.retries",
                                    backend="local-process").value == 1


@pytest.fixture(params=["local-process", "remote-socket"])
def retrying(request):
    """Build a two-worker executor of each backend that shares the
    retry-and-merge core; remote gets a fresh loopback pair per test,
    started with ``--die-after-runs 0`` when ``crashing``, since crash
    tests kill their workers."""
    workers = []

    def build(max_shard_retries, crashing=False):
        if request.param == "local-process":
            return LocalProcessExecutor(
                2, max_shard_retries=max_shard_retries)
        extra = ("--die-after-runs", "0") if crashing else ()
        workers.extend([WorkerProcess(*extra), WorkerProcess(*extra)])
        return RemoteSocketExecutor(
            [(w.host, w.port) for w in workers],
            max_shard_retries=max_shard_retries)

    yield build
    for worker in workers:
        worker.close()


class TestRetryingCrashSemantics:
    """The shared round and retry loops, pinned on both backends."""

    def test_retry_budget_is_bounded(self, retrying):
        executor = retrying(max_shard_retries=1, crashing=True)
        # Locally the shard kills its pool worker; remotely every
        # worker dies on its first run op, whatever the shard.
        function, shards = ((shard_exit, [(0,)])
                            if executor.name == "local-process"
                            else (run_spec_shard, [_shard(0, 1)]))
        with obs.use_registry() as registry:
            with pytest.raises(WorkerCrashError, match="shard 0 of 1"):
                executor.run_sharded(function, shards)
            # One retry attempted (and counted) before the crash surfaced.
            assert registry.counter("mc.executor.retries",
                                    backend=executor.name).value == 1

    def test_deterministic_error_is_never_retried(self, retrying):
        # An ordinary exception must surface immediately even with a
        # generous retry budget — it would raise identically anywhere.
        executor = retrying(max_shard_retries=5)
        with obs.use_registry() as registry:
            with pytest.raises(SHARD_ERRORS, match="got 1.1"):
                executor.run_sharded(run_spec_shard,
                                     [_shard(0, 1), _failing(1.1)])
            assert registry.counter("mc.executor.retries",
                                    backend=executor.name).value == 0

    def test_first_error_cancels_siblings_exactly_once(self, retrying,
                                                       monkeypatch):
        executor = retrying(max_shard_retries=0)
        calls = []
        original = concurrent.futures.Future.cancel

        def counting_cancel(future):
            calls.append(future)
            return original(future)

        monkeypatch.setattr(concurrent.futures.Future, "cancel",
                            counting_cancel)
        shards = [_failing(1.1 + i) for i in range(6)]  # all raise
        with pytest.raises(SHARD_ERRORS, match="got 1.1"):
            executor.run_sharded(run_spec_shard, shards)
        assert len(calls) == len(shards)


class TestRemoteCrashSemantics:
    """Worker death over the wire: retry, reassignment, attribution."""

    def test_killed_worker_reassigns_shard_to_survivor(self):
        # The peer pool hands out the last-connected idle worker first,
        # so the doomed worker (listed last) takes the first shard and
        # dies on it; the retry lands on the survivor with the same
        # shard arguments, so the answer is the undisturbed one.
        doomed = WorkerProcess("--die-after-runs", "0")
        steady = WorkerProcess()
        try:
            executor = RemoteSocketExecutor(
                [(steady.host, steady.port), (doomed.host, doomed.port)],
                max_shard_retries=1)
            shards = [_shard(0, 4), _shard(4, 8)]
            with obs.use_registry() as registry:
                results = executor.run_sharded(run_spec_shard, shards)
                assert _same(results, shards)
                assert registry.counter(
                    "mc.executor.retries",
                    backend="remote-socket").value == 1
            doomed.process.wait(timeout=5.0)
            assert steady.alive()
        finally:
            doomed.close()
            steady.close()

    def test_retries_exhausted_surfaces_worker_crash_error(self):
        worker = WorkerProcess("--die-after-runs", "0")
        try:
            executor = RemoteSocketExecutor(
                [(worker.host, worker.port)], max_shard_retries=0)
            with pytest.raises(WorkerCrashError,
                               match=r"shard 0 of 1 \(retries exhausted\)"):
                executor.run_sharded(run_spec_shard, [_shard(0, 1)])
        finally:
            worker.close()

    def test_unreachable_peers_fail_fast(self):
        executor = RemoteSocketExecutor([("127.0.0.1", 1)])
        with pytest.raises(WorkerCrashError, match="no remote workers"):
            executor.run_sharded(run_spec_shard, [_shard(0, 1)])

    def test_heartbeat_reports_per_peer_liveness(self, worker_pair):
        live, dead_port = worker_pair[0], 1
        executor = RemoteSocketExecutor(
            [(live.host, live.port), ("127.0.0.1", dead_port)])
        beat = executor.heartbeat()
        assert beat[live.address] is True
        assert beat[f"127.0.0.1:{dead_port}"] is False

    def test_forbidden_function_is_a_deterministic_rejection(self):
        # Anything but a catalog spec shard is refused before the
        # executor opens a connection: the listener never sees one.
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.setblocking(False)
            executor = RemoteSocketExecutor([listener.getsockname()[:2]])
            with pytest.raises(TypeError, match="run_spec_shard"):
                executor.run_sharded(shard_exit, [(1,)])
            with pytest.raises(BlockingIOError):
                listener.accept()


class TestMakeExecutor:
    """Spec-string parsing shared by every CLI ``--executor`` flag."""

    def test_default_resolves_from_workers(self):
        assert isinstance(make_executor(None, workers=1), InProcessExecutor)
        local = make_executor(None, workers=3)
        assert isinstance(local, LocalProcessExecutor)
        assert local.worker_count() == 3

    def test_instance_passes_through(self):
        executor = InProcessExecutor()
        assert make_executor(executor, workers=8) is executor

    def test_in_process_spec(self):
        assert isinstance(make_executor("in-process", workers=4),
                          InProcessExecutor)

    def test_local_process_spec_with_and_without_width(self):
        sized = make_executor("local-process:5", workers=1)
        assert isinstance(sized, LocalProcessExecutor)
        assert sized.worker_count() == 5
        defaulted = make_executor("local-process", workers=3)
        assert defaulted.worker_count() == 3

    def test_remote_spec_parses_peers_and_default_retries(self):
        remote = make_executor("remote:127.0.0.1:7000,127.0.0.1:7001",
                               workers=1)
        assert isinstance(remote, RemoteSocketExecutor)
        summary = remote.describe()
        assert summary["peers"] == ["127.0.0.1:7000", "127.0.0.1:7001"]
        assert summary["max_shard_retries"] == DEFAULT_SPEC_RETRIES

    def test_bad_specs_raise(self):
        with pytest.raises(ValueError):
            make_executor("warp-drive", workers=1)
        with pytest.raises(ValueError):
            make_executor("remote:", workers=1)
        with pytest.raises(ValueError):
            make_executor("local-process:zero", workers=1)

    def test_parse_peers_validation(self):
        assert parse_peers("a:1, b:2") == [("a", 1), ("b", 2)]
        assert parse_peers("[::1]:7000") == [("::1", 7000)]
        # describe() brackets IPv6 peers, so its peer list parses back.
        peers = RemoteSocketExecutor("[::1]:7000,a:1").describe()["peers"]
        assert peers == ["[::1]:7000", "a:1"]
        assert parse_peers(",".join(peers)) == [("::1", 7000), ("a", 1)]
        with pytest.raises(ValueError, match="host:port"):
            parse_peers("[]:7000")
        with pytest.raises(ValueError, match="host:port"):
            parse_peers(":99")
        with pytest.raises(ValueError, match="non-integer"):
            parse_peers("host:http")
        with pytest.raises(ValueError, match="out of range"):
            parse_peers("host:70000")
