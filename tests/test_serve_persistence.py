"""The persistent memo journal: warm restarts are byte-identical.

Contracts pinned here, in the order ISSUE states them:

* **round trip** — property-tested: any batch of
  ``(fingerprint, TrialResult | SequentialResult)`` records written
  through :class:`MemoJournal` is rehydrated bit-identically by a
  fresh journal on the same path (the snapshot/kill/rehydrate cycle);
* **service warm restart** — a restarted :class:`SimulationService`
  on the same ``memo_path`` answers every previously-computed query
  from cache with identical indicator digests, including sequential
  answers served by prefix truncation from the journalled trace;
* **corruption** — a truncated tail or a CRC-mismatched line drops
  exactly the damaged record (logged + counted), never crashes, and
  never poisons the surviving records;
* **format discipline** — a mangled header restarts the journal
  fresh; a *newer* format or fingerprint version refuses to load, an
  older fingerprint version restarts fresh (its records were keyed
  under other semantics); compaction is an atomic rewrite that
  preserves exactly the live entries.

No pytest-asyncio in the environment, so async scenarios run under
``asyncio.run`` inside plain test functions.
"""

import asyncio
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.montecarlo import FINGERPRINT_VERSION
from repro.montecarlo.trials import (
    SequentialResult,
    SequentialStep,
    TrialResult,
)
from repro.serve import (
    MemoJournal,
    Query,
    SequentialQuery,
    SimulationService,
)
from repro.serve.persistence import FORMAT_NAME, FORMAT_VERSION


def run(coro):
    return asyncio.run(coro)


def _values_equal(left, right):
    if isinstance(left, TrialResult):
        return (isinstance(right, TrialResult)
                and np.array_equal(left.indicators, right.indicators)
                and left.indicators.dtype == right.indicators.dtype
                and (left.backend, left.workers, left.seed, left.confidence)
                == (right.backend, right.workers, right.seed,
                    right.confidence))
    return (isinstance(right, SequentialResult)
            and _values_equal(left.result, right.result)
            and left.steps == right.steps
            and (left.target_width, left.bound, left.met)
            == (right.target_width, right.bound, right.met))


# -- hypothesis strategies ---------------------------------------------

_trial_results = st.builds(
    lambda bits, backend, workers, seed: TrialResult(
        indicators=np.array(bits, dtype=bool), backend=backend,
        workers=workers, seed=seed,
    ),
    st.lists(st.booleans(), min_size=1, max_size=64),
    st.sampled_from(["batchsim", "engine", "fastsim:flooding", "exact"]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def _sequential_from(result, target_width, bound, met):
    trials = result.trials
    successes = int(result.indicators.sum())
    steps = (SequentialStep(trials=trials, successes=successes,
                            width=max(target_width, 1e-6)),)
    return SequentialResult(result=result, steps=steps,
                            target_width=target_width, bound=bound, met=met)


_sequential_results = st.builds(
    _sequential_from,
    _trial_results,
    st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
    st.sampled_from(["hoeffding", "bernstein"]),
    st.booleans(),
)

_records = st.lists(
    st.tuples(st.text(alphabet="0123456789abcdef", min_size=4, max_size=12),
              st.one_of(_trial_results, _sequential_results)),
    min_size=1, max_size=8,
)


class TestRoundTrip:
    # hypothesis reuses function-scoped fixtures across examples, so
    # each example gets its own TemporaryDirectory instead of tmp_path.
    @settings(max_examples=25, deadline=None)
    @given(records=_records)
    def test_append_then_rehydrate_is_identical(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "memo.ndjson"
            journal = MemoJournal(path)
            journal.load()
            for key, value in records:
                journal.append(key, value)
            journal.close()

            replayed = MemoJournal(path)
            loaded = replayed.load()
            replayed.close()
            assert len(loaded) == len(records)
            assert replayed.records_dropped == 0
            for (key, value), (loaded_key, loaded_value) in zip(records,
                                                                loaded):
                assert key == loaded_key
                assert _values_equal(value, loaded_value)

    def test_last_writer_wins_through_replay_order(self, tmp_path):
        path = tmp_path / "memo.ndjson"
        first = TrialResult(np.array([True]), "batchsim", 1, 0)
        second = TrialResult(np.array([False, True]), "batchsim", 1, 1)
        journal = MemoJournal(path)
        journal.load()
        journal.append("k", first)
        journal.append("k", second)
        journal.close()
        loaded = MemoJournal(path).load()
        # File order: a cache replaying oldest-first ends up holding
        # the newest record for each key.
        assert [key for key, _ in loaded] == ["k", "k"]
        assert _values_equal(loaded[-1][1], second)


class TestServiceWarmRestart:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=50),
           trials=st.integers(min_value=1, max_value=64))
    def test_restart_replays_byte_identically(self, seed, trials):
        async def cold(path):
            service = SimulationService(memo_path=str(path))
            queries = [
                Query("flooding", 0.1, 5, trials, seed=seed),
                Query("windowed-malicious", 0.25, 2, trials, seed=seed),
                Query("layered-opt", 0.0, 3, 1, seed=0),
            ]
            answers = [await service.submit(query) for query in queries]
            service.close()
            return queries, answers

        async def warm(path, queries):
            service = SimulationService(memo_path=str(path))
            answers = [await service.submit(query) for query in queries]
            service.close()
            return answers

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "memo.ndjson"
            queries, cold_answers = run(cold(path))
            warm_answers = run(warm(path, queries))
        for before, after in zip(cold_answers, warm_answers):
            assert after.source == "cache"
            assert after.indicators_digest() == before.indicators_digest()
            assert after.fingerprint == before.fingerprint

    def test_sequential_answers_survive_restart(self, tmp_path):
        path = tmp_path / "memo.ndjson"
        strict = SequentialQuery("flooding", 0.1, 5, target_width=0.1,
                                 max_trials=4096, seed=3)
        wide = SequentialQuery("flooding", 0.1, 5, target_width=0.9,
                               max_trials=4096, seed=3)

        async def cold():
            service = SimulationService(memo_path=str(path))
            answer = await service.submit_until(strict)
            service.close()
            return answer

        async def warm():
            service = SimulationService(memo_path=str(path))
            replay = await service.submit_until(strict)
            truncated = await service.submit_until(wide)
            service.close()
            return replay, truncated

        cold_answer = run(cold())
        replay, truncated = run(warm())
        assert replay.source == "cache"
        assert replay.indicators_digest() == cold_answer.indicators_digest()
        assert replay.sequential.steps == cold_answer.sequential.steps
        # The wider target is served from the journalled stricter trace
        # by prefix truncation — met honestly, bytes a prefix.
        assert truncated.source == "cache"
        assert truncated.met
        prefix = cold_answer.result.indicators[:truncated.result.trials]
        assert np.array_equal(truncated.result.indicators, prefix)


class TestCorruption:
    def _journal_with_records(self, path, count=3):
        journal = MemoJournal(path)
        journal.load()
        for index in range(count):
            journal.append(f"key{index}",
                           TrialResult(np.array([index % 2 == 0]),
                                       "batchsim", 1, index))
        journal.close()

    def test_truncated_tail_drops_only_last_record(self, tmp_path):
        path = tmp_path / "memo.ndjson"
        self._journal_with_records(path, count=3)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])  # tear the final line mid-record

        journal = MemoJournal(path)
        loaded = journal.load()
        journal.close()
        assert [key for key, _ in loaded] == ["key0", "key1"]
        assert journal.records_dropped == 1

    def test_crc_mismatch_drops_only_damaged_record(self, tmp_path):
        path = tmp_path / "memo.ndjson"
        self._journal_with_records(path, count=3)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])  # the middle record
        record["payload"]["seed"] += 1  # bit-flip without fixing the CRC
        lines[2] = json.dumps(record, sort_keys=True,
                              separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")

        journal = MemoJournal(path)
        loaded = journal.load()
        journal.close()
        assert [key for key, _ in loaded] == ["key0", "key2"]
        assert journal.records_dropped == 1

    def test_corrupt_record_does_not_poison_service(self, tmp_path):
        path = tmp_path / "memo.ndjson"
        query = Query("windowed-malicious", 0.25, 2, 32, seed=9)

        async def cold():
            service = SimulationService(memo_path=str(path))
            answer = await service.submit(query)
            service.close()
            return answer

        cold_answer = run(cold())
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])  # tear the journalled record

        async def warm():
            service = SimulationService(memo_path=str(path))
            answer = await service.submit(query)
            service.close()
            return answer

        warm_answer = run(warm())
        # The damaged record is gone, so the query recomputes — and by
        # the determinism invariant recomputing yields the same bytes.
        assert warm_answer.source == "computed"
        assert (warm_answer.indicators_digest()
                == cold_answer.indicators_digest())


class TestFormatDiscipline:
    #: One record line per kind, as format version 1 writes them.  The
    #: indicators are packed bits: ``ssA=`` is 10110010 11000000 for the
    #: eleven trial indicators, ``YA==`` is 01100000.
    PINNED = [
        '{"crc":505801030,"key":"' + "a" * 64 + '","kind":"trial",'
        '"payload":{"backend":"batchsim","confidence":0.95,'
        '"indicators":"ssA=","seed":7,"trials":11,"workers":2}}',
        '{"crc":3909825447,"key":"' + "b" * 64 + '","kind":"sequential",'
        '"payload":{"bound":"hoeffding","met":true,"result":{'
        '"backend":"engine","confidence":0.99,"indicators":"YA==",'
        '"seed":3,"trials":3,"workers":1},"steps":[[2,1,0.5],'
        '[3,2,0.25]],"target_width":0.3}}',
    ]

    def test_record_lines_are_pinned_byte_for_byte(self, tmp_path):
        trial = TrialResult(np.array([True, False, True, True, False, False,
                                      True, False, True, True, False]),
                            "batchsim", 2, 7, confidence=0.95)
        sequential = SequentialResult(
            result=TrialResult(np.array([False, True, True]), "engine", 1,
                               3),
            steps=(SequentialStep(trials=2, successes=1, width=0.5),
                   SequentialStep(trials=3, successes=2, width=0.25)),
            target_width=0.3, bound="hoeffding", met=True)
        path = tmp_path / "memo.ndjson"
        journal = MemoJournal(path)
        journal.load()
        journal.append("a" * 64, trial)
        journal.append("b" * 64, sequential)
        journal.close()
        assert path.read_text().splitlines()[1:] == self.PINNED
        loaded = MemoJournal(path).load()
        assert _values_equal(loaded[0][1], trial)
        assert _values_equal(loaded[1][1], sequential)

    def test_mangled_header_restarts_fresh(self, tmp_path):
        path = tmp_path / "memo.ndjson"
        self._seed_one_record(path)
        raw = path.read_text().splitlines()
        raw[0] = "not json at all"
        path.write_text("\n".join(raw) + "\n")

        journal = MemoJournal(path)
        assert journal.load() == []
        journal.close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == FORMAT_NAME
        assert header["version"] == FORMAT_VERSION

    def test_newer_version_refuses_to_load(self, tmp_path):
        path = tmp_path / "memo.ndjson"
        header = {"format": FORMAT_NAME, "version": FORMAT_VERSION + 1,
                  "fingerprint_version": 1}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ValueError, match="newer"):
            MemoJournal(path).load()
        # And the refusing load must not have clobbered the file.
        assert json.loads(path.read_text().splitlines()[0]) == header

    def test_newer_fingerprint_version_refuses_to_load(self, tmp_path):
        path = tmp_path / "memo.ndjson"
        header = {"format": FORMAT_NAME, "version": FORMAT_VERSION,
                  "fingerprint_version": FINGERPRINT_VERSION + 1}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ValueError, match="newer"):
            MemoJournal(path).load()
        assert json.loads(path.read_text().splitlines()[0]) == header

    def test_older_fingerprint_version_restarts_fresh(self, tmp_path):
        path = tmp_path / "memo.ndjson"
        self._seed_one_record(path)
        raw = path.read_text().splitlines()
        header = json.loads(raw[0])
        header["fingerprint_version"] = 1
        raw[0] = json.dumps(header)
        path.write_text("\n".join(raw) + "\n")
        assert FINGERPRINT_VERSION == 2

        journal = MemoJournal(path)
        assert journal.load() == []
        journal.close()
        lines = path.read_text().splitlines()
        assert lines == [json.dumps(
            {"fingerprint_version": FINGERPRINT_VERSION,
             "format": FORMAT_NAME, "version": FORMAT_VERSION},
            sort_keys=True, separators=(",", ":"))]

    def test_compaction_is_atomic_and_exact(self, tmp_path):
        path = tmp_path / "memo.ndjson"
        journal = MemoJournal(path)
        journal.load()
        final = None
        for index in range(10):  # same key: nine superseded records
            final = TrialResult(np.array([index % 2 == 0]), "batchsim",
                                1, index)
            journal.append("hot", final)
        assert journal.record_count == 10
        journal.compact([("hot", final)])
        assert journal.record_count == 1
        assert not path.with_name(path.name + ".tmp").exists()
        # The journal stays appendable after compaction.
        journal.append("cold", final)
        journal.close()
        loaded = MemoJournal(path).load()
        assert [key for key, _ in loaded] == ["hot", "cold"]
        assert _values_equal(loaded[0][1], final)

    @staticmethod
    def _seed_one_record(path):
        journal = MemoJournal(path)
        journal.load()
        journal.append("k", TrialResult(np.array([True]), "batchsim", 1, 0))
        journal.close()


class TestServiceCompactionTrigger:
    def test_superseded_sequential_traces_get_compacted(self, tmp_path):
        path = tmp_path / "memo.ndjson"

        async def scenario():
            # Tiny cache => low compaction watermark (max(32, 2*2)=32).
            service = SimulationService(memo_path=str(path),
                                        cache_capacity=2)
            for seed in range(40):
                await service.submit(Query("flooding", 0.1, 5, 8,
                                           seed=seed))
            journal = service.journal
            count, compactions = journal.record_count, journal.compactions
            service.close()
            return count, compactions

        count, compactions = run(scenario())
        assert compactions >= 1
        # Post-compaction the file holds at most cache-capacity live
        # records plus what accumulated since the last rewrite.
        assert count <= 35
