"""The always-on simulation service: coalescing, memoisation, wire.

The contracts under test, in the order ISSUE/ARCHITECTURE state them:

* **single flight** — N concurrent identical queries run exactly one
  ``BatchExecution``; every waiter receives bit-identical indicators;
* **exact memoisation** — a cache hit returns the same bytes a cold
  run would produce (property-tested over seeds/trial counts), while
  a different seed, trial count or scenario is a miss;
* **LRU eviction** — the memo is bounded and evicts least recently
  used;
* **wire robustness** — malformed requests get structured error
  responses (``bad-json`` / ``bad-request`` / ``unknown-scenario`` /
  ``bad-parameters``) and never kill the connection.

No pytest-asyncio in the environment, so every async scenario runs
under ``asyncio.run`` inside a plain test function.
"""

import asyncio
import json
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.batchsim.engine as engine_module
import repro.serve.service as service_module
from repro.experiments.registry import all_families, get_family, resolve_scenario
from repro.montecarlo import TrialRunner
from repro.obs import NULL, render_prometheus, set_registry, use_registry
from repro.serve import (
    Coalescer,
    Query,
    QueryError,
    ResultCache,
    SequentialQuery,
    SimulationServer,
    SimulationService,
    query_many,
    query_one,
)
from repro.serve.catalog import KUCERA_PROBE_BUDGET
from repro.serve.traffic import make_query_pool, run_inprocess
from tests.helpers import serve_every_event

MC_QUERY = Query("windowed-malicious", 0.25, 2, 200, seed=5)
FASTSIM_QUERY = Query("simple-omission", 0.1, 3, 400, seed=1)


def run(coro):
    return asyncio.run(coro)


class TestFingerprint:
    def test_same_query_same_fingerprint(self):
        service = SimulationService()
        assert service.fingerprint(MC_QUERY) == service.fingerprint(MC_QUERY)

    def test_fresh_service_agrees(self):
        assert (SimulationService().fingerprint(MC_QUERY)
                == SimulationService().fingerprint(MC_QUERY))

    def test_each_axis_is_distinguished(self):
        service = SimulationService()
        base = service.fingerprint(MC_QUERY)
        variants = [
            Query("windowed-malicious", 0.25, 2, 200, seed=6),
            Query("windowed-malicious", 0.25, 2, 201, seed=5),
            Query("windowed-malicious", 0.3, 2, 200, seed=5),
            Query("windowed-malicious", 0.25, 3, 200, seed=5),
            Query("kucera-flip", 0.25, 2, 200, seed=5),
        ]
        fingerprints = {service.fingerprint(query) for query in variants}
        assert base not in fingerprints
        assert len(fingerprints) == len(variants)

    def test_stable_across_execution(self):
        """Running trials must not change the fingerprint (a re-keyed
        scenario would split coalescing and caching)."""
        async def scenario():
            service = SimulationService()
            before = service.fingerprint(MC_QUERY)
            await service.submit(MC_QUERY)
            return before, service.fingerprint(MC_QUERY)

        before, after = run(scenario())
        assert after == before

    def test_param_key_order_does_not_change_fingerprint(self):
        service = SimulationService()
        forward = Query("hetero-omission", 0.5, 2, 16,
                        params={"p_low": 0.1, "phase_length": 3})
        backward = Query("hetero-omission", 0.5, 2, 16,
                         params={"phase_length": 3, "p_low": 0.1})
        assert service.fingerprint(forward) == service.fingerprint(backward)

    def test_fingerprint_and_cache_hits_pickle_nothing(self, monkeypatch):
        sequential = SequentialQuery("windowed-malicious", 0.25, 2, 0.5,
                                     2048, seed=5)

        async def scenario():
            service = SimulationService()
            await service.submit(MC_QUERY)
            await service.submit_until(sequential)

            def refuse(*args, **kwargs):
                raise AssertionError("pickle.dumps called")

            monkeypatch.setattr(pickle, "dumps", refuse)
            assert len(service.fingerprint(MC_QUERY)) == 64
            hit = await service.submit(MC_QUERY)
            sequential_hit = await service.submit_until(sequential)
            return hit.source, sequential_hit.source

        assert run(scenario()) == ("cache", "cache")


class TestResultCache:
    def _result(self, seed=0):
        factory, model = resolve_scenario("simple-omission", 0.1, 2, {})
        from repro.montecarlo import TrialRunner
        return TrialRunner(factory, model).run(8, seed)

    def test_miss_then_hit(self):
        cache = ResultCache(4)
        assert cache.get("a") is None
        result = self._result()
        cache.put("a", result)
        assert cache.get("a") is result
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = ResultCache(2)
        first, second, third = (self._result(seed) for seed in (1, 2, 3))
        cache.put("a", first)
        cache.put("b", second)
        assert cache.get("a") is first  # refresh "a": now "b" is LRU
        cache.put("c", third)
        assert "b" not in cache
        assert cache.get("a") is first
        assert cache.get("c") is third
        assert cache.stats().evictions == 1

    def test_rejects_non_results(self):
        with pytest.raises(TypeError, match="TrialResult"):
            ResultCache(2).put("a", "not a result")

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ResultCache(-1)

    def test_capacity_zero_is_pass_through(self):
        # Regression: capacity 0 used to be rejected outright; it now
        # means "memoisation off" — puts store nothing, gets always
        # miss, and the service runs fine without a cache.
        cache = ResultCache(0)
        result = self._result()
        cache.put("a", result)
        assert cache.get("a") is None
        assert len(cache) == 0
        stats = cache.stats()
        assert (stats.capacity, stats.size, stats.hits) == (0, 0, 0)
        assert stats.misses == 1

    def test_items_orders_least_to_most_recent(self):
        cache = ResultCache(4)
        first, second = (self._result(seed) for seed in (1, 2))
        cache.put("a", first)
        cache.put("b", second)
        assert cache.get("a") is first  # refresh "a" to MRU
        assert cache.items() == [("b", second), ("a", first)]


class TestCoalescer:
    def test_concurrent_same_key_runs_once(self):
        async def scenario():
            coalescer = Coalescer()
            runs = 0
            release = asyncio.Event()

            async def compute():
                nonlocal runs
                runs += 1
                await release.wait()
                return object()

            async def caller():
                return await coalescer.run("key", compute)

            tasks = [asyncio.create_task(caller()) for _ in range(5)]
            await asyncio.sleep(0)  # let every caller reach the coalescer
            release.set()
            outcomes = await asyncio.gather(*tasks)
            return runs, coalescer, outcomes

        runs, coalescer, outcomes = run(scenario())
        assert runs == 1
        assert coalescer.started == 1 and coalescer.joined == 4
        results = {id(result) for result, _ in outcomes}
        assert len(results) == 1  # the same object, not a copy
        assert sorted(flag for _, flag in outcomes) == [
            False, True, True, True, True]

    def test_distinct_keys_do_not_coalesce(self):
        async def scenario():
            coalescer = Coalescer()

            async def compute_value(value):
                await asyncio.sleep(0)
                return value

            pairs = await asyncio.gather(
                coalescer.run("a", lambda: compute_value(1)),
                coalescer.run("b", lambda: compute_value(2)),
            )
            return coalescer, pairs

        coalescer, pairs = run(scenario())
        assert coalescer.started == 2 and coalescer.joined == 0
        assert [value for value, _ in pairs] == [1, 2]

    def test_failure_reaches_every_waiter_and_is_not_cached(self):
        async def scenario():
            coalescer = Coalescer()
            release = asyncio.Event()

            async def explode():
                await release.wait()
                raise RuntimeError("boom")

            tasks = [asyncio.create_task(coalescer.run("key", explode))
                     for _ in range(3)]
            await asyncio.sleep(0)
            release.set()
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            assert coalescer.inflight() == 0

            async def recover():
                return "fine"

            result, coalesced = await coalescer.run("key", recover)
            return outcomes, result, coalesced

        outcomes, result, coalesced = run(scenario())
        assert all(isinstance(item, RuntimeError) for item in outcomes)
        assert (result, coalesced) == ("fine", False)


class TestServiceCoalescing:
    def test_concurrent_identical_queries_build_one_batch_execution(
            self, monkeypatch):
        """The tentpole claim, stated literally: N concurrent identical
        Monte-Carlo queries construct exactly one BatchExecution."""
        built = []
        original = engine_module.BatchExecution.__init__

        def counting(self, *args, **kwargs):
            built.append(id(self))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(engine_module.BatchExecution, "__init__",
                            counting)

        async def scenario():
            service = SimulationService()
            return await asyncio.gather(
                *(service.submit(MC_QUERY) for _ in range(6))), service

        answers, service = run(scenario())
        assert len(built) == 1
        digests = {answer.indicators_digest() for answer in answers}
        assert len(digests) == 1
        sources = sorted(answer.source for answer in answers)
        assert sources == ["coalesced"] * 5 + ["computed"]
        stats = service.stats()
        assert stats.computed == 1 and stats.coalesced_hits == 5

    def test_waiters_share_the_result_object(self):
        async def scenario():
            service = SimulationService()
            return await asyncio.gather(
                *(service.submit(MC_QUERY) for _ in range(4)))

        answers = run(scenario())
        assert len({id(answer.result) for answer in answers}) == 1

    def test_sequential_duplicates_hit_the_cache_instead(self):
        async def scenario():
            service = SimulationService()
            first = await service.submit(MC_QUERY)
            second = await service.submit(MC_QUERY)
            return first, second, service.stats()

        first, second, stats = run(scenario())
        assert first.source == "computed"
        assert second.source == "cache"
        assert second.result is first.result
        assert stats.cache_hits == 1
        assert stats.shared_work_rate == 0.5

    def test_concurrent_seeds_of_one_scenario_answer_exactly(self):
        # Distinct seeds do not coalesce, so four batchsim runs of the
        # service's one memoised runner overlap on executor threads.
        queries = [Query("windowed-malicious", 0.2, 4, 1024, seed)
                   for seed in range(4)]

        async def scenario():
            service = SimulationService()
            return await asyncio.gather(
                *(service.submit(query) for query in queries)), service

        answers, service = run(scenario())
        factory, model = get_family("windowed-malicious").build(0.2, 4)
        for query, answer in zip(queries, answers):
            assert answer.source == "computed"
            expected = TrialRunner(factory, model).run(1024, query.seed)
            assert answer.result.indicators.tobytes() == \
                expected.indicators.tobytes()
        assert service.stats().computed == 4


class TestServiceCacheExactness:
    @given(seed=st.integers(min_value=0, max_value=2**31),
           trials=st.integers(min_value=1, max_value=64))
    @settings(max_examples=12, deadline=None)
    def test_cache_hit_is_byte_identical_to_cold_run(self, seed, trials):
        query = Query("kucera-flip", 0.3, 3, trials, seed=seed)

        async def warm_and_replay():
            service = SimulationService()
            cold = await service.submit(query)
            replay = await service.submit(query)
            return cold, replay

        async def cold_on_fresh_service():
            return await SimulationService().submit(query)

        cold, replay = run(warm_and_replay())
        fresh = run(cold_on_fresh_service())
        assert replay.source == "cache"
        assert replay.result.indicators.tobytes() == \
            cold.result.indicators.tobytes()
        assert fresh.indicators_digest() == cold.indicators_digest()
        assert fresh.fingerprint == cold.fingerprint

    def test_distinct_seed_trials_scenario_all_miss(self):
        async def scenario():
            service = SimulationService()
            await service.submit(MC_QUERY)
            for query in (
                Query("windowed-malicious", 0.25, 2, 200, seed=6),
                Query("windowed-malicious", 0.25, 2, 199, seed=5),
                Query("kucera-flip", 0.25, 2, 200, seed=5),
            ):
                answer = await service.submit(query)
                assert answer.source == "computed", query
            return service.stats()

        stats = run(scenario())
        assert stats.cache_hits == 0
        assert stats.computed == 4

    def test_eviction_forces_recompute(self):
        async def scenario():
            service = SimulationService(cache_capacity=1)
            first = await service.submit(MC_QUERY)
            other = Query("windowed-malicious", 0.25, 2, 200, seed=9)
            await service.submit(other)  # evicts MC_QUERY's entry
            again = await service.submit(MC_QUERY)
            return first, again, service.stats()

        first, again, stats = run(scenario())
        assert again.source == "computed"
        assert again.result is not first.result
        assert again.indicators_digest() == first.indicators_digest()
        assert stats.cache.evictions >= 1

    def test_exact_resolution_is_memoised_on_the_spec(self, monkeypatch):
        builds = []
        real = service_module.resolve_scenario

        def spy(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(service_module, "resolve_scenario", spy)
        service = SimulationService(cache_capacity=0)
        query = Query("layered-opt", 0.0, 3, 1)
        answers = [run(service.submit(query)) for _ in range(3)]
        assert [answer.source for answer in answers] == ["computed"] * 3
        assert len(builds) == 1

    def test_fastsim_queries_are_memoised_too(self):
        async def scenario():
            service = SimulationService()
            cold = await service.submit(FASTSIM_QUERY)
            replay = await service.submit(FASTSIM_QUERY)
            return cold, replay, service.stats()

        cold, replay, stats = run(scenario())
        assert cold.backend.startswith("fastsim:")
        assert replay.source == "cache"
        assert replay.result is cold.result
        assert stats.fastsim_answers == 1


#: Kučera specs whose plan is too large to probe (rounds x nodes above
#: ``KUCERA_PROBE_BUDGET``): probing ``p=0.45, n=64`` took 37 s and
#: 1.7 GB, ``p=0.488, n=64`` ran out of memory.
KUCERA_OVER_BUDGET = [
    Query("kucera-flip", 0.45, 64, 10),
    Query("kucera-flip", 0.47, 16, 10),
    Query("kucera-flip", 0.488, 16, 10),
    Query("kucera-flip", 0.488, 64, 10),
]


class TestServiceValidation:
    def _submit(self, query):
        return run(SimulationService().submit(query))

    def test_unknown_scenario(self):
        with pytest.raises(QueryError) as excinfo:
            self._submit(Query("no-such-family", 0.1, 2, 10))
        assert excinfo.value.code == "unknown-scenario"

    @pytest.mark.parametrize("query", [
        Query("flooding", 0.1, 5, 0),
        Query("flooding", 0.1, 5, -3),
        Query("flooding", 0.1, 5, True),
        Query("flooding", 0.1, 5, 10, seed=-1),
        Query("", 0.1, 5, 10),
    ])
    def test_bad_request(self, query):
        with pytest.raises(QueryError) as excinfo:
            self._submit(query)
        assert excinfo.value.code == "bad-request"

    @pytest.mark.parametrize("query", [
        Query("windowed-malicious", 1.5, 2, 10),
        Query("windowed-malicious", 0.25, 0, 10),
        Query("flooding", 0.1, 5, 10, params={"bogus": 1}),
        Query("flooding", 0.1, 8, 16, params={"rounds": [1, 2]}),
        Query("flooding", 0.1, 8, 16, params={"rounds": {"a": 1}}),
        Query("flooding", 0.1, 5, 10, params={"graph": "torus"}),
        Query("flooding", 0.1, 12, 10, params={"graph": "binary-tree"}),
        Query("radio-repeat", 0.2, 8, 10,
              params={"graph": "random-tree", "graph_seed": -1}),
        Query("windowed-malicious", 0.25, 2, 10, params={"cols": 5000}),
        Query("hello", 0.2, 4, 10, params={"message": 2}),
        Query("equalizing-mp", 0.3, 6, 10, params={"effective_rate": 0.5}),
        Query("layered-omission", 0.3, 3, 10,
              params={"repeat": 2, "budget": 4}),
        Query("kucera-flip", 0.3, 11, 10, params={"graph": "binary-tree"}),
        Query("radio-repeat", 0.2, 63, 10, params={"graph": "spider"}),
        Query("flooding", 0.1, 5, 10, params={"graph": "spider"}),
        Query("radio-repeat", 0.2, 8, 10, params={"graph_seed": 7}),
        Query("radio-repeat", 0.2, 8, 10, params={"graph": "random-tree"}),
        Query("windowed-malicious", 0.25, 2, 10, params={"cols": 1}),
        Query("kucera-flip", 0.499, 4, 10),
        Query("kucera-flip", 0.6, 4, 10),
        Query("hello", 0.2, 4, 10, params={"message": True}),
        Query("hello", 0.2, 4, 10, params={"message": 1.0}),
        Query("simple-omission", 0.3, 2, 10, params={"phase_length": 0.0}),
        Query("simple-omission", 0.3, 2, 10,
              params={"phase_length": False}),
        *KUCERA_OVER_BUDGET,
        # Legal once, then a crash out of submit: refused at resolution.
        Query("windowed-malicious", 0.5, 2, 10),
        Query("windowed-malicious", 0.4999, 2, 10),
        Query("simple-malicious-mp", 0.4999, 2, 10),
        Query("round-robin", 0.999, 4, 10),
    ])
    def test_bad_parameters(self, query):
        with pytest.raises(QueryError) as excinfo:
            self._submit(query)
        assert excinfo.value.code == "bad-parameters"

    @pytest.mark.parametrize("query, message", [
        (Query("windowed-malicious", 0.25, 2, 10, params={"cols": 1}),
         "cols must lie in [2, 4096], got 1"),
        (Query("windowed-malicious", 0.25, 1, 10),
         "n (grid side) must lie in [2, 4096], got 1"),
        (Query("prime-schedule", 0.3, 5, 10, params={"rounds": -1}),
         "rounds must lie in [1, 100000], got -1"),
        (Query("layered-omission", 0.3, 3, 10, params={"budget": 1.5}),
         "budget must be an int, got 1.5"),
        (Query("round-robin", 0.3, 2, 10, params={"cycles": -2}),
         "cycles must lie in [1, 4096], got -2"),
        (Query("flooding", 0.1, 5, 10, params={"bogus": 1}),
         "unknown param(s) bogus for flooding; known: graph, rounds"),
        (Query("flooding", 0.1, 5, 10, params={"graph": ["line"]}),
         "graph must be one of ['line', 'binary-tree'], got ['line']"),
        (Query("hello", 0.2, 4, 10, params={"adversary": ["silent"]}),
         "adversary must be one of ['silent', 'garbage'], got ['silent']"),
        (Query("equalizing-mp", 0.3, 6, 10,
               params={"effective_rate": "0.2"}),
         "effective_rate must be a number, got '0.2'"),
        (Query("equalizing-mp", 0.3, 6, 10, params={"effective_rate": 0.5}),
         "effective_rate must not exceed p, got 0.5 > 0.3"),
    ])
    def test_range_errors_name_the_field(self, query, message):
        with pytest.raises(QueryError) as excinfo:
            self._submit(query)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("query", [
        *KUCERA_OVER_BUDGET, Query("kucera-flip", 0.499, 4, 10)])
    def test_kucera_plans_too_large_to_probe_are_refused_at_once(
            self, query):
        start = time.perf_counter()
        with pytest.raises(QueryError) as excinfo:
            SimulationService().fingerprint(query)
        assert excinfo.value.code == "bad-parameters"
        assert time.perf_counter() - start < 1.0
        if query.p != 0.499:
            assert str(KUCERA_PROBE_BUDGET) in excinfo.value.message

    def test_equalizing_star_answers_below_machine_epsilon(self):
        # (1 - p)**n + p rounds past 1 there; the multinomial's
        # remainder must not go negative.
        answer = self._submit(Query("equalizing-star", 1e-300, 2, 8))
        assert answer.successes == 8

    @pytest.mark.parametrize("p, n", [
        (0.3, 64), (0.488, 4),  # the budget's edges
        (0.3, 4), (0.1, 6),  # serve/traffic.py
        (0.2, 8), (0.2, 4),  # perfbench
    ])
    def test_kucera_plans_within_budget_resolve(self, p, n):
        SimulationService().fingerprint(Query("kucera-flip", p, n, 10))

    def test_trials_ceiling(self):
        service = SimulationService(max_trials=100)
        with pytest.raises(QueryError, match=r"\[1, 100\]"):
            run(service.submit(Query("flooding", 0.1, 5, 101)))

    def test_errors_are_counted(self):
        async def scenario():
            service = SimulationService()
            for _ in range(2):
                with pytest.raises(QueryError):
                    await service.submit(Query("nope", 0.1, 2, 10))
            return service.stats()

        stats = run(scenario())
        assert stats.errors == 2
        assert stats.queries == 2


class TestFamilyCatalog:
    def test_families_are_registered(self):
        names = {family.name for family in all_families()}
        assert {"simple-omission", "flooding", "windowed-malicious",
                "kucera-flip"} <= names

    def test_get_family_unknown_lists_known(self):
        with pytest.raises(KeyError, match="flooding"):
            get_family("missing")

    def test_resolve_scenario_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            resolve_scenario("flooding", 0.1, 1, {})
        with pytest.raises((TypeError, ValueError)):
            resolve_scenario("windowed-malicious", 0.25, "two", {})


class TestWireProtocol:
    @staticmethod
    async def _with_server(callback):
        server = SimulationServer(SimulationService())
        host, port = await server.start()
        try:
            return await callback(host, port, server)
        finally:
            await server.close()

    @staticmethod
    async def _raw_exchange(host, port, lines):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(lines)
            await writer.drain()
            responses = []
            while True:
                line = await reader.readline()
                if not line:
                    break
                responses.append(json.loads(line))
                if len(responses) >= lines.count(b"\n"):
                    break
            return responses
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionResetError:
                pass

    def test_pipelined_duplicates_coalesce_over_the_wire(self):
        async def scenario(host, port, server):
            request = {"scenario": "windowed-malicious", "p": 0.25,
                       "n": 2, "trials": 150, "seed": 4}
            responses = await query_many(host, port, [request] * 5)
            stats = server.service.stats()
            return responses, stats

        responses, stats = run(self._with_server(scenario))
        assert all(response["ok"] for response in responses)
        assert len({response["indicators_sha256"]
                    for response in responses}) == 1
        sources = sorted(response["source"] for response in responses)
        assert sources == ["coalesced"] * 4 + ["computed"]
        assert stats.computed == 1

    def test_query_one_round_trip(self):
        async def scenario(host, port, server):
            return await query_one(host, port, {
                "scenario": "simple-omission", "p": 0.1, "n": 3,
                "trials": 200, "seed": 2,
            })

        response = run(self._with_server(scenario))
        assert response["ok"] is True
        assert response["backend"].startswith("fastsim:")
        assert response["trials"] == 200
        assert 0.0 <= response["estimate"] <= 1.0
        assert len(response["fingerprint"]) == 64

    def test_malformed_json_gets_bad_json_not_a_hangup(self):
        async def scenario(host, port, server):
            return await self._raw_exchange(
                host, port,
                b"{this is not json\n"
                b'{"scenario": "flooding", "p": 0.1, "n": 4, "trials": 8}\n',
            )

        responses = run(self._with_server(scenario))
        codes = {response.get("error") for response in responses}
        assert "bad-json" in codes
        assert any(response.get("ok") for response in responses), (
            "a bad line must not poison later requests on the connection"
        )

    @pytest.mark.parametrize("request_line, expected_code", [
        ({"scenario": "nope", "p": 0.1, "n": 2, "trials": 5},
         "unknown-scenario"),
        ({"scenario": "flooding", "p": 0.1, "n": 4, "trials": 5,
          "extra_field": 1}, "bad-request"),
        ({"scenario": "flooding", "p": 0.1, "n": 4}, "bad-request"),
        ({"scenario": "flooding", "p": "high", "n": 4, "trials": 5},
         "bad-request"),
        ({"scenario": "flooding", "p": 0.1, "n": 4, "trials": 5,
          "params": [1, 2]}, "bad-request"),
        ({"scenario": "windowed-malicious", "p": 0.25, "n": 1,
          "trials": 5}, "bad-parameters"),
        ({"op": "mystery"}, "bad-request"),
        (["not", "an", "object"], "bad-request"),
    ])
    def test_error_codes(self, request_line, expected_code):
        async def scenario(host, port, server):
            line = json.dumps(request_line).encode("utf8") + b"\n"
            return await self._raw_exchange(host, port, line)

        responses = run(self._with_server(scenario))
        assert responses[0]["ok"] is False
        assert responses[0]["error"] == expected_code

    def test_stats_and_catalog_ops(self):
        async def scenario(host, port, server):
            await query_one(host, port, {
                "scenario": "flooding", "p": 0.1, "n": 4, "trials": 16,
            })
            stats = await query_one(host, port, {"op": "stats", "id": 7})
            catalog = await query_one(host, port, {"op": "catalog"})
            return stats, catalog

        stats, catalog = run(self._with_server(scenario))
        assert stats["ok"] and stats["id"] == 7
        assert stats["queries"] == 1
        assert stats["uptime_seconds"] >= 0.0
        assert stats["coalescer"] == {"inflight": 0, "started": 0,
                                      "joined": 0}
        # The shard-substrate block: which executor backend answers
        # Monte-Carlo runs, and how wide it is.
        assert stats["executor"]["backend"] == "in-process"
        assert stats["executor"]["workers"] == 1
        names = {entry["name"] for entry in catalog["scenarios"]}
        assert "windowed-malicious" in names

    def test_catalog_lists_the_declared_params(self):
        async def scenario(host, port, server):
            return await query_one(host, port, {"op": "catalog"})

        entries = {entry["name"]: entry
                   for entry in run(self._with_server(scenario))["scenarios"]}
        assert entries.keys() == {family.name for family in all_families()}
        for name, entry in entries.items():
            family = get_family(name)
            assert [param["name"] for param in entry["params"]] == list(
                family.params)
            assert bool(entry["params"]) == (name != "layered-opt")
            assert entry["p_range"]["low"] == family.p.low
        cols = {param["name"]: param
                for param in entries["windowed-malicious"]["params"]}["cols"]
        assert cols == {"name": "cols", "kind": "int", "default": 0,
                        "low": 2, "high": 4096, "open": [False, False],
                        "zero_default": True, "nullable": False,
                        "choices": [], "shapes": None}
        assert entries["kucera-flip"]["p_range"]["high"] == 0.5
        assert {size["graph"]: size["high"]
                for size in entries["kucera-flip"]["n_range"]} == {
                    "line": 64, "binary-tree": 5}
        assert entries["hello"]["n_range"] == [
            {"graph": None, "low": 1, "meaning": "half-round count m",
             "high": 4096}]

    def test_metrics_op_ships_the_registry_snapshot(self):
        async def scenario(host, port, server):
            with use_registry():
                await query_one(host, port, {
                    "scenario": "windowed-malicious", "p": 0.25, "n": 2,
                    "trials": 64, "seed": 5,
                })
                return await query_one(host, port,
                                       {"op": "metrics", "id": 9})

        response = run(self._with_server(scenario))
        assert response["ok"] and response["id"] == 9
        snapshot = response["metrics"]
        counters = {(entry["name"], tuple(sorted(entry["labels"].items()))):
                    entry["value"] for entry in snapshot["counters"]}
        assert counters[("serve.queries", ())] == 1
        assert counters[("serve.op", (("op", "query"),))] == 1
        assert counters[("serve.cache.misses", ())] == 1
        assert counters[("mc.trials", (("backend", "batchsim"),))] == 64
        histogram_names = {entry["name"]
                           for entry in snapshot["histograms"]}
        assert "serve.query.seconds" in histogram_names
        assert "mc.run.seconds" in histogram_names
        # The snapshot must round-trip through the renderer.
        text = render_prometheus(snapshot)
        assert "serve_query_seconds_bucket" in text

    def test_wire_errors_are_counted_by_code(self):
        async def scenario(host, port, server):
            await query_one(host, port, {"scenario": "no-such", "p": 0.1,
                                         "n": 2, "trials": 8})
            await query_one(host, port, {"op": "bogus"})
            return (await query_one(host, port, {"op": "metrics"}))["metrics"]

        snapshot = run(self._with_server(scenario))
        by_code = {entry["labels"]["code"]: entry["value"]
                   for entry in snapshot["counters"]
                   if entry["name"] == "serve.wire.errors"}
        assert by_code["unknown-scenario"] == 1
        assert by_code["bad-request"] == 1

    def test_list_param_is_a_counted_bad_parameters_error(self):
        async def scenario(host, port, server):
            response = await query_one(host, port, {
                "scenario": "flooding", "p": 0.1, "n": 8,
                "trials": 16, "params": {"rounds": [1, 2]},
            })
            stats = await query_one(host, port, {"op": "stats"})
            metrics = await query_one(host, port, {"op": "metrics"})
            return response, stats, metrics["metrics"]

        response, stats, snapshot = run(self._with_server(scenario))
        assert response["ok"] is False
        assert response["error"] == "bad-parameters"
        assert stats["errors"] == 1
        by_code = {entry["labels"]["code"]: entry["value"]
                   for entry in snapshot["counters"]
                   if entry["name"] == "serve.errors"}
        assert by_code == {"bad-parameters": 1}

    def test_kucera_p_too_close_to_half_is_bad_parameters(self):
        # The planner cannot boost p = 0.499 to its working level with
        # at most 2**14 repetitions; resolution refuses it before any
        # trial runs, and the server keeps serving.
        async def scenario(host, port, server):
            refused = await query_one(host, port, {
                "scenario": "kucera-flip", "p": 0.499, "n": 4,
                "trials": 16})
            served = await query_one(host, port, {
                "scenario": "kucera-flip", "p": 0.3, "n": 4, "trials": 16})
            return refused, served, server.service.stats()

        refused, served, stats = run(self._with_server(scenario))
        assert refused["ok"] is False
        assert refused["error"] == "bad-parameters"
        assert "too close to 1/2" in refused["message"]
        assert served["ok"] is True
        assert stats.errors == 1 and stats.computed == 1

    def test_out_of_order_ids_are_reassembled(self):
        async def scenario(host, port, server):
            slow = {"scenario": "windowed-malicious", "p": 0.25, "n": 2,
                    "trials": 300, "seed": 11}
            fast = {"scenario": "simple-omission", "p": 0.1, "n": 3,
                    "trials": 10, "seed": 1}
            return await query_many(host, port, [slow, fast])

        slow_response, fast_response = run(self._with_server(scenario))
        assert slow_response["backend"] == "batchsim"
        assert fast_response["backend"].startswith("fastsim:")


class TestTraffic:
    def test_pool_is_deterministic_and_distinct(self):
        pool = make_query_pool(6, trials=32, seed=3)
        assert pool == make_query_pool(6, trials=32, seed=3)
        service = SimulationService()
        fingerprints = {service.fingerprint(query) for query in pool}
        assert len(fingerprints) == 6

    def test_duplicate_heavy_burst_shares_most_work(self):
        async def scenario():
            service = SimulationService()
            report = await run_inprocess(
                service, queries=30, pool_size=3, trials=64, seed=0,
                concurrency=6,
            )
            return report, service.stats()

        report, stats = run(scenario())
        assert report.errors == 0
        assert report.queries == 30
        assert report.distinct_fingerprints == 3
        # The acceptance bar: duplicate-heavy load must be absorbed by
        # coalescing + memoisation, not recomputed per query.
        assert report.shared_rate >= 0.5
        assert stats.computed <= report.distinct_fingerprints
        assert report.qps > 0
        # Percentiles come from the shared fixed-bucket histogram; a
        # burst with successes must report an ordered, positive pair.
        assert report.p95_seconds >= report.p50_seconds > 0.0
        description = report.describe()
        assert "shared_rate" in description
        assert "p50=" in description and "p95=" in description


class TestServingCounts:
    """``stats`` and ``metrics`` read one count per serving event."""

    #: What :func:`serve_every_event` serves: seven fresh runs (two
    #: batchsim seeds, the burst leader, the queued seed, fastsim,
    #: run_until, exact), two coalesced joins, one cache hit, one
    #: ``bad-parameters`` and one ``overloaded``.
    EXPECTED = {"queries": 12, "computed": 7, "coalesced_hits": 2,
                "cache_hits": 1, "fastsim_answers": 1, "errors": 2}

    def _assert_counted_once(self, stats, metrics):
        """The counts are right, and each ``stats`` value equals its
        ``metrics`` series."""
        assert {key: stats[key] for key in self.EXPECTED} == self.EXPECTED
        assert (stats["admission"]["rejected"], stats["cache"]["hits"]) == (
            1, 1)

        def series(kind):
            return {(entry["name"], *entry["labels"].values()):
                    entry["value"] for entry in metrics["metrics"][kind]}

        def total(values, name):
            return sum(value for (series_name, *_), value in values.items()
                       if series_name == name)

        counters, gauges = series("counters"), series("gauges")
        admission = stats["admission"]
        assert stats["queries"] == counters[("serve.queries",)]
        for field, source in (("computed", "computed"),
                              ("coalesced_hits", "coalesced"),
                              ("cache_hits", "cache")):
            assert stats[field] == counters[("serve.answers", source)]
        assert stats["errors"] == total(counters, "serve.errors")
        assert admission["overloaded_answers"] == counters[
            ("serve.errors", "overloaded")]
        for field in ("hits", "misses", "evictions"):
            assert stats["cache"][field] == counters[("serve.cache." + field,)]
        for field in ("started", "joined"):
            assert stats["coalescer"][field] == counters[
                ("serve.coalesce." + field,)]
        assert stats["coalescer"]["inflight"] == gauges[
            ("serve.coalesce.inflight",)]
        for field in ("admitted", "rejected"):
            assert admission[field] == total(
                counters, "serve.admission." + field)
        for field in ("inflight", "waiting"):
            assert admission[field] == total(
                gauges, "serve.admission." + field)
        assert ("serve.admission.waiting", "query") in gauges
        assert [counters[("serve.memo." + name,)] for name in (
            "loaded", "corrupt", "compactions")] == [32, 1, 1]
        assert counters[("serve.wire.errors", "bad-json")] == 1

    def test_stats_and_metrics_report_the_same_counts(self, tmp_path):
        with use_registry() as registry:
            stats, metrics = serve_every_event(tmp_path / "memo.ndjson")
            snapshot = registry.snapshot()
        self._assert_counted_once(stats, metrics)
        # The process registry holds no serve.* count, only the spans.
        assert not [entry["name"] for kind in ("counters", "gauges")
                    for entry in snapshot[kind]
                    if entry["name"].startswith("serve.")]
        assert "serve.query.seconds" in {
            entry["name"] for entry in snapshot["histograms"]}

    def test_serving_counts_survive_metrics_off(self, tmp_path):
        previous = set_registry(NULL)
        try:
            stats, metrics = serve_every_event(tmp_path / "memo.ndjson")
        finally:
            set_registry(previous)
        self._assert_counted_once(stats, metrics)
        listed = [entry["name"] for entries in metrics["metrics"].values()
                  for entry in entries]
        assert listed and all(name.startswith("serve.") for name in listed)
        assert not metrics["metrics"]["histograms"]
