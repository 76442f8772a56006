"""Catalog completeness: every experiment servable, every family live.

The invariant this file pins (so it cannot rot as families are added
or renamed):

* the registered family set is **exactly** the sample table below —
  adding a family without extending the table fails, as does removing
  or renaming one;
* every experiment E01–E15 is tagged by at least one family;
* every family **serves**: its sample query resolves, fingerprints,
  answers over the in-process API on the expected backend, and the
  answer is bit-identical to a direct :class:`TrialRunner` run of the
  same resolved scenario (the exact family is checked against its
  ``compute`` verdict instead);
* every sample's fingerprint and indicator digest are **pinned
  literals**.  The fingerprint hashes only the wire spec, never what
  the builders produce, so the indicator pins are the semantics guard:
  a builder, algorithm or kernel change that alters what a spec
  computes fails here until ``FINGERPRINT_VERSION`` is bumped (which
  re-keys every fingerprint, so both columns are re-pinned together);
* unregistered scenario names are refused with a structured
  ``unknown-scenario`` error, never a crash or a silent empty answer.

No pytest-asyncio in the environment, so async scenarios run under
``asyncio.run`` inside plain test functions.
"""

import asyncio

import numpy as np
import pytest

from repro.experiments.registry import (
    FAMILY_EXACT,
    all_experiments,
    all_families,
    families_for_experiment,
    get_family,
    resolve_scenario,
)
from repro.montecarlo import FINGERPRINT_VERSION, TrialRunner
from repro.serve import Query, QueryError, SimulationService

#: One known-good sample per registered family:
#: ``name -> (p, n, params, expected backend, fingerprint, indicators
#: sha256)``.  Kept tiny so the whole catalog serves in well under a
#: second.  The last two columns are literal pins (see the module
#: docstring); the indicator digest ``cc8cd41c…`` is sixteen successes.
SAMPLES = {
    "simple-omission": (
        0.3, 2, {}, "fastsim:simple-omission",
        "c7fb722f62418401065f99f28b0361f22151690f8cca53709ffbc25455aeed12",
        "03ac29e976ce94fac307d945a452e2ea21a45a77551e13454d2092d0467d77fb"),
    "simple-omission-radio": (
        0.3, 2, {}, "fastsim:simple-omission",
        "d3d72f91c57ec1f96ffd08374087ab0fbce57b72dfb1bf978034562ef7e8cd7e",
        "03ac29e976ce94fac307d945a452e2ea21a45a77551e13454d2092d0467d77fb"),
    "hetero-omission": (
        0.5, 2, {}, "fastsim:simple-omission",
        "45a674de9921f8db7bc3e87241fd16ddcc75e634da1a890a131b91e8d78cc302",
        "cc8cd41cef907c4d216069122c4b89936211361f9050a717a1e37ad1862e952f"),
    "simple-malicious-mp": (
        0.2, 2, {}, "fastsim:simple-malicious-mp",
        "47350d2c1799650991969f68baf3d5b4e950c590a12fa1aabb030e7d6c23bdb4",
        "cc8cd41cef907c4d216069122c4b89936211361f9050a717a1e37ad1862e952f"),
    "equalizing-mp": (
        0.3, 6, {}, "engine",
        "d6fb09df778b23ee10f83d58137f37a019ade2ee64a33b5ffd64c13a5ea93126",
        "9edd35c9ba60c0bb68b04f84adfdc5cfc3b49b0285994ef4feb64672d40446c9"),
    "malicious-radio-star": (
        0.1, 4, {}, "fastsim:simple-malicious-radio",
        "e6ec5d1043355e158f70d0d65e50a3a9dd7debf0680657824eacb948a59d2444",
        "cc8cd41cef907c4d216069122c4b89936211361f9050a717a1e37ad1862e952f"),
    "equalizing-star": (
        0.3, 4, {}, "fastsim:equalizing-star",
        "3dba91d9cc5f3a111baa8cd0c1465b46489902e096ba93a65943fbd90404a93e",
        "ec1700ac4d0546a1c96311e1b3c1294dbe60c41b1604447a0499abfb1f526255"),
    "windowed-malicious": (
        0.25, 2, {}, "batchsim",
        "202b500308663c6ef7294881c90e005ccff1aa1fc20f2571e47e977140f12058",
        "e7eade507c630be0c0ef1d03adde3b42713d06eb493c7cc231af4af5111c604e"),
    "flooding": (
        0.1, 5, {}, "fastsim:flooding",
        "0b5a1226352148bff975ff040d991e84ad6eb9074e1a9d0edb719071da72cde9",
        "cc8cd41cef907c4d216069122c4b89936211361f9050a717a1e37ad1862e952f"),
    "grid-flooding": (
        0.1, 3, {}, "fastsim:flooding",
        "574ffae636f8e1c29847e4064176886092178ea0a54e8d3a915d59f06c12c3f6",
        "cc8cd41cef907c4d216069122c4b89936211361f9050a717a1e37ad1862e952f"),
    "kucera-flip": (
        0.3, 4, {}, "batchsim",
        "f560c04c577ba7d9becd2451ef6342c8febf8ee5607a8b4590e0474a150e98c9",
        "cc8cd41cef907c4d216069122c4b89936211361f9050a717a1e37ad1862e952f"),
    "layered-opt": (
        0.0, 3, {}, "exact",
        "507c1f8ee6e315e519b2c5c296c229ed124e9ebb14b4e30917a5fabe0579bc74",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"),
    "layered-omission": (
        0.3, 3, {}, "fastsim:layered-omission",
        "c24249c08f492fd05b07e9d4ce73c60cab93dcc4c55c979df9e62d4af40955d3",
        "9a7a9ed715f206a77045a3a29f58824fae67ce7bf8fd52f2292a7fcd5a7b504c"),
    "radio-repeat": (
        0.2, 5, {}, "fastsim:radio-repeat-omission",
        "bd892da71f970fe5ecb2afcb0917cb202dd0da2223c579a150f31c67af13c24b",
        "c54db8552d1b834b6a74f1a2cf3636f9a45b5bd2ea03a0020253b4f070842e33"),
    "hello": (
        0.2, 4, {}, "batchsim",
        "ed7d2ff15282c543ec98f7ce9eb471f83f764645c1e43e3e226c2903450d8dcd",
        "cc8cd41cef907c4d216069122c4b89936211361f9050a717a1e37ad1862e952f"),
    "round-robin": (
        0.3, 2, {}, "batchsim",
        "9ae8eecc00312e5b8567e2db8b737963f06e75baf8bab442717070e3c088b38b",
        "cc8cd41cef907c4d216069122c4b89936211361f9050a717a1e37ad1862e952f"),
    "prime-schedule": (
        0.3, 5, {"rounds": 200}, "batchsim",
        "80e91ec81333c6425b7eda0c37e2a4f6c59daffbd053277dc9cf56695dbbc5b1",
        "a0d4d612d513b8997d600854c2db8e045e506879a6ae257acf8e4cd77d6c2c95"),
}

EXPERIMENT_IDS = tuple(f"E{index:02d}" for index in range(1, 16))

TRIALS = 16
SEED = 7


def run(coro):
    return asyncio.run(coro)


class TestCatalogShape:
    def test_registered_families_are_exactly_the_samples(self):
        assert {family.name for family in all_families()} == set(SAMPLES)

    def test_every_experiment_is_servable(self):
        registered = {exp.experiment_id for exp in all_experiments()}
        assert registered == set(EXPERIMENT_IDS)
        missing = [experiment_id for experiment_id in EXPERIMENT_IDS
                   if not families_for_experiment(experiment_id)]
        assert missing == []

    def test_family_tags_reference_real_experiments(self):
        registered = {exp.experiment_id for exp in all_experiments()}
        for family in all_families():
            assert family.experiments, f"{family.name} tags no experiment"
            assert set(family.experiments) <= registered

    def test_exactly_one_exact_family(self):
        exact = [family.name for family in all_families()
                 if family.kind == FAMILY_EXACT]
        assert exact == ["layered-opt"]

    def test_unregistered_scenario_is_refused(self):
        with pytest.raises(KeyError):
            get_family("no-such-family")
        with pytest.raises(QueryError) as excinfo:
            run(SimulationService().submit(
                Query("no-such-family", 0.1, 2, 8)))
        assert excinfo.value.code == "unknown-scenario"


def _serve_samples():
    """Every sample answered by one fresh service: ``name -> Answer``."""
    async def scenario():
        service = SimulationService()
        answers = {}
        for name, (p, n, params, *_) in SAMPLES.items():
            if get_family(name).kind == FAMILY_EXACT:
                query = Query(name, p, n, 1, seed=0, params=params)
            else:
                query = Query(name, p, n, TRIALS, seed=SEED, params=params)
            answers[name] = await service.submit(query)
            assert service.fingerprint(query) == answers[name].fingerprint
        return answers

    return run(scenario())


class TestEveryFamilyServes:
    def test_all_samples_round_trip(self):
        answers = _serve_samples()
        for name, (p, n, params, backend, *_) in SAMPLES.items():
            answer = answers[name]
            assert answer.backend == backend, name
            family = get_family(name)
            if family.kind == FAMILY_EXACT:
                compute, model = family.build(p, n, **params)
                assert model is None
                assert answer.result.indicators.tolist() == [compute()]
                continue
            factory, model = resolve_scenario(name, p, n, params)
            direct = TrialRunner(factory, model).run(TRIALS, SEED)
            assert np.array_equal(answer.result.indicators,
                                  direct.indicators), name
            assert answer.result.backend == direct.backend, name

    def test_fingerprints_and_indicators_are_pinned(self):
        assert FINGERPRINT_VERSION == 2, "re-pin both columns below"
        answers = _serve_samples()
        for name, (*_, fingerprint, digest) in SAMPLES.items():
            assert answers[name].indicators_digest() == digest, (
                f"{name} computes different indicators: bump "
                f"FINGERPRINT_VERSION, then re-pin")
            assert answers[name].fingerprint == fingerprint, name
