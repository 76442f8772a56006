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
  ``unknown-scenario`` error, never a crash or a silent empty answer;
* every experiment cell is a wire spec: the families an experiment
  resolves are exactly its ``experiments`` tags, and a moved cell run
  by the experiment's runner answers with the same fingerprint and
  indicators as the service query of the same spec.

No pytest-asyncio in the environment, so async scenarios run under
``asyncio.run`` inside plain test functions.
"""

import asyncio
from hashlib import sha256

import numpy as np
import pytest

from repro.experiments import registry
from repro.experiments.registry import (
    FAMILY_EXACT,
    ExperimentConfig,
    all_experiments,
    all_families,
    families_for_experiment,
    get_family,
    resolve_scenario,
)
from repro.montecarlo import (
    FINGERPRINT_VERSION,
    TrialRunner,
    scenario_fingerprint,
)
from repro.montecarlo.fingerprint import canonical_json
from repro.rng import RngStream
from repro.serve import Query, QueryError, SimulationService

#: Known-good samples, at least one per registered family:
#: ``(name, label) -> (p, n, params, expected backend, fingerprint,
#: indicators sha256)``.  The ``default`` row of a family uses its
#: default params; every further row pins one value of a family param
#: an experiment varies (one family, several param sets), and every
#: Monte-Carlo family has a row where some but not all of the trials
#: fail (a ``mixed`` row where no other row did), so a builder or shard
#: worker that dropped ``p`` or a param changes a digest.  Kept tiny so
#: the whole catalog serves in about a second.  The last two columns
#: are literal pins (see the module docstring); the indicator digest
#: ``cc8cd41c…`` is sixteen successes.
SAMPLES = {
    ("simple-omission", "default"): (
        0.3, 2, {}, "fastsim:simple-omission",
        "c7fb722f62418401065f99f28b0361f22151690f8cca53709ffbc25455aeed12",
        "03ac29e976ce94fac307d945a452e2ea21a45a77551e13454d2092d0467d77fb"),
    ("simple-omission-radio", "default"): (
        0.3, 2, {}, "fastsim:simple-omission",
        "d3d72f91c57ec1f96ffd08374087ab0fbce57b72dfb1bf978034562ef7e8cd7e",
        "03ac29e976ce94fac307d945a452e2ea21a45a77551e13454d2092d0467d77fb"),
    ("hetero-omission", "default"): (
        0.5, 2, {}, "fastsim:simple-omission",
        "45a674de9921f8db7bc3e87241fd16ddcc75e634da1a890a131b91e8d78cc302",
        "cc8cd41cef907c4d216069122c4b89936211361f9050a717a1e37ad1862e952f"),
    ("simple-malicious-mp", "default"): (
        0.2, 2, {}, "fastsim:simple-malicious-mp",
        "47350d2c1799650991969f68baf3d5b4e950c590a12fa1aabb030e7d6c23bdb4",
        "cc8cd41cef907c4d216069122c4b89936211361f9050a717a1e37ad1862e952f"),
    ("equalizing-mp", "default"): (
        0.3, 6, {}, "engine",
        "d6fb09df778b23ee10f83d58137f37a019ade2ee64a33b5ffd64c13a5ea93126",
        "9edd35c9ba60c0bb68b04f84adfdc5cfc3b49b0285994ef4feb64672d40446c9"),
    ("malicious-radio-star", "default"): (
        0.1, 4, {}, "fastsim:simple-malicious-radio",
        "e6ec5d1043355e158f70d0d65e50a3a9dd7debf0680657824eacb948a59d2444",
        "cc8cd41cef907c4d216069122c4b89936211361f9050a717a1e37ad1862e952f"),
    ("equalizing-star", "default"): (
        0.3, 4, {}, "fastsim:equalizing-star",
        "3dba91d9cc5f3a111baa8cd0c1465b46489902e096ba93a65943fbd90404a93e",
        "ec1700ac4d0546a1c96311e1b3c1294dbe60c41b1604447a0499abfb1f526255"),
    ("windowed-malicious", "default"): (
        0.25, 2, {}, "batchsim",
        "202b500308663c6ef7294881c90e005ccff1aa1fc20f2571e47e977140f12058",
        "e7eade507c630be0c0ef1d03adde3b42713d06eb493c7cc231af4af5111c604e"),
    ("flooding", "default"): (
        0.1, 5, {}, "fastsim:flooding",
        "0b5a1226352148bff975ff040d991e84ad6eb9074e1a9d0edb719071da72cde9",
        "cc8cd41cef907c4d216069122c4b89936211361f9050a717a1e37ad1862e952f"),
    ("grid-flooding", "default"): (
        0.1, 3, {}, "fastsim:flooding",
        "574ffae636f8e1c29847e4064176886092178ea0a54e8d3a915d59f06c12c3f6",
        "cc8cd41cef907c4d216069122c4b89936211361f9050a717a1e37ad1862e952f"),
    ("kucera-flip", "default"): (
        0.3, 4, {}, "batchsim",
        "f560c04c577ba7d9becd2451ef6342c8febf8ee5607a8b4590e0474a150e98c9",
        "cc8cd41cef907c4d216069122c4b89936211361f9050a717a1e37ad1862e952f"),
    ("layered-opt", "default"): (
        0.0, 3, {}, "exact",
        "507c1f8ee6e315e519b2c5c296c229ed124e9ebb14b4e30917a5fabe0579bc74",
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"),
    ("layered-omission", "default"): (
        0.3, 3, {}, "fastsim:layered-omission",
        "c24249c08f492fd05b07e9d4ce73c60cab93dcc4c55c979df9e62d4af40955d3",
        "9a7a9ed715f206a77045a3a29f58824fae67ce7bf8fd52f2292a7fcd5a7b504c"),
    ("radio-repeat", "default"): (
        0.2, 5, {}, "fastsim:radio-repeat-omission",
        "bd892da71f970fe5ecb2afcb0917cb202dd0da2223c579a150f31c67af13c24b",
        "c54db8552d1b834b6a74f1a2cf3636f9a45b5bd2ea03a0020253b4f070842e33"),
    ("hello", "default"): (
        0.2, 4, {}, "batchsim",
        "ed7d2ff15282c543ec98f7ce9eb471f83f764645c1e43e3e226c2903450d8dcd",
        "cc8cd41cef907c4d216069122c4b89936211361f9050a717a1e37ad1862e952f"),
    ("round-robin", "default"): (
        0.3, 2, {}, "batchsim",
        "9ae8eecc00312e5b8567e2db8b737963f06e75baf8bab442717070e3c088b38b",
        "cc8cd41cef907c4d216069122c4b89936211361f9050a717a1e37ad1862e952f"),
    ("prime-schedule", "default"): (
        0.3, 5, {"rounds": 200}, "batchsim",
        "80e91ec81333c6425b7eda0c37e2a4f6c59daffbd053277dc9cf56695dbbc5b1",
        "a0d4d612d513b8997d600854c2db8e045e506879a6ae257acf8e4cd77d6c2c95"),
    ("hello", "message-1"): (  # message 0 fails 9 of these 16 trials
        0.6, 2, {"message": 1}, "batchsim",
        "0b9bc6c20f207659cfc81edee37b1855dfd4073c7663fdae1d8c7ec3b0dcf913",
        "cc8cd41cef907c4d216069122c4b89936211361f9050a717a1e37ad1862e952f"),
    ("equalizing-mp", "message-0"): (
        0.3, 6, {"message": 0}, "engine",
        "01540b429d3393a32d06cf8ddb332fdfa851455ea94e217a7b62e70d5c261ab9",
        "0f6a883ad5acf31da6b2d365bd3f0ed6cadc1ea6697e20af1a59d5914bcd29a3"),
    ("equalizing-mp", "slowed"): (
        0.6, 6, {"effective_rate": 0.5}, "engine",
        "fb881829ee1960be1859810769fe624a607572a7d084ac48c7ea56ff1cd9181d",
        "a4002f351f2b098c0bf8ebca5805bf1e2a2cad919de269eff3bc4b67d86b501b"),
    ("equalizing-star", "message-0"): (
        0.3, 4, {"message": 0}, "fastsim:equalizing-star",
        "9e82995b73e000336f0c02a1a07847d9661611b7a4ec4712410ddbbb99c075d3",
        "2d68e8cc7fa68813df0a276386d01dd6e06e81246c3a1e828b641fc5d3077955"),
    ("equalizing-star", "slowed"): (
        0.4, 4, {"effective_rate": 0.3}, "fastsim:equalizing-star",
        "60f435ebf5cea00a3e345765a3e785683395cbf9042d8d200e4cfeece4d9a76a",
        "ec1700ac4d0546a1c96311e1b3c1294dbe60c41b1604447a0499abfb1f526255"),
    ("windowed-malicious", "cols"): (  # the 2 x 2 grid passes 14 of 16
        0.4, 2, {"cols": 3}, "batchsim",
        "9c035ccc0dbb3604a23a0ca8b77750fd9efe0b3099c0804fa5803499b9065bf2",
        "51830dccc12f62d30cbdf8ecb1775b386925efd65a1f1575ae30a784f58cb1b6"),
    ("grid-flooding", "cols"): (
        0.5, 2, {"cols": 4, "rounds": 6}, "fastsim:flooding",
        "40150f0ac7bc835836a96118b8ca73bc1cce9c4a4178dd6875277e3cbe6b75ab",
        "a4437e0275eaf23b20d309cc33da80a3b50beff2101e2d840eef738f5975ccab"),
    ("flooding", "binary-tree"): (
        0.4, 3, {"graph": "binary-tree", "rounds": 6}, "fastsim:flooding",
        "f3733acc4995da27a7ee57dbf7007b37358d3e2a63102be5251f428dc4962865",
        "eb1c6e6f13283c263e35d9f16cb0967448be92de1ff9a0b106a50795d2b8c6d9"),
    ("kucera-flip", "binary-tree"): (  # a line needs n >= 2
        0.45, 1, {"graph": "binary-tree"}, "batchsim",
        "8d2b8b37d8e7e85580a6a85da7a6d1a6521f91d0dc3b89085374e135543351b3",
        "6c014c89abbc90a6e18d92cca238f2cc0987918516b2bc0d164da54f99182a3a"),
    ("radio-repeat", "spider"): (
        0.2, 3, {"graph": "spider"}, "fastsim:radio-repeat-omission",
        "0f8c54794ba633ef9ac96dc8e1a199bc8f1f3f5b032ef6fc2152aeb3b572dab0",
        "a8cb66881cd4806afa80d10049f5f8ed95907d4cc0692016fe5caf60085cfd90"),
    ("radio-repeat", "star"): (
        0.2, 4, {"graph": "star"}, "fastsim:radio-repeat-omission",
        "42ffd8106625eb81759692951e5bc8654c6fd9ff3bf246c4fbb428d50b3334c0",
        "884e43bb12ca9d5d63e7df986860fa4a475fadecd44255b45d9f4e71290dd12e"),
    ("radio-repeat", "layered"): (
        0.2, 3, {"graph": "layered"}, "fastsim:radio-repeat-omission",
        "671164656e403902cd02c45cf3a406beeb654c6f37e61e5ac30b4c5191924916",
        "26c5f8078dac8b9729d6639701babbf7950ea3686eac5a01add62d28e96227ff"),
    ("radio-repeat", "random-tree"): (
        0.2, 10, {"graph": "random-tree", "graph_seed": 5},
        "fastsim:radio-repeat-omission",
        "e48b87b539248c1d3815215371150ad39107745d386eae30e6beffa4b4735c61",
        "3e3fb9225750ba6eca558ea257b9dbb5a95c1e4dc8e8dc3180a861346c6e96b3"),
    ("layered-omission", "repeat"): (
        0.3, 3, {"repeat": 2}, "fastsim:layered-omission",
        "62ad5cb5801c0cc50c4a454407aa06064ac65979ed7d113e9d0a7b8e6e97db93",
        "5b81cda0f80dcf6d33e65c1d08c4760265ffc9c3b6c1612cd0562825fe157057"),
    ("hello", "mixed"): (  # fails 8 of 16
        0.5, 2, {}, "batchsim",
        "3c502bde00625b0e0d8c5e54d47f649f2e2b2a91498c64a77c1bb26460171286",
        "2dd475200a2e777cd5789f0a551fc1041d380d3578e0661bd450dc4ae2b783d2"),
    ("hetero-omission", "mixed"): (  # fails 3 of 16
        0.5, 2, {"phase_length": 1}, "fastsim:simple-omission",
        "9cd68f36fa5a6bd518a1de450e8d6469839cf3b419c26b532d086c93252bf514",
        "1eba7942cce67f37c4cd3106fd7c99ddc298aec3fd8a799e2c3b4f1bc6585542"),
    ("malicious-radio-star", "mixed"): (  # fails 8 of 16
        0.1, 4, {"phase_length": 1}, "fastsim:simple-malicious-radio",
        "fe512f089315792265f33db6c69a0a87052336a8fd056100dcdcf607dd096fe7",
        "496a90414d510f33e32f4d0b9b670015a32f25a6184975580724bfef8c9c7cb7"),
    ("round-robin", "mixed"): (  # fails 13 of 16
        0.3, 2, {"cycles": 1}, "batchsim",
        "7034d1a922f9ab8f9fee7b257f89d538aac6c9a21df2a02c6216842587774101",
        "7c344504574f6ce9726d9cdc9abbde9bd91bf7672f74031ef5b93822410d9e22"),
    ("simple-malicious-mp", "mixed"): (  # fails 8 of 16
        0.2, 2, {"phase_length": 1}, "fastsim:simple-malicious-mp",
        "e7913a626f4ec6e29882c2ed98b97dd88209f9681345cfc1709a91c49b5ff713",
        "94ae46c253ab3f2c360f7d2c7e8e6128fb2fbd45baad3c9c89efba1698612ab2"),
}

EXPERIMENT_IDS = tuple(f"E{index:02d}" for index in range(1, 16))

TRIALS = 16
SEED = 7


def run(coro):
    return asyncio.run(coro)


class TestCatalogShape:
    def test_registered_families_are_exactly_the_samples(self):
        assert ({family.name for family in all_families()}
                == {name for name, _ in SAMPLES})
        assert all((name, "default") in SAMPLES for name, _ in SAMPLES)

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
    """Every sample answered by one fresh service:
    ``(name, label) -> Answer``."""
    async def scenario():
        service = SimulationService()
        answers = {}
        for key, (p, n, params, *_) in SAMPLES.items():
            name = key[0]
            if get_family(name).kind == FAMILY_EXACT:
                query = Query(name, p, n, 1, seed=0, params=params)
            else:
                query = Query(name, p, n, TRIALS, seed=SEED, params=params)
            answers[key] = await service.submit(query)
            assert service.fingerprint(query) == answers[key].fingerprint
        return answers

    return run(scenario())


@pytest.fixture(scope="module")
def answers():
    return _serve_samples()


class TestEveryFamilyServes:
    def test_all_samples_round_trip(self, answers):
        for key, (p, n, params, backend, *_) in SAMPLES.items():
            name = key[0]
            answer = answers[key]
            assert answer.backend == backend, key
            family = get_family(name)
            if family.kind == FAMILY_EXACT:
                compute, model = family.build(p, n, **params)
                assert model is None
                assert answer.result.indicators.tolist() == [compute()]
                continue
            factory, model = resolve_scenario(name, p, n, params)
            direct = TrialRunner(factory, model).run(TRIALS, SEED)
            assert np.array_equal(answer.result.indicators,
                                  direct.indicators), key
            assert answer.result.backend == direct.backend, key

    def test_fingerprints_and_indicators_are_pinned(self, answers):
        assert FINGERPRINT_VERSION == 2, "re-pin both columns below"
        for key, (*_, fingerprint, digest) in SAMPLES.items():
            assert answers[key].indicators_digest() == digest, (
                f"{key} computes different indicators: bump "
                f"FINGERPRINT_VERSION, then re-pin")
            assert answers[key].fingerprint == fingerprint, key

    def test_every_monte_carlo_family_has_a_pin_with_failing_trials(
            self, answers):
        # A pin of sixteen successes stays green under a builder or a
        # shard worker that ignores p or a param; a mixed one does not.
        mixed = {name for (name, _), answer in answers.items()
                 if 0 < answer.result.successes < TRIALS}
        montecarlo = {family.name for family in all_families()
                      if family.kind != FAMILY_EXACT}
        assert montecarlo - mixed == set()

    def test_every_param_of_a_pin_changes_its_indicators(self):
        # The fingerprint hashes the spec, so a builder that ignored a
        # param would keep the fingerprint pin; the digest pin catches
        # it only if dropping that param computes something else (or
        # leaves an invalid spec).
        for key, (p, n, params, *_, digest) in SAMPLES.items():
            if key[1] == "default":
                continue
            for dropped in params:
                rest = {name: value for name, value in params.items()
                        if name != dropped}
                try:
                    factory, model = resolve_scenario(key[0], p, n, rest)
                except ValueError:
                    continue
                indicators = TrialRunner(factory, model).run(
                    TRIALS, SEED).indicators
                assert sha256(indicators.tobytes()).hexdigest() != digest, (
                    key, dropped)


def _resolved_cells(config, experiment_ids):
    """Run experiments under ``config`` and record every cell they
    resolve: ``experiment id -> [(family, p, n, params), ...]``."""
    cells = {experiment_id: [] for experiment_id in experiment_ids}
    real = registry.resolve_scenario
    running = []

    def spy(name, p, n, params=None):
        cells[running[-1]].append((name, p, n, dict(params or {})))
        return real(name, p, n, params)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(registry, "resolve_scenario", spy)
        for experiment_id in experiment_ids:
            running.append(experiment_id)
            registry.get_experiment(experiment_id).runner(config)
    return cells


#: A tiny trial budget: the cells an experiment resolves do not depend
#: on it, so one pass over every quick experiment stays cheap.
_SPY_CONFIG = ExperimentConfig(quick=True, trials_scale=0.02)


@pytest.fixture(scope="module")
def quick_cells():
    return _resolved_cells(_SPY_CONFIG, EXPERIMENT_IDS)


class TestExperimentCellsAreWireSpecs:
    def test_servable_tags_equal_the_resolved_families(self, quick_cells):
        # Exact families are exempt: E10 resolves no Monte-Carlo cell.
        for experiment in all_experiments():
            experiment_id = experiment.experiment_id
            tagged = {family.name
                      for family in families_for_experiment(experiment_id)
                      if family.kind != FAMILY_EXACT}
            resolved = {cell[0] for cell in quick_cells[experiment_id]}
            assert resolved == tagged, experiment_id
            described = {spec.cell[0] for spec in experiment.scenarios
                         if spec.cell is not None}
            assert described <= tagged, experiment_id

    @pytest.mark.parametrize("experiment_id, quick, cell, path, trials", [
        ("E13", True,
         ("hello", 0.2, 8, {"message": 1, "adversary": "silent"}),
         ("mc", 0.2, 8, 1, "drop"), 150),
        ("E04", True,
         ("equalizing-mp", 0.6, 15, {"message": 0, "effective_rate": 0.5}),
         ("mc", 0.6, 0), 100),
        ("E12", False,
         ("radio-repeat", 0.4, 18, {
             "graph": "random-tree", "rule": "any",
             "graph_seed": RngStream(2007).child("E12").child("rt").seed,
         }),
         ("mc", "rtree-18", "any"), 256),
    ])
    def test_moved_cell_answers_like_its_wire_query(
            self, quick_cells, experiment_id, quick, cell, path, trials):
        if quick:
            resolved = quick_cells[experiment_id]
        else:
            resolved = _resolved_cells(
                ExperimentConfig(trials_scale=0.02), [experiment_id]
            )[experiment_id]
        assert cell in resolved
        family, p, n, params = cell
        stream = RngStream(2007).child(experiment_id).child(*path)
        local = ExperimentConfig().runner(*cell).run(trials, stream)
        answer = run(SimulationService().submit(
            Query(family, p, n, trials, seed=stream.seed, params=params)))
        spec = canonical_json([family, float(p), n, params])
        assert answer.fingerprint == scenario_fingerprint(
            spec, trials, stream.seed)
        assert answer.indicators_digest() == sha256(
            local.indicators.tobytes()).hexdigest()
