"""Experiment registry: one entry per theorem/lemma being reproduced.

Each experiment is a callable taking an :class:`ExperimentConfig` and
returning an :class:`ExperimentReport` containing a result table, notes
and a boolean ``passed`` verdict — "did the paper's qualitative claim
hold in this run".  Runner modules register themselves at import time
via :func:`register`; :func:`run_experiment` / :func:`run_all` drive
them (used by the CLI, the benchmarks and EXPERIMENTS.md).

Every Monte-Carlo cell an experiment runs is a wire scenario spec
``(family, p, n, params)``: runners build their trial runners only
through :meth:`ExperimentConfig.runner`, which resolves the cell
through the scenario-family catalog (:func:`resolve_scenario`, the
same entry point the :mod:`repro.serve` service uses).  So an
experiment cell and a service query with the same spec compute the
same indicators, and the family's ``experiments`` tag names exactly
the experiments that resolve it.

Each registration also carries the experiment's representative
:class:`ScenarioSpec` list — plain data, one cell each.  The
``python -m repro.experiments describe`` table (and the committed
``EXPERIMENTS.md`` it generates) resolves those cells the same way and
reads the dispatched backend straight from the live dispatch logic —
the documentation cannot drift from the registry (pinned by
``tests/test_docs_sync.py``).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.tables import Table
from repro.montecarlo import TrialRunner

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "Experiment",
    "Cell",
    "ScenarioSpec",
    "ScenarioFamily",
    "Param",
    "register",
    "register_family",
    "get_family",
    "all_families",
    "families_for_experiment",
    "resolve_scenario",
    "FAMILY_MONTECARLO",
    "FAMILY_EXACT",
    "get_experiment",
    "all_experiments",
    "run_experiment",
    "run_all",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for every experiment run.

    Attributes
    ----------
    seed:
        Root seed; every experiment derives all randomness from it.
    quick:
        Smaller sizes / fewer trials (used by the benchmark harness).
    workers:
        Process count handed to the Monte-Carlo
        :class:`~repro.montecarlo.TrialRunner` batches.  Reports are
        bit-identical for any worker count (per-trial streams are
        derived by trial index), so this is purely a wall-clock knob
        for the sharded tiers — engine-fallback sweeps shard their
        trial loops, batchsim sweeps shard their vectorised trial
        chunks once the budget clears the per-chunk floor;
        fastsim-dispatched batches ignore it.
    trials_scale:
        Multiplier applied by every runner to its Monte-Carlo trial
        budgets (via :meth:`scaled_trials`), so full-size sweeps
        stretch with the hardware — ``--trials-scale 10`` with
        ``--workers N`` buys 10x tighter intervals at roughly 10/N the
        single-process wall-clock.  Per-trial streams depend only on
        the trial index, so scaling *extends* the indicator vector of
        a smaller run instead of reshuffling it, and workers-invariance
        is unaffected.
    target_width:
        Optional override of the adaptive runners' stopping width.
        Threshold-curve sweeps (E01, E05, E12, E15) allocate trials
        sequentially — ``TrialRunner.run_until`` doubles each cell's
        budget until its interval width reaches the target — so
        decisive cells stop early and the budget concentrates on the
        steep part of the curve.  ``None`` keeps each runner's default
        width (chosen to match its historical fixed budget); the
        stopping point is deterministic per seed either way.
    max_trials_scale:
        Multiplier on the adaptive runners' ``max_trials`` caps (which
        default to the historical fixed budgets, after
        ``trials_scale``).  Raising it lets a tighter ``target_width``
        actually be reached; the cap guarantees termination.
    executor:
        Optional shard-substrate spec handed to every runner's
        :class:`~repro.montecarlo.TrialRunner` (``"in-process"``,
        ``"local-process[:N]"``, ``"remote:host:port,..."`` — the
        ``--executor`` CLI flag).  ``None`` keeps the historical
        resolution from ``workers``.  Reports are bit-identical for
        any substrate, exactly as they are for any worker count.
    """

    seed: int = 2007  # the journal year, for flavour
    quick: bool = False
    workers: int = 1
    trials_scale: float = 1.0
    target_width: Optional[float] = None
    max_trials_scale: float = 1.0
    executor: Optional[str] = None

    def __post_init__(self):
        if not (self.trials_scale > 0):
            raise ValueError(
                f"trials_scale must be positive, got {self.trials_scale}"
            )
        if self.executor is not None and not isinstance(self.executor, str):
            raise TypeError(
                f"executor must be a spec string or None, got "
                f"{type(self.executor).__name__}"
            )
        if not (self.max_trials_scale > 0):
            raise ValueError(
                f"max_trials_scale must be positive, got {self.max_trials_scale}"
            )
        if self.target_width is not None and not (0.0 < self.target_width <= 1.0):
            raise ValueError(
                f"target_width must lie in (0, 1], got {self.target_width}"
            )

    def scaled_trials(self, base: int) -> int:
        """``base`` trials scaled by :attr:`trials_scale` (at least 1)."""
        return max(1, round(base * self.trials_scale))

    def adaptive_width(self, default: float) -> float:
        """The sequential stopping width: the override or the default."""
        return default if self.target_width is None else self.target_width

    def adaptive_cap(self, base: int) -> int:
        """Sequential ``max_trials``: the scaled fixed budget times
        :attr:`max_trials_scale` (at least 1)."""
        return max(1, round(self.scaled_trials(base) * self.max_trials_scale))

    def runner(self, family: str, p: float, n: int,
               params: Optional[Dict[str, Any]] = None, *,
               use_fastsim: bool = True, use_batchsim: bool = True):
        """The :class:`~repro.montecarlo.TrialRunner` of one experiment
        cell — the only way an experiment builds a Monte-Carlo run.

        The cell ``(family, p, n, params)`` resolves through the wire
        catalog (:meth:`TrialRunner.from_spec`), so it computes exactly
        what a service query with the same spec computes; :attr:`workers`
        and :attr:`executor` pick the shard substrate.
        ``use_fastsim=False, use_batchsim=False`` pins the scalar
        engine for validation columns.
        """
        return TrialRunner.from_spec(family, p, n, params,
                                     workers=self.workers,
                                     executor=self.executor,
                                     use_fastsim=use_fastsim,
                                     use_batchsim=use_batchsim)


@dataclass
class ExperimentReport:
    """What an experiment hands back.

    Attributes
    ----------
    experiment_id, title, paper_claim:
        Identification and the claim under test.
    table:
        The regenerated result grid.
    notes:
        Free-form commentary lines (fits, constants, caveats).
    passed:
        Whether the paper's qualitative claim held.
    """

    experiment_id: str
    title: str
    paper_claim: str
    table: Table
    notes: List[str] = field(default_factory=list)
    passed: bool = True

    def render(self) -> str:
        """Full plain-text report."""
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            f"paper claim: {self.paper_claim}",
            "",
            self.table.render(),
        ]
        if self.notes:
            lines.append("")
            lines.extend(f"note: {note}" for note in self.notes)
        lines.append("")
        lines.append(f"verdict: {'REPRODUCED' if self.passed else 'NOT REPRODUCED'}")
        return "\n".join(lines)


#: One Monte-Carlo cell as a wire scenario spec: ``(family, p, n,
#: params)``, resolved by :func:`resolve_scenario`.
Cell = Tuple[str, float, int, Dict[str, Any]]


@dataclass(frozen=True)
class ScenarioSpec:
    """One representative Monte-Carlo scenario of an experiment.

    Plain data: the scenario is a catalog :data:`Cell`, never a
    callable, so the describe table shows exactly what a wire query
    (and the runner, which resolves its cells the same way) computes.

    Attributes
    ----------
    label:
        Short scenario name shown in the describe table (e.g.
        ``"windowed malicious"``).
    cell:
        The scenario's quick-mode ``(family, p, n, params)`` spec.  The
        describe machinery resolves it through
        :meth:`ExperimentConfig.runner` and reads
        ``dispatch_backend()`` and ``failure_model.describe()`` off the
        runner, so the documented backend is always the dispatched one.
        ``None`` marks a non-Monte-Carlo (purely combinatorial)
        scenario: the topology/trials strings are still rendered, the
        backend and failure columns show ``—``.
    topology:
        Human-readable topology summary (e.g. ``"binary tree d=4"``).
    trials:
        Trial-budget summary, quick vs full (e.g. ``"2000 / 6000"``).
    sequential:
        Adaptive-allocation summary for scenarios that run
        ``TrialRunner.run_until`` (e.g. ``"width ≤ 0.05 (bernstein)"``);
        empty for fixed-budget scenarios, rendered as ``—``.
    note:
        Optional caveat (e.g. a deliberately pinned engine
        cross-check column that bypasses dispatch).
    """

    label: str
    cell: Optional[Cell]
    topology: str
    trials: str
    sequential: str = ""
    note: str = ""


@dataclass(frozen=True)
class Param:
    """One declared input: a family's ``p``, or a param as its builder's
    keyword default (``rounds: int = Param("int", 2500, 1, 10**5)``).

    ``kind`` is ``"int"`` (never a bool), ``"number"`` (finite, passed
    on as ``float``) or ``"choice"`` (one of ``choices``, of the same
    type).  ``[low, high]`` is the range, and ``open`` excludes either
    end.  ``zero_default`` accepts ``0`` to select the builder's
    computed default, and ``nullable`` accepts ``None``.  A ``graph``
    choice's ``shapes`` map each kind to ``(smallest n, what n means,
    largest n)``.
    """

    kind: str
    default: Any = None
    low: Any = None
    high: Any = None
    open: Tuple[bool, bool] = (False, False)
    zero_default: bool = False
    nullable: bool = False
    choices: Tuple[Any, ...] = ()
    shapes: Optional[Dict[str, Tuple[int, str, int]]] = None

    def check(self, name: str, value: Any) -> Any:
        """``value`` if legal; a ``ValueError`` naming ``name`` if not."""
        if value is None and self.nullable:
            return None
        if self.kind == "choice":
            if not any(type(value) is type(choice) and value == choice
                       for choice in self.choices):
                raise ValueError(f"{name} must be one of "
                                 f"{list(self.choices)}, got {value!r}")
            return value
        number = self.kind == "number"
        if isinstance(value, bool) or not isinstance(
                value, (int, float) if number else int):
            kind = "a number" if number else "an int"
            raise ValueError(f"{name} must be {kind}, got {value!r}")
        low_ok = value > self.low if self.open[0] else value >= self.low
        high_ok = value < self.high if self.open[1] else value <= self.high
        if not (low_ok and high_ok or value == 0 and self.zero_default):
            raise ValueError(  # NaN fails both bounds
                f"{name} must lie in {'(' if self.open[0] else '['}"
                f"{self.low}, {self.high}{')' if self.open[1] else ']'}, "
                f"got {value}")
        return float(value) if number else value


@dataclass(frozen=True)
class ScenarioFamily:
    """A parameterised scenario the serving layer can build on demand.

    A family is the one construction path of a scenario: a client of
    :mod:`repro.serve` names a family and supplies ``(p, n)`` (plus
    optional family-specific ``params``), an experiment runner does
    the same through :meth:`ExperimentConfig.runner`, and
    :meth:`build` returns the ``(algorithm_factory, failure_model)``
    pair both turn into a :class:`~repro.montecarlo.TrialRunner`.
    Results are memoised on the canonical wire spec ``(name, p, n,
    params)`` (:func:`repro.montecarlo.scenario_fingerprint`), never
    on the built objects, so a builder must be a pure function of its
    arguments.  Shards of a spec-built runner carry only the spec; the
    factory is pickled only when a runner built from it directly
    shards onto a ``local-process`` pool, so keep it picklable.

    Attributes
    ----------
    name:
        Wire name clients use (kebab-case, e.g. ``"simple-omission"``).
    builder:
        The registered ``builder(p, n, **params)``, called by :meth:`build`.
    description:
        One-line summary for catalogs and docs.
    p, params:
        The declared ``p`` and ``name -> Param``.
    sizes:
        ``graph kind -> (smallest n, what n means, largest n)``, keyed
        by ``None`` for a family without a ``graph`` param.
    size_meaning:
        What the wire parameter ``n`` selects (e.g. ``"line length"``,
        ``"grid side"``) — rendered in the catalog so clients know what
        they are scaling.
    experiments:
        The experiment ids whose cells resolve through this family
        (e.g. ``("E05",)``), i.e. the experiments it makes servable
        over the wire.  The describe table renders these as the
        **Servable** column; ``tests/test_serve_catalog.py`` pins that
        the tags equal the families each experiment resolves and that
        every registered experiment is covered.
    kind:
        ``FAMILY_MONTECARLO`` (the default) for families whose build
        returns ``(algorithm_factory, failure_model)`` and run through
        :class:`~repro.montecarlo.TrialRunner`; ``FAMILY_EXACT`` for
        purely combinatorial families (E10) whose build returns
        ``(compute, None)`` with ``compute`` a zero-argument callable
        returning a bool — the service runs it once and serves
        the verdict memo-only.
    """

    name: str
    builder: Callable[..., Tuple[Callable[[], object], object]]
    description: str
    p: Param
    params: Dict[str, Param]
    sizes: Dict[Optional[str], Tuple[int, str, int]]
    size_meaning: str = "number of nodes"
    experiments: Tuple[str, ...] = ()
    kind: str = "montecarlo"

    def build(self, p: Any, n: Any, **params: Any):
        """``(factory, failure_model)`` of the scenario ``(p, n, params)``.

        The declarations validate: an unknown param or a value of the
        wrong kind or range is a ``ValueError`` naming the field.
        Builders only build, from validated values with every default
        filled in; they check only rules that tie two fields together.
        """
        unknown = sorted(map(str, params.keys() - self.params.keys()))
        if unknown:
            raise ValueError(
                f"unknown param(s) {', '.join(unknown)} for {self.name}; "
                f"known: {', '.join(self.params) or 'none'}")
        values = {name: param.check(name, params.get(name, param.default))
                  for name, param in self.params.items()}
        low, meaning, high = self.sizes[values.get("graph")]
        n = Param("int", low=low, high=high).check(f"n ({meaning})", n)
        return self.builder(self.p.check("p", p), n, **values)


#: :attr:`ScenarioFamily.kind` values.
FAMILY_MONTECARLO = "montecarlo"
FAMILY_EXACT = "exact"

_FAMILY_KINDS = (FAMILY_MONTECARLO, FAMILY_EXACT)

_FAMILIES: Dict[str, ScenarioFamily] = {}


def register_family(name: str, description: str, *, p: Param,
                    n: Optional[Tuple[int, str, int]] = None,
                    size_meaning: str = "number of nodes",
                    experiments: Tuple[str, ...] = (),
                    kind: str = FAMILY_MONTECARLO):
    """Decorator registering a scenario-family builder under ``name``.

    ``p`` and ``n`` (``(smallest, meaning, largest)``, unless a
    ``graph`` param's shapes set it) declare their ranges; each
    keyword-only builder argument declares a param by its default.
    """
    if kind not in _FAMILY_KINDS:
        raise ValueError(
            f"family kind must be one of {_FAMILY_KINDS}, got {kind!r}"
        )

    def decorate(builder: Callable[..., Tuple[Callable[[], object], object]]):
        if name in _FAMILIES:
            raise ValueError(f"duplicate scenario family {name!r}")
        params = {key: arg.default for key, arg in
                  inspect.signature(builder).parameters.items()
                  if arg.kind is arg.KEYWORD_ONLY}
        if not all(isinstance(param, Param) for param in params.values()):
            raise TypeError(f"{name}: builder keywords must default to Params")
        graph = params.get("graph")
        _FAMILIES[name] = ScenarioFamily(
            name=name, builder=builder, description=description, p=p,
            params=params, sizes=graph.shapes if graph else {None: n},
            size_meaning=size_meaning, experiments=tuple(experiments),
            kind=kind,
        )
        return builder

    return decorate


def _ensure_families_loaded() -> None:
    """Import the builtin catalog (registration is an import side effect)."""
    from repro.serve import catalog  # noqa: F401  (import for effect)


def get_family(name: str) -> ScenarioFamily:
    """Look up one scenario family by wire name."""
    _ensure_families_loaded()
    if name not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise KeyError(f"unknown scenario family {name!r}; known: {known}")
    return _FAMILIES[name]


def all_families() -> List[ScenarioFamily]:
    """All registered scenario families, sorted by name."""
    _ensure_families_loaded()
    return [_FAMILIES[key] for key in sorted(_FAMILIES)]


def families_for_experiment(experiment_id: str) -> List[ScenarioFamily]:
    """The families serving ``experiment_id`` over the wire (may be [])."""
    return [family for family in all_families()
            if experiment_id in family.experiments]


def resolve_scenario(name: str, p: float, n: int,
                     params: Optional[Dict[str, object]] = None
                     ) -> Tuple[Callable[[], object], object]:
    """Resolve a wire scenario spec to ``(factory, failure_model)``.

    The single entry point the service, its wire protocol and every
    experiment cell (:meth:`ExperimentConfig.runner`) use:
    ``KeyError`` for an unknown family, ``ValueError`` for bad
    parameters (:meth:`ScenarioFamily.build`).
    """
    return get_family(name).build(p, n, **dict(params or {}))


@dataclass(frozen=True)
class Experiment:
    """A registered experiment."""

    experiment_id: str
    title: str
    paper_claim: str
    runner: Callable[[ExperimentConfig], ExperimentReport]
    scenarios: Tuple[ScenarioSpec, ...] = ()


_REGISTRY: Dict[str, Experiment] = {}


def register(experiment_id: str, title: str, paper_claim: str,
             scenarios: Optional[List[ScenarioSpec]] = None):
    """Decorator registering a runner under ``experiment_id``.

    ``scenarios`` lists the experiment's representative Monte-Carlo
    scenarios for the ``describe`` table; purely combinatorial
    experiments (E10) register none.
    """

    def decorate(runner: Callable[[ExperimentConfig], ExperimentReport]):
        if experiment_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        _REGISTRY[experiment_id] = Experiment(
            experiment_id=experiment_id,
            title=title,
            paper_claim=paper_claim,
            runner=runner,
            scenarios=tuple(scenarios or ()),
        )
        return runner

    return decorate


def _ensure_runners_loaded() -> None:
    """Import every runner module (registration is an import side effect)."""
    from repro.experiments import runners  # noqa: F401  (import for effect)


def get_experiment(experiment_id: str) -> Experiment:
    """Look up one experiment by id (e.g. ``"E05"``)."""
    _ensure_runners_loaded()
    if experiment_id not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
    return _REGISTRY[experiment_id]


def all_experiments() -> List[Experiment]:
    """All registered experiments, sorted by id."""
    _ensure_runners_loaded()
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


def run_experiment(experiment_id: str,
                   config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """Run one experiment."""
    experiment = get_experiment(experiment_id)
    return experiment.runner(config or ExperimentConfig())


def run_all(config: Optional[ExperimentConfig] = None) -> List[ExperimentReport]:
    """Run every registered experiment in id order."""
    config = config or ExperimentConfig()
    return [experiment.runner(config) for experiment in all_experiments()]
