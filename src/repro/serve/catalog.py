"""Builtin wire-scenario families for the simulation service.

Each family maps the wire triple ``(scenario name, p, n)`` — plus
optional family-specific ``params`` — to a picklable
``(algorithm_factory, failure_model)`` pair via
:func:`repro.experiments.registry.register_family`.  Builders are pure
functions of the wire spec, which is what
:func:`repro.montecarlo.scenario_fingerprint` hashes, so every
family's results are exactly memoisable; picklability lets the same
factory shard across worker processes.

The catalog is also the **only** place an experiment builds a
Monte-Carlo cell: every runner resolves its cells through
:meth:`repro.experiments.registry.ExperimentConfig.runner`, so each
experiment cell *is* a wire spec and a service query with the same
``(family, p, n, params)`` computes the same indicators.  Each family's
``experiments`` tag lists the experiments that resolve it (pinned by
``tests/test_serve_catalog.py``); the catalog covers every registered
experiment E01–E15, spanning all three service regimes:

* fastsim-dispatched families (``simple-omission``, ``flooding``,
  ``equalizing-star``, ``layered-omission``, ...) — answered
  instantly, no coalescing needed;
* batchsim/engine Monte-Carlo families (``windowed-malicious``,
  ``kucera-flip``, ``equalizing-mp``, ...) — the expensive queries the
  coalescer collapses and the LRU memoises;
* the one **exact** family (``layered-opt``, E10) — no Monte-Carlo at
  all: the build returns a zero-argument ``compute`` whose
  verdict (the Lemma 3.3 exhaustive search) the service runs once and
  serves memo-only.

Each family declares ``p``, ``n`` and each param once, as data
(:class:`~repro.experiments.registry.Param`, a param as its builder's
keyword default), which validates and which the ``catalog`` wire op
lists.  Builders check only rules that tie two fields together; every
``ValueError`` names a field and answers ``bad-parameters``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional, Tuple

from repro.core import (
    ADOPT_ANY,
    ADOPT_MAJORITY,
    FastFlooding,
    PrimeScheduleBroadcast,
    RadioRepeat,
    RoundRobinBroadcast,
    SimpleMalicious,
    SimpleOmission,
)
from repro.core.flooding import flooding_rounds
from repro.core.hello import HelloProtocolAlgorithm
from repro.core.kucera import KuceraBroadcast, guarantee
from repro.core.kucera.algorithm import default_plan
from repro.core.parameters import (
    mp_malicious_phase_length,
    omission_phase_length,
    radio_malicious_phase_length,
)
from repro.core.windowed import WindowedMalicious
from repro.engine import MESSAGE_PASSING, RADIO
from repro.experiments.registry import FAMILY_EXACT, Param, register_family
from repro.failures import (
    ComplementAdversary,
    GarbageAdversary,
    MaliciousFailures,
    OmissionFailures,
    RandomFlipAdversary,
    Restriction,
    SilentAdversary,
)
from repro.failures.adversaries import (
    RadioWorstCaseAdversary,
    SlowingAdversary,
)
from repro.failures.equalizing import EqualizingMpAdversary, EqualizingStarAdversary
from repro.graphs import binary_tree, grid, line, star, two_node
from repro.graphs.bfs import bfs_tree
from repro.graphs.builders import random_tree, spider
from repro.graphs.layered import layered_graph
from repro.graphs.topology import Topology
from repro.radio.closed_form import (
    layered_schedule,
    line_schedule,
    spider_schedule,
    star_schedule,
)
from repro.radio.exact import layered_min_layer2_steps
from repro.radio.greedy import greedy_schedule
from repro.radio.layered_broadcast import LayeredScheduleBroadcast

import numpy as np

__all__ = ["MAX_NODES", "KUCERA_PROBE_BUDGET"]

#: Ceiling on the node count a single wire query may request — a
#: serving-layer guard, not a simulation limit (batch memory scales
#: with ``trials x rounds x n``).
MAX_NODES = 4096

#: Ceiling on a ``kucera-flip`` plan's rounds x nodes, the cost of its
#: one probe trial: seconds at 2**20, gigabytes at ten times that.
KUCERA_PROBE_BUDGET = 1 << 20

FactoryAndFailures = Tuple[Callable[[], Any], Any]

#: ``p`` in ``[0, 1)``, ``(0, 1)``, or ``(0, 1/2)`` where votes converge.
_P = Param("number", low=0, high=1, open=(False, True))
_P_POSITIVE = Param("number", low=0, high=1, open=(True, True))
_P_BELOW_HALF = Param("number", low=0, high=0.5, open=(True, True))


def _size_param(default: int = 0, high: int = MAX_NODES) -> Param:
    """An int param in ``[1, high]``; a default ``0`` is computed."""
    return Param("int", default, 1, high, zero_default=default == 0)


#: Shapes of the ``graph`` param: ``kind -> (smallest n, what n
#: means, build(n, graph_seed))``.
_GRAPHS = {
    "line": (2, "line length", lambda n, seed: line(n)),
    "binary-tree": (1, "binary-tree depth", lambda n, seed: binary_tree(n)),
    "spider": (1, "spider legs, each n edges long",
               lambda n, seed: spider(n, n)),
    "star": (2, "star degree", lambda n, seed: star(n)),
    "layered": (2, "bit-node count m of G(m)",
                lambda n, seed: layered_graph(n).topology),
    "random-tree": (2, "random-tree order (max degree 4)",
                    lambda n, seed: random_tree(n, seed, max_degree=4)),
}

#: ``n`` of the families on a fixed binary tree.
_DEPTH = (1, "binary-tree depth", 11)


def _graph_param(largest: dict) -> Param:
    """The ``graph`` param (``line`` by default) over ``kind -> max n``."""
    return Param("choice", "line", choices=tuple(largest), shapes={
        kind: (_GRAPHS[kind][0], _GRAPHS[kind][1], high)
        for kind, high in largest.items()})


def _grid(n: int, cols: int) -> Topology:
    """The ``n x cols`` grid (``cols`` defaults to the side ``n``)."""
    cols = cols or n
    if n * cols > MAX_NODES:
        raise ValueError(f"n (grid side) and cols must satisfy n * cols <= "
                         f"{MAX_NODES}, got {n} * {cols}")
    return grid(n, cols)


def _slowed(adversary: Any, p: float, effective_rate: Optional[float]):
    """``adversary`` behind the proofs' slowing reduction to
    ``effective_rate`` (Theorems 2.3/2.4), or as is when that is None."""
    if effective_rate is None:
        return adversary
    if effective_rate > p:
        raise ValueError(f"effective_rate must not exceed p, got "
                         f"{effective_rate} > {p}")
    return SlowingAdversary(adversary, p, effective_rate)


#: Params several families share: the broadcast bit, the proofs'
#: slowing reduction (``None`` is off) and a grid's column count.
_MESSAGE = Param("choice", 1, choices=(0, 1))
_EFFECTIVE_RATE = Param("number", None, 0, 1, open=(False, True),
                        nullable=True)
_COLS = Param("int", 0, 2, MAX_NODES, zero_default=True)


# -- omission families (Theorem 2.1) -----------------------------------


def _simple_omission(model: str, p: float, n: int, *,
                     phase_length: int = _size_param()
                     ) -> FactoryAndFailures:
    topology = binary_tree(n)
    m = phase_length or omission_phase_length(topology.order, p)
    factory = partial(SimpleOmission, topology, 0, 1, model, m)
    return factory, OmissionFailures(p)


register_family(
    "simple-omission",
    "Simple-Omission on a depth-d binary tree under omission failures "
    "(Theorem 2.1); fastsim-served",
    p=_P, n=_DEPTH,
    size_meaning="binary-tree depth (order 2^(d+1)-1)",
    experiments=("E01", "E15"),
)(partial(_simple_omission, MESSAGE_PASSING))

register_family(
    "simple-omission-radio",
    "Simple-Omission on a depth-d binary tree in the radio model "
    "(Theorem 2.1, radio variant); fastsim-served",
    p=_P, n=_DEPTH,
    size_meaning="binary-tree depth (order 2^(d+1)-1)",
    experiments=("E02",),
)(partial(_simple_omission, RADIO))


@register_family(
    "hetero-omission",
    "Simple-Omission on a binary tree with per-node failure rates "
    "ramping linearly up to p (E15 ablation); batchsim Monte-Carlo",
    p=_P_POSITIVE, n=_DEPTH,
    size_meaning="binary-tree depth (order 2^(d+1)-1)",
    experiments=("E15",),
)
def _build_hetero_omission(p: float, n: int, *,
                           p_low: float = Param("number", 0.0, 0, 1,
                                                open=(False, True)),
                           phase_length: int = _size_param()
                           ) -> FactoryAndFailures:
    if p_low > p:
        raise ValueError(f"p_low must not exceed p, got {p_low} > {p}")
    topology = binary_tree(n)
    m = phase_length or omission_phase_length(topology.order, p)
    rates = np.round(np.linspace(p_low, p, topology.order), 4)
    factory = partial(SimpleOmission, topology, 0, 1, MESSAGE_PASSING, m)
    return factory, OmissionFailures(p_v=rates)


# -- malicious families (Theorems 2.2 / 2.4) ---------------------------


@register_family(
    "simple-malicious-mp",
    "Simple-Malicious on a depth-d binary tree vs the complement "
    "adversary, message passing (Theorem 2.2); fastsim-served",
    p=_P_POSITIVE, n=_DEPTH,
    size_meaning="binary-tree depth (order 2^(d+1)-1)",
    experiments=("E03",),
)
def _build_simple_malicious_mp(p: float, n: int, *,
                               phase_length: int = _size_param()
                               ) -> FactoryAndFailures:
    topology = binary_tree(n)
    m = phase_length or mp_malicious_phase_length(topology.order, p)
    factory = partial(SimpleMalicious, topology, 0, 1, MESSAGE_PASSING, m)
    return factory, MaliciousFailures(p, ComplementAdversary())


@register_family(
    "equalizing-mp",
    "Two-node Simple-Malicious vs the history-dependent equalizing "
    "adversary (Theorem 2.3 impossibility); scalar-engine Monte-Carlo",
    p=_P_POSITIVE, n=(1, "phase length", 256),
    size_meaning="phase length m (the graph is always the 2-node link)",
    experiments=("E04",),
)
def _build_equalizing_mp(p: float, n: int, *,
                         message: int = _MESSAGE,
                         effective_rate: Optional[float] = _EFFECTIVE_RATE
                         ) -> FactoryAndFailures:
    factory = partial(SimpleMalicious, two_node(), 0, message,
                      MESSAGE_PASSING, n)
    adversary = _slowed(EqualizingMpAdversary(source=0), p, effective_rate)
    return factory, MaliciousFailures(p, adversary)


@register_family(
    "malicious-radio-star",
    "Simple-Malicious on a leaf-sourced star vs the radio worst-case "
    "adversary (Theorem 2.4 threshold); batchsim Monte-Carlo",
    p=_P_POSITIVE, n=(2, "star degree", MAX_NODES - 1),
    size_meaning="star degree delta (order delta+1)",
    experiments=("E05",),
)
def _build_malicious_radio_star(p: float, n: int, *,
                                phase_length: int = _size_param()
                                ) -> FactoryAndFailures:
    topology = star(n, source_is_center=False)
    m = phase_length or radio_malicious_phase_length(topology.order, p, n)
    factory = partial(SimpleMalicious, topology, 0, 1, RADIO, m)
    return factory, MaliciousFailures(p, RadioWorstCaseAdversary())


@register_family(
    "equalizing-star",
    "Leaf-sourced star vs the adaptive equalizing-star adversary "
    "(Theorem 2.4 impossibility side); fastsim-served",
    p=_P_POSITIVE, n=(2, "star degree", MAX_NODES - 1),
    size_meaning="star degree delta (order delta+1)",
    experiments=("E06",),
)
def _build_equalizing_star(p: float, n: int, *,
                           phase_length: int = _size_param(15),
                           message: int = _MESSAGE,
                           effective_rate: Optional[float] = _EFFECTIVE_RATE
                           ) -> FactoryAndFailures:
    topology = star(n, source_is_center=False)
    factory = partial(SimpleMalicious, topology, 0, message, RADIO,
                      phase_length)
    adversary = _slowed(EqualizingStarAdversary(source=0, center=1), p,
                        effective_rate)
    return factory, MaliciousFailures(p, adversary)


@register_family(
    "windowed-malicious",
    "Windowed Simple-Malicious on a k x cols grid vs the complement "
    "adversary (Section 2.2); batchsim Monte-Carlo",
    p=_P_BELOW_HALF, n=(2, "grid side", MAX_NODES),
    size_meaning="grid side k (order k*cols, cols defaults to k)",
    experiments=("E14",),
)
def _build_windowed_malicious(p: float, n: int, *,
                              cols: int = _COLS) -> FactoryAndFailures:
    topology = _grid(n, cols)
    window = mp_malicious_phase_length(topology.order, p)
    factory = partial(WindowedMalicious, topology, 0, 1, window_length=window)
    return factory, MaliciousFailures(p, ComplementAdversary())


# -- flooding / composition families (Section 3) -----------------------


def _flooding(topology: Topology, p: float,
              rounds: int) -> FactoryAndFailures:
    kwargs = {"rounds": rounds} if rounds else {}
    factory = partial(FastFlooding, topology, 0, 1, p=p, **kwargs)
    return factory, OmissionFailures(p)


@register_family(
    "flooding",
    "Fast flooding on a line (or another graph shape) under omission "
    "failures (Theorem 3.1); fastsim-served",
    p=_P,
    size_meaning="line length (the graph param's size otherwise)",
    experiments=("E07", "E08"),
)
def _build_flooding(p: float, n: int, *,
                    graph: str = _graph_param({"line": MAX_NODES,
                                               "binary-tree": 11}),
                    rounds: int = _size_param()) -> FactoryAndFailures:
    return _flooding(_GRAPHS[graph][2](n, None), p, rounds)


@register_family(
    "grid-flooding",
    "Fast flooding on a k x cols grid under omission failures "
    "(Theorem 3.1 on general graphs); batchsim Monte-Carlo",
    p=_P, n=(2, "grid side", MAX_NODES),
    size_meaning="grid side k (order k*cols, cols defaults to k)",
    experiments=("E07",),
)
def _build_grid_flooding(p: float, n: int, *, cols: int = _COLS,
                         rounds: int = _size_param()) -> FactoryAndFailures:
    return _flooding(_grid(n, cols), p, rounds)


@register_family(
    "kucera-flip",
    "Kucera composition plan on a line (or another graph shape) vs the "
    "random bit-flip adversary (Theorem 3.2); batchsim Monte-Carlo",
    p=_P_BELOW_HALF,
    size_meaning="line length (the graph param's size otherwise)",
    experiments=("E09",),
)
def _build_kucera_flip(p: float, n: int, *,
                       graph: str = _graph_param({"line": 64,
                                                  "binary-tree": 5})
                       ) -> FactoryAndFailures:
    topology = _GRAPHS[graph][2](n, None)
    # Refuses p too close to 1/2, then plans too large to probe.
    plan = default_plan(topology.order, bfs_tree(topology, 0).height, p)
    cost = guarantee(plan, p).time * topology.order
    if cost > KUCERA_PROBE_BUDGET:
        raise ValueError(
            f"p and n ask for a plan of {cost} rounds x nodes, above the "
            f"kucera-flip probe budget {KUCERA_PROBE_BUDGET} (2**20)")
    factory = partial(KuceraBroadcast, topology, 0, 1, p=p, plan=plan)
    return factory, MaliciousFailures(p, RandomFlipAdversary(),
                                      Restriction.FLIP)


# -- radio lower-bound families (Section 3.3) --------------------------


def _layered_opt_verdict(m: int) -> bool:
    """The Lemma 3.3 claim for ``G(m)``, checked exhaustively.

    The exhaustive layer-2 search must need exactly ``m`` steps, and
    the constructive schedule must achieve the matching ``m + 1``
    total.
    """
    graph = layered_graph(m)
    constructive = layered_schedule(graph).length == m + 1
    exhaustive = layered_min_layer2_steps(graph) == m
    return constructive and exhaustive


@register_family(
    "layered-opt",
    "Exact optimal broadcast time of the lower-bound graph G(m) "
    "(Lemma 3.3, exhaustive search); combinatorial, served memo-only "
    "with p=0, trials=1, seed=0",
    p=Param("number", low=0, high=0), n=(2, "bit-node count m", 5),
    size_meaning="bit-node count m of G(m) (exhaustive up to m=5)",
    experiments=("E10",),
    kind=FAMILY_EXACT,
)
def _build_layered_opt(p: float, n: int) -> FactoryAndFailures:
    return partial(_layered_opt_verdict, n), None


@register_family(
    "layered-omission",
    "Layered-graph schedule broadcast G(m) under omission failures "
    "(Theorem 3.3 lower-bound graph); fastsim-served",
    p=_P, n=(2, "bit-node count m", 10),
    size_meaning="bit-node count m of G(m) (order 2^m + m + 1)",
    experiments=("E11",),
)
def _build_layered_omission(p: float, n: int, *,
                            budget: int = _size_param(),
                            source_steps: int = _size_param(1),
                            repeat: int = _size_param()
                            ) -> FactoryAndFailures:
    if repeat:
        if budget or source_steps != 1:
            raise ValueError("repeat fixes the whole schedule; give no "
                             "budget or source_steps with it")
        source_steps = repeat
        steps = [{position} for position in range(1, n + 1)
                 for _ in range(repeat)]
    else:  # spread the budget evenly over bit-node singletons
        steps = [{index % n + 1} for index in range(budget or 2 * n)]
    factory = partial(LayeredScheduleBroadcast, layered_graph(n), steps,
                      source_steps)
    return factory, OmissionFailures(p)


#: The closed-form optimal radio schedule of a shape, ``(n, topology)
#: -> schedule``; other shapes take the greedy one.
_SCHEDULES = {
    "line": lambda n, topology: line_schedule(topology),
    "spider": lambda n, topology: spider_schedule(topology, n, n),
    "star": lambda n, topology: star_schedule(topology, 0, 0),
    "layered": lambda n, topology: layered_schedule(layered_graph(n)),
}


@register_family(
    "radio-repeat",
    "Schedule-repetition broadcast on a line (or another graph shape; "
    "adopt-any under omission failures, adopt-majority vs the "
    "complement adversary; Section 3.3); fastsim-served",
    p=_P_POSITIVE,
    size_meaning="line length (the graph param's size otherwise)",
    experiments=("E12",),
)
def _build_radio_repeat(p: float, n: int, *,
                        rule: str = Param("choice", ADOPT_ANY, choices=(
                            ADOPT_ANY, ADOPT_MAJORITY)),
                        graph: str = _graph_param({
                            "line": 64, "spider": 8, "star": 64,
                            "layered": 5, "random-tree": 65}),
                        graph_seed: Optional[int] = Param(
                            "int", None, 0, 2 ** 64 - 1, nullable=True)
                        ) -> FactoryAndFailures:
    if (graph == "random-tree") != (graph_seed is not None):
        raise ValueError("graph_seed is required with graph='random-tree' "
                         "and refused with any other graph")
    topology = _GRAPHS[graph][2](n, graph_seed)
    schedule = _SCHEDULES.get(
        graph, lambda n, topology: greedy_schedule(topology, 0))(n, topology)
    algorithm = RadioRepeat(schedule, 1, rule=rule, p=p)
    factory = partial(RadioRepeat, schedule, 1, rule,
                      algorithm.phase_length)
    if rule == ADOPT_ANY:
        return factory, OmissionFailures(p)
    return factory, MaliciousFailures(p, ComplementAdversary())


# -- timing-channel and label-schedule families ------------------------


_HELLO_ADVERSARIES = {"silent": SilentAdversary, "garbage": GarbageAdversary}


@register_family(
    "hello",
    "Two-node timing-channel broadcast vs a limited malicious "
    "adversary (Section 4 feasibility); batchsim Monte-Carlo",
    p=_P_POSITIVE, n=(1, "half-round count m", 4096),
    size_meaning="half-round count m (the protocol runs 2m rounds)",
    experiments=("E13",),
)
def _build_hello(p: float, n: int, *,
                 adversary: str = Param("choice", "silent",
                                        choices=tuple(_HELLO_ADVERSARIES)),
                 message: int = Param("choice", 0, choices=(0, 1))
                 ) -> FactoryAndFailures:
    factory = partial(HelloProtocolAlgorithm, two_node(), message, n)
    return factory, MaliciousFailures(p, _HELLO_ADVERSARIES[adversary](),
                                      Restriction.LIMITED)


@register_family(
    "round-robin",
    "Round-robin label-schedule broadcast on a binary tree under "
    "omission failures (E14 variant); batchsim Monte-Carlo",
    p=_P_POSITIVE, n=(1, "binary-tree depth", 8),
    size_meaning="binary-tree depth (order 2^(d+1)-1)",
    experiments=("E14",),
)
def _build_round_robin(p: float, n: int, *,
                       cycles: int = _size_param()) -> FactoryAndFailures:
    topology = binary_tree(n)
    cycles = cycles or flooding_rounds(topology.order, n, p)
    if cycles > MAX_NODES:
        raise ValueError(f"p = {p} needs {cycles} cycles; cycles must lie "
                         f"in [1, {MAX_NODES}]")
    factory = partial(RoundRobinBroadcast, topology, 0, 1, cycles=cycles)
    return factory, OmissionFailures(p)


@register_family(
    "prime-schedule",
    "Prime label-schedule broadcast on a line under omission failures "
    "(E14 variant); batchsim Monte-Carlo",
    p=_P_POSITIVE, n=(2, "line length", 64),
    size_meaning="line length",
    experiments=("E14",),
)
def _build_prime_schedule(p: float, n: int, *,
                          rounds: int = _size_param(2500, 100_000)
                          ) -> FactoryAndFailures:
    factory = partial(PrimeScheduleBroadcast, line(n), 0, 1, rounds=rounds)
    return factory, OmissionFailures(p)
