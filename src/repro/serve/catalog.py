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

Family params (every one optional):

==========================  ===========================================
family                      params
==========================  ===========================================
``simple-omission``,        ``phase_length`` (default: the exact
``simple-omission-radio``,  smallest safe ``m``)
``simple-malicious-mp``,
``malicious-radio-star``
``hetero-omission``         ``p_low`` (ramp start, 0), ``phase_length``
``equalizing-mp``           ``message`` (1), ``effective_rate``
``equalizing-star``         ``phase_length`` (15), ``message`` (1),
                            ``effective_rate``
``windowed-malicious``,     ``cols`` (default: the side ``n``);
``grid-flooding``           ``grid-flooding`` also takes ``rounds``
``flooding``                ``graph`` (``line`` or ``binary-tree``),
                            ``rounds``
``kucera-flip``             ``graph`` (``line`` or ``binary-tree``)
``layered-omission``        ``budget`` (2m), ``source_steps`` (1), or
                            ``repeat`` (each bit node and the source
                            ``repeat`` times)
``radio-repeat``            ``rule`` (``any``), ``graph`` (``line``,
                            ``spider``, ``star``, ``layered`` or
                            ``random-tree``), ``graph_seed``
``hello``                   ``adversary`` (``silent``), ``message`` (0)
``round-robin``             ``cycles``
``prime-schedule``          ``rounds`` (2500)
==========================  ===========================================

Where a size-like param has a computed default — ``phase_length``
of the safe-``m`` families above, ``rounds`` of the two flooding
families, ``cols``, ``budget``, ``repeat`` and ``cycles`` — ``0``
selects that default too; elsewhere ``0`` is refused.  ``message`` is
the broadcast bit, ``0`` or ``1``.
``effective_rate`` applies the proofs' slowing reduction
(:class:`~repro.failures.adversaries.SlowingAdversary`) to the
equalizing adversary; only ``None`` (the default) leaves it off.
``graph`` picks the shape, ``line`` by default, with ``n`` its size;
``kucera-flip`` and ``radio-repeat`` take at most 65 nodes in any
shape.  ``graph_seed`` is the int seed ``random-tree`` requires, and
no other shape takes it.

Families validate their parameters and raise ``ValueError`` on
out-of-range input; the wire protocol maps that to a client error.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro._validation import check_bit, check_probability
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
from repro.core.kucera import KuceraBroadcast
from repro.core.kucera.planner import edge_boost
from repro.core.parameters import (
    mp_malicious_phase_length,
    omission_phase_length,
    radio_malicious_phase_length,
)
from repro.core.windowed import WindowedMalicious
from repro.engine import MESSAGE_PASSING, RADIO
from repro.experiments.registry import FAMILY_EXACT, register_family
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

__all__ = ["MAX_NODES"]

#: Ceiling on the node count a single wire query may request — a
#: serving-layer guard, not a simulation limit (batch memory scales
#: with ``trials x rounds x n``).
MAX_NODES = 4096

FactoryAndFailures = Tuple[Callable[[], Any], Any]


def _check_n(value: Any, minimum: int, name: str,
             maximum: int = MAX_NODES) -> int:
    """``value`` if an int in ``[minimum, maximum]``; errors say ``name``
    (a param's own name, or ``n (meaning)`` for the size ``n``)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if not minimum <= value <= maximum:
        raise ValueError(
            f"{name} must lie in [{minimum}, {maximum}], got {value}")
    return value


def _phase_length(phase_length: Any, default: Callable[[], int]) -> int:
    """An explicit ``phase_length`` param, or the family's safe default."""
    if phase_length:
        return _check_n(phase_length, 1, "phase_length")
    return default()


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

#: The shapes each family takes, ``kind -> largest n``.  Kucera and
#: radio-repeat stop at 65 nodes (a 64-edge line) in every shape.
_TREE = {"binary-tree": 11}
_FLOODING_SHAPES = {"line": MAX_NODES, "binary-tree": 11}
_KUCERA_SHAPES = {"line": 64, "binary-tree": 5}
_RADIO_SHAPES = {"line": 64, "spider": 8, "star": 64, "layered": 5,
                 "random-tree": 65}


def _graph(kind: Any, n: Any, shapes: Dict[str, int],
           graph_seed: Any = None) -> Topology:
    """The ``graph``-param topology of size ``n``, rooted at node 0;
    ``shapes`` maps the kinds a family takes to their largest ``n``."""
    if kind not in shapes:
        raise ValueError(
            f"graph must be one of {sorted(shapes)}, got {kind!r}")
    if kind == "random-tree":
        if (not isinstance(graph_seed, int) or isinstance(graph_seed, bool)
                or not 0 <= graph_seed < 2 ** 64):
            raise ValueError("graph_seed must be an int in [0, 2**64), "
                             f"got {graph_seed!r}")
    elif graph_seed is not None:
        raise ValueError("graph_seed applies to graph='random-tree' only")
    minimum, meaning, build = _GRAPHS[kind]
    return build(_check_n(n, minimum, f"n ({meaning})", shapes[kind]),
                 graph_seed)


def _grid(n: Any, cols: Any) -> Topology:
    """The ``n x cols`` grid (``cols`` defaults to the side ``n``)."""
    rows = _check_n(n, 2, "n (grid side)")
    cols = _check_n(cols, 2, "cols") if cols else rows
    if rows * cols > MAX_NODES:
        raise ValueError(f"grid must satisfy rows * cols <= {MAX_NODES}")
    return grid(rows, cols)


def _slowed(adversary: Any, p: float, effective_rate: Optional[float]):
    """``adversary`` behind the proofs' slowing reduction to
    ``effective_rate`` (Theorems 2.3/2.4), or as is when that is None."""
    if effective_rate is None:
        return adversary
    return SlowingAdversary(adversary, p, effective_rate)


# -- omission families (Theorem 2.1) -----------------------------------


@register_family(
    "simple-omission",
    "Simple-Omission on a depth-d binary tree under omission failures "
    "(Theorem 2.1); fastsim-served",
    size_meaning="binary-tree depth (order 2^(d+1)-1)",
    experiments=("E01", "E15"),
)
def _build_simple_omission(p: float, n: int, *,
                           phase_length: int = 0) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=True)
    topology = _graph("binary-tree", n, _TREE)
    m = _phase_length(phase_length,
                      lambda: omission_phase_length(topology.order, p))
    factory = partial(SimpleOmission, topology, 0, 1, MESSAGE_PASSING, m)
    return factory, OmissionFailures(p)


@register_family(
    "simple-omission-radio",
    "Simple-Omission on a depth-d binary tree in the radio model "
    "(Theorem 2.1, radio variant); fastsim-served",
    size_meaning="binary-tree depth (order 2^(d+1)-1)",
    experiments=("E02",),
)
def _build_simple_omission_radio(p: float, n: int, *,
                                 phase_length: int = 0) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=True)
    topology = _graph("binary-tree", n, _TREE)
    m = _phase_length(phase_length,
                      lambda: omission_phase_length(topology.order, p))
    factory = partial(SimpleOmission, topology, 0, 1, RADIO, m)
    return factory, OmissionFailures(p)


@register_family(
    "hetero-omission",
    "Simple-Omission on a binary tree with per-node failure rates "
    "ramping linearly up to p (E15 ablation); batchsim Monte-Carlo",
    size_meaning="binary-tree depth (order 2^(d+1)-1)",
    experiments=("E15",),
)
def _build_hetero_omission(p: float, n: int, *, p_low: float = 0.0,
                           phase_length: int = 0) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    p_low = check_probability(p_low, "p_low", allow_zero=True)
    if p_low > p:
        raise ValueError(f"p_low must not exceed p, got {p_low} > {p}")
    topology = _graph("binary-tree", n, _TREE)
    m = _phase_length(phase_length,
                      lambda: omission_phase_length(topology.order, p))
    rates = np.round(np.linspace(p_low, p, topology.order), 4)
    factory = partial(SimpleOmission, topology, 0, 1, MESSAGE_PASSING, m)
    return factory, OmissionFailures(p_v=rates)


# -- malicious families (Theorems 2.2 / 2.4) ---------------------------


@register_family(
    "simple-malicious-mp",
    "Simple-Malicious on a depth-d binary tree vs the complement "
    "adversary, message passing (Theorem 2.2); fastsim-served",
    size_meaning="binary-tree depth (order 2^(d+1)-1)",
    experiments=("E03",),
)
def _build_simple_malicious_mp(p: float, n: int, *,
                               phase_length: int = 0) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    topology = _graph("binary-tree", n, _TREE)
    m = _phase_length(phase_length,
                      lambda: mp_malicious_phase_length(topology.order, p))
    factory = partial(SimpleMalicious, topology, 0, 1, MESSAGE_PASSING, m)
    return factory, MaliciousFailures(p, ComplementAdversary())


@register_family(
    "equalizing-mp",
    "Two-node Simple-Malicious vs the history-dependent equalizing "
    "adversary (Theorem 2.3 impossibility); scalar-engine Monte-Carlo",
    size_meaning="phase length m (the graph is always the 2-node link)",
    experiments=("E04",),
)
def _build_equalizing_mp(p: float, n: int, *, message: int = 1,
                         effective_rate: Optional[float] = None
                         ) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    m = _check_n(n, 1, "n (phase length)", maximum=256)
    factory = partial(SimpleMalicious, two_node(), 0,
                      check_bit(message, "message"), MESSAGE_PASSING, m)
    adversary = _slowed(EqualizingMpAdversary(source=0), p, effective_rate)
    return factory, MaliciousFailures(p, adversary)


@register_family(
    "malicious-radio-star",
    "Simple-Malicious on a leaf-sourced star vs the radio worst-case "
    "adversary (Theorem 2.4 threshold); batchsim Monte-Carlo",
    size_meaning="star degree delta (order delta+1)",
    experiments=("E05",),
)
def _build_malicious_radio_star(p: float, n: int, *,
                                phase_length: int = 0) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    delta = _check_n(n, 2, "n (star degree)", maximum=MAX_NODES - 1)
    topology = star(delta, source_is_center=False)
    m = _phase_length(phase_length, lambda: radio_malicious_phase_length(
        topology.order, p, delta))
    factory = partial(SimpleMalicious, topology, 0, 1, RADIO, m)
    return factory, MaliciousFailures(p, RadioWorstCaseAdversary())


@register_family(
    "equalizing-star",
    "Leaf-sourced star vs the adaptive equalizing-star adversary "
    "(Theorem 2.4 impossibility side); fastsim-served",
    size_meaning="star degree delta (order delta+1)",
    experiments=("E06",),
)
def _build_equalizing_star(p: float, n: int, *, phase_length: int = 15,
                           message: int = 1,
                           effective_rate: Optional[float] = None
                           ) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    delta = _check_n(n, 2, "n (star degree)", maximum=MAX_NODES - 1)
    m = _check_n(phase_length, 1, "phase_length")
    topology = star(delta, source_is_center=False)
    factory = partial(SimpleMalicious, topology, 0,
                      check_bit(message, "message"), RADIO, m)
    adversary = _slowed(EqualizingStarAdversary(source=0, center=1), p,
                        effective_rate)
    return factory, MaliciousFailures(p, adversary)


@register_family(
    "windowed-malicious",
    "Windowed Simple-Malicious on a k x cols grid vs the complement "
    "adversary (Section 2.2); batchsim Monte-Carlo",
    size_meaning="grid side k (order k*cols, cols defaults to k)",
    experiments=("E14",),
)
def _build_windowed_malicious(p: float, n: int, *,
                              cols: int = 0) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    factory = partial(WindowedMalicious, _grid(n, cols), 0, 1, p=p)
    return factory, MaliciousFailures(p, ComplementAdversary())


# -- flooding / composition families (Section 3) -----------------------


def _flooding(topology: Topology, p: float,
              rounds: int) -> FactoryAndFailures:
    kwargs = {"rounds": _check_n(rounds, 1, "rounds")} if rounds else {}
    factory = partial(FastFlooding, topology, 0, 1, p=p, **kwargs)
    return factory, OmissionFailures(p)


@register_family(
    "flooding",
    "Fast flooding on a line (or another graph shape) under omission "
    "failures (Theorem 3.1); fastsim-served",
    size_meaning="line length (the graph param's size otherwise)",
    experiments=("E07", "E08"),
)
def _build_flooding(p: float, n: int, *, graph: str = "line",
                    rounds: int = 0) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=True)
    return _flooding(_graph(graph, n, _FLOODING_SHAPES), p, rounds)


@register_family(
    "grid-flooding",
    "Fast flooding on a k x cols grid under omission failures "
    "(Theorem 3.1 on general graphs); batchsim Monte-Carlo",
    size_meaning="grid side k (order k*cols, cols defaults to k)",
    experiments=("E07",),
)
def _build_grid_flooding(p: float, n: int, *, cols: int = 0,
                         rounds: int = 0) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=True)
    return _flooding(_grid(n, cols), p, rounds)


@register_family(
    "kucera-flip",
    "Kucera composition plan on a line (or another graph shape) vs the "
    "random bit-flip adversary (Theorem 3.2); batchsim Monte-Carlo",
    size_meaning="line length (the graph param's size otherwise)",
    experiments=("E09",),
)
def _build_kucera_flip(p: float, n: int, *,
                       graph: str = "line") -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    edge_boost(p)  # refuse p >= 1/2, or too close to it, at resolution
    topology = _graph(graph, n, _KUCERA_SHAPES)
    factory = partial(KuceraBroadcast, topology, 0, 1, p=p)
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
    size_meaning="bit-node count m of G(m) (exhaustive up to m=5)",
    experiments=("E10",),
    kind=FAMILY_EXACT,
)
def _build_layered_opt(p: float, n: int) -> FactoryAndFailures:
    if p != 0.0:
        raise ValueError(
            f"layered-opt is purely combinatorial; p must be 0, got {p}"
        )
    m = _check_n(n, 2, "n (bit-node count m)", maximum=5)
    return partial(_layered_opt_verdict, m), None


def _uniform_layer2_schedule(m: int, budget: int):
    """Spread a layer-2 step budget evenly over bit-node singletons."""
    return [{(index % m) + 1} for index in range(budget)]


@register_family(
    "layered-omission",
    "Layered-graph schedule broadcast G(m) under omission failures "
    "(Theorem 3.3 lower-bound graph); fastsim-served",
    size_meaning="bit-node count m of G(m) (order 2^m + m + 1)",
    experiments=("E11",),
)
def _build_layered_omission(p: float, n: int, *,
                            budget: int = 0,
                            source_steps: int = 1,
                            repeat: int = 0) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=True)
    m = _check_n(n, 2, "n (bit-node count m)", maximum=10)
    graph = layered_graph(m)
    if repeat:
        if budget or source_steps != 1:
            raise ValueError("repeat fixes the whole schedule; give no "
                             "budget or source_steps with it")
        source_steps = _check_n(repeat, 1, "repeat")
        steps = [{position} for position in range(1, m + 1)
                 for _ in range(repeat)]
    else:
        steps = _uniform_layer2_schedule(
            m, _check_n(budget, 1, "budget") if budget else 2 * m)
    factory = partial(LayeredScheduleBroadcast, graph, steps,
                      _check_n(source_steps, 1, "source_steps"))
    return factory, OmissionFailures(p)


def _radio_schedule(kind: str, n: int, topology: Topology):
    """The closed-form optimal schedule of a shape, greedy otherwise."""
    if kind == "line":
        return line_schedule(topology)
    if kind == "spider":
        return spider_schedule(topology, n, n)
    if kind == "star":
        return star_schedule(topology, 0, 0)
    if kind == "layered":
        return layered_schedule(layered_graph(n))
    return greedy_schedule(topology, 0)


@register_family(
    "radio-repeat",
    "Schedule-repetition broadcast on a line (or another graph shape; "
    "adopt-any under omission failures, adopt-majority vs the "
    "complement adversary; Section 3.3); fastsim-served",
    size_meaning="line length (the graph param's size otherwise)",
    experiments=("E12",),
)
def _build_radio_repeat(p: float, n: int, *, rule: str = "any",
                        graph: str = "line",
                        graph_seed: Optional[int] = None
                        ) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    if rule not in (ADOPT_ANY, ADOPT_MAJORITY):
        raise ValueError(
            f"rule must be {ADOPT_ANY!r} or {ADOPT_MAJORITY!r}, got {rule!r}"
        )
    topology = _graph(graph, n, _RADIO_SHAPES, graph_seed)
    schedule = _radio_schedule(graph, n, topology)
    algorithm = RadioRepeat(schedule, 1, rule=rule, p=p)
    factory = partial(RadioRepeat, schedule, 1, rule,
                      algorithm.phase_length)
    if rule == ADOPT_ANY:
        return factory, OmissionFailures(p)
    return factory, MaliciousFailures(p, ComplementAdversary())


# -- timing-channel and label-schedule families ------------------------


@register_family(
    "hello",
    "Two-node timing-channel broadcast vs a limited malicious "
    "adversary (Section 4 feasibility); batchsim Monte-Carlo",
    size_meaning="half-round count m (the protocol runs 2m rounds)",
    experiments=("E13",),
)
def _build_hello(p: float, n: int, *, adversary: str = "silent",
                 message: int = 0) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    m = _check_n(n, 1, "n (half-round count m)", maximum=4096)
    adversaries = {"silent": SilentAdversary, "garbage": GarbageAdversary}
    if adversary not in adversaries:
        raise ValueError(
            f"adversary must be one of {sorted(adversaries)}, got "
            f"{adversary!r}"
        )
    factory = partial(HelloProtocolAlgorithm, two_node(),
                      check_bit(message, "message"), m)
    return factory, MaliciousFailures(p, adversaries[adversary](),
                                      Restriction.LIMITED)


@register_family(
    "round-robin",
    "Round-robin label-schedule broadcast on a binary tree under "
    "omission failures (E14 variant); batchsim Monte-Carlo",
    size_meaning="binary-tree depth (order 2^(d+1)-1)",
    experiments=("E14",),
)
def _build_round_robin(p: float, n: int, *,
                       cycles: int = 0) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    topology = _graph("binary-tree", n, {"binary-tree": 8})
    if cycles:
        cycles = _check_n(cycles, 1, "cycles")
    else:
        cycles = flooding_rounds(topology.order, n, p)
    factory = partial(RoundRobinBroadcast, topology, 0, 1, cycles=cycles)
    return factory, OmissionFailures(p)


@register_family(
    "prime-schedule",
    "Prime label-schedule broadcast on a line under omission failures "
    "(E14 variant); batchsim Monte-Carlo",
    size_meaning="line length",
    experiments=("E14",),
)
def _build_prime_schedule(p: float, n: int, *,
                          rounds: int = 2500) -> FactoryAndFailures:
    p = check_probability(p, "p", allow_zero=False, allow_one=False)
    length = _check_n(n, 2, "n (line length)", maximum=64)
    rounds = _check_n(rounds, 1, "rounds", maximum=100_000)
    factory = partial(PrimeScheduleBroadcast, line(length), 0, 1,
                      rounds=rounds)
    return factory, OmissionFailures(p)
