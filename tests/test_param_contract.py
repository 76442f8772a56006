"""Wire contract: every spec gets an answer or a structured error.

The strategy below is built only from the family declarations
(:attr:`ScenarioFamily.p`, :attr:`ScenarioFamily.sizes` and
:attr:`ScenarioFamily.params`), never from a hand-written family list,
so a new family or param is covered the moment it is registered.  It
draws each declared field inside its range or at an included edge; in
half of the draws one field instead lies just outside an edge or is of
the wrong kind, or an unknown param is added.

Every draw must fingerprint, or fail with a ``bad-parameters`` or
``bad-request`` :class:`QueryError`, within two seconds; a draw the
declarations refuse must fail.  A draw they allow may still fail on a
rule that ties two fields together (``effective_rate <= p``, the
Kučera probe budget, ...).

A small draw that resolves (``n <= 4`` and every drawn int param at
most 4) must also build its algorithm, and with ``p <= 0.45`` answer
one trial.  Trials run at no other spec: the work of a legal spec
grows without a bound the declarations know (one trial of
``windowed-malicious`` at ``p = 0.45, n = 64`` asks numpy for 11 GiB,
and at ``n = 4`` it takes 6 s at ``p = 0.49``).  Bounding that is a
cost model's job.
"""

import asyncio
import math
import time

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.experiments.registry import (Param, all_families, get_family,
                                        resolve_scenario)
from repro.serve import Query, QueryError, SimulationService

#: Error codes a malformed spec may earn; anything else is a defect.
CLIENT_CODES = ("bad-parameters", "bad-request")

#: The field a draw corrupts when it adds a param no family declares.
UNKNOWN = "no_such_param"


def _values(param: Param):
    """``(legal, illegal)`` strategies for one declared field: inside
    the range and at an included edge, or just outside an edge and of
    the wrong kind."""
    wrong = [True, False, "x", [1], {"a": 1}, math.nan]
    if param.kind != "number":
        wrong.append(2.0)
    legal = [st.just(None)] if param.nullable else []
    if not param.nullable:
        wrong.append(None)
    if param.kind == "choice":
        legal.append(st.sampled_from(param.choices))
        edges = []
    elif param.kind == "int":
        low, high = param.low, param.high
        legal.append(st.integers(low, high))
        edges = [(value, low <= value <= high
                  or (value == 0 and param.zero_default))
                 for value in (low, high, low - 1, high + 1, 0)]
    else:
        low, high = float(param.low), float(param.high)
        if low < high:
            legal.append(st.floats(low, high, exclude_min=True,
                                   exclude_max=True))
        edges = [(low, not param.open[0]), (high, not param.open[1]),
                 (math.nextafter(low, -math.inf), False),
                 (math.nextafter(high, math.inf), False)]
    legal += [st.just(value) for value, ok in edges if ok]
    return (st.one_of(legal), st.sampled_from(
        [value for value, ok in edges if not ok] + wrong))


@st.composite
def specs(draw):
    """``(family, p, n, params, allowed)``: a spec of one family that
    its declarations allow, or one with a single field corrupted.

    ``p`` draws no bools: the service canonicalises ``p`` as
    ``float(p)`` (the wire refuses a bool ``p`` before that).
    """
    family = draw(st.sampled_from(all_families()))
    sizes = family.sizes
    shape = draw(st.sampled_from(sorted(sizes, key=str)))
    fields = {"p": family.p,
              "n": Param("int", low=sizes[shape][0], high=sizes[shape][2]),
              **family.params}
    corrupt = draw(st.one_of(st.none(),
                             st.sampled_from([*fields, UNKNOWN])))
    values = {}
    for name, param in fields.items():
        legal, illegal = _values(param)
        if name == corrupt:
            values[name] = draw(illegal.filter(
                lambda value: name != "p" or not isinstance(value, bool)))
        elif param.shapes:
            values[name] = shape  # n was drawn for this shape
        elif name in ("p", "n") or draw(st.booleans()):
            values[name] = draw(legal)
    if corrupt == UNKNOWN:
        values[UNKNOWN] = 1
    return (family, values.pop("p"), values.pop("n"), values,
            corrupt is None)


def _small(n, params) -> bool:
    """A draw cheap enough to build, and to run one trial of below
    ``p = 0.45``."""
    ints = [value for value in (n, *params.values())
            if isinstance(value, int) and not isinstance(value, bool)]
    return isinstance(n, int) and all(value <= 4 for value in ints)


@settings(max_examples=500, deadline=None)
@given(specs())
@example((get_family("hello"), 0.2, 4, {"message": True}, False))
@example((get_family("simple-omission"), 0.2, 2, {"phase_length": False},
          False))
# Near the radio majority threshold (max degree 4): the phase-length
# search runs to m = 5587, which took 3-4 s when every probe
# recomputed its convolutions from scratch.
@example((get_family("radio-repeat"), 0.23828125, 6,
          {"rule": "majority", "graph": "random-tree", "graph_seed": 0},
          True))
def test_every_spec_answers_or_refuses_cleanly(spec):
    family, p, n, params, allowed = spec
    query = Query(family.name, p, n, 1, seed=0, params=params)
    service = SimulationService()
    start = time.perf_counter()
    try:
        service.fingerprint(query)
    except QueryError as error:
        assert error.code in CLIENT_CODES, (spec, error.code, error.message)
        event("refused")
        return
    finally:
        assert time.perf_counter() - start < 2.0, spec
    assert allowed, f"{spec} is outside its declarations but was answered"
    event("resolved")
    if not _small(n, params):
        return
    resolve_scenario(family.name, p, n, params)[0]()  # builds
    if p <= 0.45:
        try:
            answer = asyncio.run(service.submit(query))
        except QueryError:
            return
        assert answer.trials == 1
        event("ran one trial")
