"""Vectorised multi-trial execution engine (the batchsim tier).

Executes ``B`` Monte-Carlo trials of one algorithm/topology/failure
scenario simultaneously on node-major ``(n, B)`` ``int8`` code arrays —
the middle tier of the :mod:`repro.montecarlo` dispatch order
``fastsim sampler → batchsim → scalar engine``: closed-form samplers
stay fastest where a law is proven, batchsim makes every *other*
history-oblivious scenario fast by default, and the scalar engine
remains the semantic ground truth the batched indicators are pinned
against bit for bit.
"""

from repro.batchsim.codec import SILENCE, PayloadCodec
from repro.batchsim.engine import (
    BatchExecution,
    batch_execution,
    supports_batchsim,
)
from repro.batchsim.programs import (
    ADOPT_FIRST,
    ADOPT_MAJORITY,
    BatchProgram,
    HelloProgram,
    LiftEntry,
    PlanLift,
    ScheduleLift,
    WindowedProgram,
    lift_flooding,
    lift_layered_schedule,
    lift_radio_repeat,
    lift_slot_schedule,
    lift_tree_phase,
    registered_lifts,
)

__all__ = [
    "SILENCE",
    "PayloadCodec",
    "BatchExecution",
    "batch_execution",
    "supports_batchsim",
    "BatchProgram",
    "ScheduleLift",
    "HelloProgram",
    "WindowedProgram",
    "PlanLift",
    "LiftEntry",
    "registered_lifts",
    "ADOPT_FIRST",
    "ADOPT_MAJORITY",
    "lift_tree_phase",
    "lift_radio_repeat",
    "lift_flooding",
    "lift_layered_schedule",
    "lift_slot_schedule",
]
