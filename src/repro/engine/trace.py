"""Execution traces.

A trace records, for every round, what each node intended to transmit,
which transmitters failed, what was actually put on the medium after
the failure model acted, and what each node received.  Traces are what
adaptive adversaries consult ("the model allows adaptive adversarial
behavior, namely, one depending on the execution's history") and what
tests and experiment post-mortems inspect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, List, Optional

__all__ = ["RoundRecord", "Trace"]


@dataclass(frozen=True)
class RoundRecord:
    """Everything that happened in one synchronous round.

    Attributes
    ----------
    round_index:
        0-based round number.
    intents:
        ``node -> intent`` as returned by the protocols (silent nodes,
        i.e. intent ``None``, are omitted).
    faulty:
        The set of nodes whose transmitter failed this round.
    actual:
        ``node -> transmission`` actually placed on the medium after the
        failure model acted (again, silent nodes omitted).
    deliveries:
        ``node -> received`` as handed to each protocol (model-specific
        shape; radio silence/collision deliveries of ``None`` omitted).
    """

    round_index: int
    intents: Dict[int, Any]
    faulty: FrozenSet[int]
    actual: Dict[int, Any]
    deliveries: Dict[int, Any]

    def transmitted(self, node: int) -> Any:
        """What ``node`` actually transmitted (``None`` if silent)."""
        return self.actual.get(node)

    def intended(self, node: int) -> Any:
        """What ``node`` intended to transmit (``None`` if silent)."""
        return self.intents.get(node)


@dataclass
class Trace:
    """A sequence of :class:`RoundRecord`, appended as the execution runs."""

    records: List[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        """Append the record of the round that just completed."""
        expected = len(self.records)
        if record.round_index != expected:
            raise ValueError(
                f"trace expected round {expected}, got {record.round_index}"
            )
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[RoundRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> RoundRecord:
        return self.records[index]

    # -- history queries used by adversaries and tests -----------------
    def transmissions_of(self, node: int) -> List[Any]:
        """All non-silent transmissions ``node`` actually made, in order."""
        return [
            record.actual[node] for record in self.records if node in record.actual
        ]

    def deliveries_to(self, node: int) -> List[Any]:
        """All deliveries handed to ``node``, in round order."""
        return [
            record.deliveries[node]
            for record in self.records
            if node in record.deliveries
        ]

    def fault_count(self, node: Optional[int] = None) -> int:
        """Number of faulty rounds, for one node or summed over all."""
        if node is None:
            return sum(len(record.faulty) for record in self.records)
        return sum(1 for record in self.records if node in record.faulty)
