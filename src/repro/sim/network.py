"""The pre-fabric round engine, kept as a differential oracle.

The batched message fabric and its execution pipeline live in
:mod:`repro.sim.kernel`: every round-based execution runs on the
:class:`~repro.sim.kernel.ExecutionKernel` with a
:class:`~repro.sim.kernel.LockStep` or
:class:`~repro.sim.kernel.BasicPsync` timing model (one engine covers
both round-based synchrony models: the synchronous model is the
partially synchronous model with the
:class:`~repro.sim.partial.NoDrops` schedule).

:class:`ReferenceRoundEngine` keeps the pre-fabric per-receiver
delivery loop as a differential oracle: the equivalence tests pin the
kernel's traces, inboxes, verdicts and delivery counts against it, and
``benchmarks/test_bench_fabric.py`` measures the speedup over it.

Determinism: given identical processes, adversary, schedule and
topology, the engine produces byte-identical traces.  All iteration is
over sorted indices and inboxes are canonically ordered.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from repro.core.identity import IdentityAssignment
from repro.core.messages import Inbox, Message
from repro.core.params import SystemParams
from repro.sim.adversary import Adversary
from repro.sim.kernel import ExecutionKernel, timing_model_for
from repro.sim.metrics import RoundDeliveries, payload_size
from repro.sim.partial import DropSchedule, NoDrops
from repro.sim.process import Process
from repro.sim.topology import CompleteTopology, Topology

__all__ = ["ReferenceRoundEngine"]


class ReferenceRoundEngine(ExecutionKernel):
    """The pre-fabric delivery loop, kept as a differential oracle.

    Rebuilds and sorts every receiver's inbox from scratch --
    O(n^2 log n) per round -- exactly as the engine did before the
    message fabric landed.  The equivalence tests pin the kernel's
    traces, verdicts, inboxes and delivery counts against this class,
    and ``benchmarks/test_bench_fabric.py`` measures the speedup over
    it.  Not for production use.

    Takes the pre-kernel ``drop_schedule``/``topology`` arguments
    instead of a :class:`~repro.sim.kernel.TimingModel`; the kernel's
    timing model is built from them by
    :func:`~repro.sim.kernel.timing_model_for`, and the delivery loop
    reads them directly.
    """

    def __init__(
        self,
        params: SystemParams,
        assignment: IdentityAssignment,
        processes: Sequence[Process | None],
        byzantine: Sequence[int] = (),
        adversary: Adversary | None = None,
        drop_schedule: DropSchedule | None = None,
        topology: Topology | None = None,
    ) -> None:
        super().__init__(
            params=params,
            assignment=assignment,
            processes=processes,
            byzantine=byzantine,
            adversary=adversary,
            timing=timing_model_for(drop_schedule, topology),
        )
        self.drop_schedule = drop_schedule if drop_schedule is not None else NoDrops()
        self.topology = topology if topology is not None else CompleteTopology()

    def _deliver_round(
        self,
        round_no: int,
        payloads: Mapping[int, Hashable],
        emissions: Mapping[int, Mapping[int, tuple[Hashable, ...]]],
    ) -> RoundDeliveries:
        correct_deliveries = 0
        correct_bytes = 0
        byz_deliveries = 0
        byz_bytes = 0
        for q in self._correct:
            messages: list[Message] = []
            for sender, payload in payloads.items():
                if sender != q:
                    if not self.topology.delivers(sender, q):
                        continue
                    if self.drop_schedule.drops(round_no, sender, q):
                        continue
                messages.append(
                    Message(self.assignment.identifier_of(sender), payload)
                )
                correct_deliveries += 1
                correct_bytes += payload_size(payload)
            for b, per_recipient in emissions.items():
                ident = self.assignment.identifier_of(b)
                for payload in per_recipient.get(q, ()):
                    messages.append(Message(ident, payload))
                    byz_deliveries += 1
                    byz_bytes += payload_size(payload)
            self.processes[q].deliver(
                round_no, Inbox(messages, numerate=self.params.numerate)
            )
        return RoundDeliveries(
            round_no=round_no,
            correct_broadcasts=len(payloads),
            correct_deliveries=correct_deliveries,
            byzantine_deliveries=byz_deliveries,
            correct_payload_bytes=correct_bytes,
            byzantine_payload_bytes=byz_bytes,
        )
