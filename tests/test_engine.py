"""Tests for the round engine: delivery, authentication, restriction."""

import pytest

from repro.core.errors import AdversaryViolation, ConfigurationError
from repro.core.identity import IdentityAssignment, balanced_assignment
from repro.core.messages import Message
from repro.core.params import SystemParams
from repro.sim.adversary import Adversary
from repro.sim.kernel import ExecutionKernel, timing_model_for
from repro.sim.partial import ExplicitDrops, PartitionSchedule
from repro.sim.process import EchoProcess
from repro.sim.topology import DirectedTopology


def build(n=3, ell=3, t=0, byz=(), adversary=None, numerate=False,
          restricted=False, drop_schedule=None, topology=None):
    params = SystemParams(n=n, ell=ell, t=t, numerate=numerate,
                          restricted=restricted)
    assignment = balanced_assignment(n, ell)
    processes = [
        None if k in byz else EchoProcess(assignment.identifier_of(k))
        for k in range(n)
    ]
    engine = ExecutionKernel(
        params=params, assignment=assignment, processes=processes,
        byzantine=byz, adversary=adversary,
        timing=timing_model_for(drop_schedule, topology),
    )
    return engine, processes


class FixedAdversary(Adversary):
    """Sends a fixed payload batch from every Byzantine slot to everyone."""

    def __init__(self, batch):
        self.batch = tuple(batch)

    def emissions(self, view):
        return {
            b: {q: self.batch for q in range(view.params.n)}
            for b in view.byzantine
        }


class TestDelivery:
    def test_everyone_receives_everyone_including_self(self):
        engine, procs = build(n=3)
        engine.step()
        for p in procs:
            ids = {m.sender_id for m in p.received[0]}
            assert ids == {1, 2, 3}

    def test_messages_carry_authenticated_identifiers(self):
        engine, procs = build(n=4, ell=2)
        engine.step()
        inbox = procs[0].received[0]
        assert all(m.sender_id in (1, 2) for m in inbox)

    def test_innumerate_collapses_homonym_duplicates(self):
        # Two processes share identifier 1 and send identical payloads.
        engine, procs = build(n=4, ell=2)
        engine.step()
        inbox = procs[0].received[0]
        # ids 1 and 2 each appear once despite two homonym senders each.
        assert len(inbox) == 2

    def test_numerate_preserves_homonym_duplicates(self):
        engine, procs = build(n=4, ell=2, numerate=True)
        engine.step()
        inbox = procs[0].received[0]
        assert len(inbox) == 4
        assert inbox.count_matching(lambda m: m.sender_id == 1) == 2

    def test_byzantine_slots_do_not_send_implicitly(self):
        engine, procs = build(n=3, t=1, byz=(2,))
        engine.step()
        ids = {m.sender_id for m in procs[0].received[0]}
        assert ids == {1, 2}  # identifier 3's slot is Byzantine and silent


class TestAdversaryEnforcement:
    def test_adversary_messages_are_stamped_with_slot_identifier(self):
        engine, procs = build(n=3, t=1, byz=(2,),
                              adversary=FixedAdversary(("evil",)))
        engine.step()
        evil = [m for m in procs[0].received[0] if m.payload == "evil"]
        assert evil and all(m.sender_id == 3 for m in evil)

    def test_restricted_model_caps_one_message_per_recipient(self):
        engine, _ = build(n=4, ell=4, t=1, byz=(3,), restricted=True,
                          adversary=FixedAdversary(("a", "b"))
                          )
        with pytest.raises(AdversaryViolation):
            engine.step()

    def test_unrestricted_model_allows_bursts(self):
        engine, procs = build(n=4, ell=4, t=1, byz=(3,),
                              adversary=FixedAdversary(("a", "b")),
                              numerate=True)
        engine.step()
        inbox = procs[0].received[0]
        assert inbox.count_matching(lambda m: m.sender_id == 4) == 2

    def test_emitting_for_correct_slot_is_rejected(self):
        class Forger(Adversary):
            def emissions(self, view):
                return {0: {1: ("forged",)}}  # slot 0 is correct

        engine, _ = build(n=3, t=1, byz=(2,), adversary=Forger())
        with pytest.raises(AdversaryViolation):
            engine.step()

    def test_out_of_range_recipient_is_rejected(self):
        class Sprayer(Adversary):
            def emissions(self, view):
                return {2: {99: ("x",)}}

        engine, _ = build(n=3, t=1, byz=(2,), adversary=Sprayer())
        with pytest.raises(AdversaryViolation):
            engine.step()


class TestSchedulesAndTopology:
    def test_explicit_drop_removes_single_link_message(self):
        engine, procs = build(
            n=3, drop_schedule=ExplicitDrops({(0, 1, 0)})
        )
        engine.step()
        # Process 0 misses sender index 1 (identifier 2) in round 0...
        assert {m.sender_id for m in procs[0].received[0]} == {1, 3}
        # ...but everyone else gets everything.
        assert {m.sender_id for m in procs[1].received[0]} == {1, 2, 3}
        engine.step()  # past gst: all delivered
        assert {m.sender_id for m in procs[0].received[1]} == {1, 2, 3}

    def test_self_delivery_cannot_be_dropped(self):
        engine, procs = build(
            n=3, drop_schedule=ExplicitDrops({(0, 0, 0)})
        )
        engine.step()
        assert any(m.sender_id == 1 for m in procs[0].received[0])

    def test_partition_schedule_blocks_cross_traffic(self):
        engine, procs = build(
            n=4, ell=4,
            drop_schedule=PartitionSchedule(5, block_a=[0, 1], block_b=[2, 3]),
        )
        engine.step()
        assert {m.sender_id for m in procs[0].received[0]} == {1, 2}
        assert {m.sender_id for m in procs[3].received[0]} == {3, 4}

    def test_directed_topology_filters_links(self):
        topo = DirectedTopology({0: {0, 1}})  # process 0 hears only 0, 1
        engine, procs = build(n=3, topology=topo)
        engine.step()
        assert {m.sender_id for m in procs[0].received[0]} == {1, 2}
        assert {m.sender_id for m in procs[1].received[0]} == {1, 2, 3}


class TestEngineValidation:
    def test_identifier_mismatch_is_rejected(self):
        params = SystemParams(n=2, ell=2, t=0)
        assignment = balanced_assignment(2, 2)
        processes = [EchoProcess(2), EchoProcess(2)]  # slot 0 should be id 1
        with pytest.raises(ConfigurationError):
            ExecutionKernel(params, assignment, processes)

    def test_missing_correct_process_is_rejected(self):
        params = SystemParams(n=2, ell=2, t=0)
        assignment = balanced_assignment(2, 2)
        with pytest.raises(ConfigurationError):
            ExecutionKernel(params, assignment, [EchoProcess(1), None])

    def test_assignment_params_size_mismatch(self):
        params = SystemParams(n=3, ell=2, t=0)
        with pytest.raises(ConfigurationError):
            ExecutionKernel(params, balanced_assignment(2, 2),
                            [EchoProcess(1), EchoProcess(2)])


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            engine, _ = build(n=4, ell=3, t=1, byz=(3,),
                              adversary=FixedAdversary(("x",)))
            for _ in range(5):
                engine.step()
            return [
                (r.round_no, sorted(r.payloads.items(), key=repr))
                for r in engine.trace
            ]

        assert run_once() == run_once()
