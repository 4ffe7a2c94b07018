"""The shared broadcast receive path against the per-item loop.

:meth:`~repro.broadcast.authenticated.AuthenticatedBroadcast.receive`
skips work the per-item loop (``per_item_receive``) did: it parses each
bundle object once, skips echoes already counted from a sender id, and
``note_echo`` returns early on a repeat.  These tests pin that the skip
is exact -- same payloads, deliveries, accepts (in order) and decisions
on Figure 5 and on both broadcast runners, and the same primitive state
on raw item streams -- and that the skipped work stays skipped.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from per_item_receive import (
    PerItemBroadcast,
    PerItemBroadcastHost,
    PerItemReliableProcess,
    per_item_dls_factory,
)
from repro.adversaries.generic import RandomByzantineAdversary
from repro.analysis.complexity import dls_all_decided_bound
from repro.broadcast import authenticated, runner
from repro.broadcast.authenticated import AuthenticatedBroadcast
from repro.core.canonical import canonical_state_key
from repro.core.identity import balanced_assignment
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY
from repro.psync.dls_homonyms import dls_factory
from repro.sim.kernel import ExecutionKernel, LockStep
from repro.sim.runner import make_processes

PATTERNS = {
    "alternating": lambda k: k % 2,
    "zeros": lambda k: 0,
    "ones": lambda k: 1,
    "thirds": lambda k: int(k % 3 == 0),
}

ADVERSARIES = {
    "silent": lambda: None,
    "random": lambda: RandomByzantineAdversary(seed=3),
}


def fig5_kernel(n, factory, pattern="alternating", adversary="silent"):
    """Figure 5 at n, t=1, minimal ell, lock-step, last slot Byzantine."""
    t = 1
    ell = (n + 3 * t) // 2 + 1
    params = SystemParams(n=n, ell=ell, t=t,
                          synchrony=Synchrony.PARTIALLY_SYNCHRONOUS)
    assignment = balanced_assignment(n, ell)
    byzantine = tuple(range(n - t, n))
    proposals = {k: PATTERNS[pattern](k) for k in range(n - t)}
    engine = ExecutionKernel(
        params=params,
        assignment=assignment,
        processes=make_processes(factory(params, BINARY), assignment,
                                 proposals, byzantine),
        byzantine=byzantine,
        adversary=ADVERSARIES[adversary](),
        timing=LockStep(),
    )
    engine.run(max_rounds=dls_all_decided_bound(params, 0) + 8)
    return engine


def accept_log(ab):
    """The primitive's accepts in order, type-exact."""
    return repr(list(ab._accepted.items()))


def echo_state(ab):
    return sorted(map(repr, ab._echoing))


class TestFigure5:
    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    @pytest.mark.parametrize("n", [8, 16])
    def test_same_execution_as_per_item_loop(self, n, pattern, adversary):
        shared = fig5_kernel(n, dls_factory, pattern, adversary)
        per_item = fig5_kernel(n, per_item_dls_factory, pattern, adversary)
        assert repr(shared.trace.snapshot()) == repr(per_item.trace.snapshot())
        assert shared.deliveries == per_item.deliveries
        pairs = [
            (a, b) for a, b in zip(shared.processes, per_item.processes)
            if a is not None
        ]
        assert pairs
        for a, b in pairs:
            assert accept_log(a.ab) == accept_log(b.ab)
            assert echo_state(a.ab) == echo_state(b.ab)
            assert (a.decision, a.decision_round) == \
                (b.decision, b.decision_round)
        assert all(a.decided for a, _ in pairs)


class TestBroadcastRunners:
    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
    def test_authenticated_broadcast(self, monkeypatch, adversary):
        def run():
            return runner.run_authenticated_broadcast(
                9, 7, 2, byzantine=(7, 8), rounds=8,
                adversary=ADVERSARIES[adversary](),
            )

        shared = run()
        monkeypatch.setattr(runner, "AuthenticatedBroadcastHost",
                            PerItemBroadcastHost)
        per_item = run()
        assert isinstance(per_item.correct_processes[0], PerItemBroadcastHost)
        assert repr(shared.trace.snapshot()) == repr(per_item.trace.snapshot())
        assert shared.deliveries == per_item.deliveries
        for a, b in zip(shared.correct_processes, per_item.correct_processes):
            assert repr(a.accepts) == repr(b.accepts)
            assert a.accepts

    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
    def test_reliable_broadcast(self, monkeypatch, adversary):
        def run():
            return runner.run_reliable_broadcast(
                8, 6, 1, sender_ident=2, values_by_slot={1: "a", 7: "b"},
                byzantine=(7,), adversary=ADVERSARIES[adversary](),
            )

        shared = run()
        monkeypatch.setattr(runner, "ReliableBroadcastProcess",
                            PerItemReliableProcess)
        per_item = run()
        assert isinstance(per_item.correct_processes[0],
                          PerItemReliableProcess)
        assert repr(shared.trace.snapshot()) == repr(per_item.trace.snapshot())
        assert shared.deliveries == per_item.deliveries
        for a, b in zip(shared.correct_processes, per_item.correct_processes):
            assert accept_log(a.ab) == accept_log(b.ab)
            assert (a.delivered, a.decision_round) == \
                (b.delivered, b.decision_round)
            assert a.delivered == "a"


# ----------------------------------------------------------------------
# Raw item streams
# ----------------------------------------------------------------------
ELL, T = 7, 2
#: ``1``, ``True`` and ``1.0`` compare and hash alike, so only the
#: receiver's choice of representative tells them apart.
VALUES = st.sampled_from([True, 1, 1.0, 0, False, "m", ("v", 1)])
SUPERROUNDS = st.integers(0, 2) | st.just(True)
IDENTS = st.integers(1, 3) | st.just(True)

ECHOES = st.tuples(st.just("echo"), VALUES, SUPERROUNDS, IDENTS)
INITS = st.tuples(st.just("init"), VALUES, SUPERROUNDS)
MALFORMED = st.sampled_from([
    (), ("init",), ("init", "m", "0"), ("echo", "m", 0), ("echo", "m", 0, 1.0),
    ("echo", "m", 0, 1, 2), ("bogus", 1, 2), "echo", None, 7,
])


def bundles():
    """A bundle ``("ab", inits, echoes)`` -- or junk in either slot."""
    items = st.lists(INITS | MALFORMED, max_size=3).map(tuple)
    echoes = st.lists(ECHOES | MALFORMED, max_size=6).map(tuple)
    return st.tuples(
        st.just("ab"),
        items | st.sampled_from(["junk", 3]),
        echoes,
    )


def retyped(value):
    """``value`` with ``True`` and ``1`` swapped: equal, and equally
    hashed, but typed differently."""
    if value is True:
        return 1
    if type(value) is int and value == 1:
        return True
    if isinstance(value, tuple):
        return tuple(retyped(v) for v in value)
    return value


#: One round: ``(sender id, bundle index)`` deliveries over a pool of
#: three bundles and their :func:`retyped` twins, so one object reaches
#: several receivers and sender ids, and equal bundles of different
#: types meet in one round.
ROUNDS = st.lists(
    st.lists(st.tuples(st.integers(1, ELL), st.integers(0, 5)), max_size=8),
    min_size=1, max_size=6,
)


def feed_shared(abs_, pool, rounds):
    drained = [[] for _ in abs_]
    for round_no, deliveries in enumerate(rounds):
        for k, ab in enumerate(abs_):
            for sender, index in deliveries:
                ab.receive(sender, pool[round_no][index], round_no)
            drained[k].extend(ab.drain_accepts())
    return drained


def feed_per_item(abs_, pool, rounds):
    drained = [[] for _ in abs_]
    for round_no, deliveries in enumerate(rounds):
        for k, ab in enumerate(abs_):
            for sender, index in deliveries:
                bundle = pool[round_no][index]
                if isinstance(bundle[1], tuple) and isinstance(bundle[2],
                                                               tuple):
                    ab.receive_items(sender, bundle[1] + bundle[2], round_no)
            drained[k].extend(ab.drain_accepts())
    return drained


class TestItemStreams:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(bundles(), min_size=3, max_size=3), ROUNDS,
           st.booleans())
    def test_same_state_and_drain_order(self, pool, rounds, alternate):
        # Per round, the pool is either reused (echoes re-sent by the
        # same objects) or rebuilt as equal copies (fresh objects); with
        # ``alternate`` sender id 1 switches between two bundles.
        pool = pool + [retyped(b) for b in pool]
        per_round = []
        for round_no, deliveries in enumerate(rounds):
            objects = pool if round_no % 2 else [
                tuple(copy.copy(list(b))) for b in pool
            ]
            if alternate:
                deliveries.append((1, round_no % 2))
            per_round.append(objects)
        shared = [AuthenticatedBroadcast(ELL, T, ident=k) for k in (1, 2)]
        per_item = [PerItemBroadcast(ELL, T, ident=k) for k in (1, 2)]
        a = feed_shared(shared, per_round, rounds)
        b = feed_per_item(per_item, per_round, rounds)
        assert repr(a) == repr(b)
        for x, y in zip(shared, per_item):
            assert echo_state(x) == echo_state(y)
            assert accept_log(x) == accept_log(y)
            assert repr(x._echo_ids) == repr(y._echo_ids)
            assert repr(x.outgoing(len(rounds))) == \
                repr(y.outgoing(len(rounds)))

    def test_type_is_kept_apart_by_identity(self):
        # Equal, equally hashed bundles of different types: a value-keyed
        # memo would hand the second receiver the first one's parse.
        one = ("ab", (), (("echo", 1, 0, 3),))
        true = ("ab", (), (("echo", True, 0, 3),))
        assert one == true and hash(one) == hash(true)
        first, second = (AuthenticatedBroadcast(4, 1, ident=k) for k in (1, 2))
        for sender in (1, 2, 4):
            first.receive(sender, one, 1)
        for sender in (1, 2, 4):
            second.receive(sender, true, 1)
        assert repr(first.drain_accepts()[0].message) == "1"
        assert repr(second.drain_accepts()[0].message) == "True"


class TestReceiveCaches:
    def test_caches_are_not_state(self):
        ab = AuthenticatedBroadcast(4, 1, ident=1)
        fresh = copy.deepcopy(ab)
        bundle = ("ab", (), (("echo", "m", 0, 3),))
        for sender in (2, 3):
            ab.receive(sender, bundle, 1)
            fresh.receive(sender, bundle, 1)
        ab.outgoing(2)
        assert ab._absorbed and ab._sent_echoes
        twin = copy.deepcopy(ab)
        assert not twin._absorbed and twin._sent_echoes == ()
        assert canonical_state_key(twin) == canonical_state_key(ab)
        assert canonical_state_key(fresh) == canonical_state_key(ab)
        # The copy rebuilds what it dropped and behaves the same.
        twin.receive(4, bundle, 2)
        ab.receive(4, bundle, 2)
        assert twin.outgoing(3) == ab.outgoing(3)
        assert accept_log(twin) == accept_log(ab)

    def test_outgoing_reuses_echo_tuple_until_echoing_grows(self):
        ab = AuthenticatedBroadcast(4, 1, ident=1)
        ab.note_init(2, "m", 0, 0)
        _, first = ab.outgoing(1)
        assert ab.outgoing(2)[1] is first
        ab.note_init(3, "m", 1, 2)
        _, grown = ab.outgoing(3)
        assert grown is not first and len(grown) == 2


# ----------------------------------------------------------------------
# Work counts
# ----------------------------------------------------------------------
class TestWorkCounts:
    """Figure 5 at n=16, lock-step, one silent Byzantine slot."""

    def test_each_echo_counted_once_and_each_bundle_parsed_once(
        self, monkeypatch
    ):
        calls = []
        note_echo = AuthenticatedBroadcast.note_echo

        def counting_note_echo(self, sender_id, message, superround,
                               echoed_ident, round_no):
            calls.append((id(self), sender_id, message, superround,
                          echoed_ident))
            return note_echo(self, sender_id, message, superround,
                             echoed_ident, round_no)

        parses = []
        parse = authenticated.parse_broadcast_items

        def counting_parse(items):
            parses.append(len(items))
            return parse(items)

        monkeypatch.setattr(AuthenticatedBroadcast, "note_echo",
                            counting_note_echo)
        monkeypatch.setattr(authenticated, "parse_broadcast_items",
                            counting_parse)
        engine = fig5_kernel(16, dls_factory)
        correct = sum(p is not None for p in engine.processes)
        rounds = engine.round_no

        # Every call is a new (receiver, sender id, key) triple; the
        # per-item loop makes 88,500 calls for these 7,500 triples.
        assert len(calls) == len(set(calls)) == 7_500
        assert len(parses) <= correct * rounds
        assert all(p.decided for p in engine.processes if p is not None)

    def test_per_item_loop_repeats_echoes(self, monkeypatch):
        calls = []
        note_echo = PerItemBroadcast.note_echo

        def counting_note_echo(self, *args):
            calls.append(args)
            return note_echo(self, *args)

        monkeypatch.setattr(PerItemBroadcast, "note_echo", counting_note_echo)
        fig5_kernel(16, per_item_dls_factory)
        assert len(calls) == 88_500
