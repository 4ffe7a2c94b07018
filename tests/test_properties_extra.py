"""Additional cross-cutting hypothesis properties.

These widen the randomised surface beyond the per-module property
tests: delay-network equivalence over random deltas and seeds, reliable
broadcast totality under random weather, and verdict-checker coherence
on arbitrary decision patterns.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.reliable import ReliableBroadcastProcess
from repro.core.identity import balanced_assignment
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import check_agreement_properties
from repro.core.problem import BINARY
from repro.psync.dls_homonyms import dls_factory, dls_horizon
from repro.sim.delay import AlwaysBoundedUnknownDelays, run_delay_execution
from repro.sim.kernel import BasicPsync, ExecutionKernel
from repro.sim.partial import RandomDrops
from repro.sim.runner import make_processes


@given(delta=st.integers(1, 6), seed=st.integers(0, 30))
@settings(max_examples=12, deadline=None)
def test_punctual_delay_networks_always_match_round_engine(delta, seed):
    """Property: for ANY always-bounded delta and delay pattern, the
    delay simulator's trace equals the round engine's -- delays within a
    round window are unobservable in the basic model."""
    # n=6, ell=5 (n=5, ell=4 is the paper's unsolvable curiosity).
    params = SystemParams(
        n=6, ell=5, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
    )
    assignment = balanced_assignment(6, 5)
    byz = (5,)
    proposals = {k: k % 2 for k in range(5)}
    rounds = dls_horizon(params, 0)

    procs_a = make_processes(dls_factory(params, BINARY), assignment,
                             proposals, byz)
    engine = ExecutionKernel(params=params, assignment=assignment,
                             processes=procs_a, byzantine=byz)
    engine.run(max_rounds=rounds)

    procs_b = make_processes(dls_factory(params, BINARY), assignment,
                             proposals, byz)
    result = run_delay_execution(
        params, assignment, procs_b,
        AlwaysBoundedUnknownDelays(true_delta=delta, seed=seed),
        byzantine=byz,
        max_rounds=rounds,
    )

    assert [sorted(r.payloads.items(), key=repr) for r in engine.trace] == \
           [sorted(r.payloads.items(), key=repr) for r in result.trace]
    assert [p.decision for p in procs_a if p] == \
           [p.decision for p in procs_b if p]


@given(gst=st.integers(0, 8), seed=st.integers(0, 25))
@settings(max_examples=15, deadline=None)
def test_reliable_broadcast_totality_under_random_weather(gst, seed):
    """Property: a post-stabilisation broadcast delivers at every correct
    process under any pre-GST drop pattern (validity + totality)."""
    n, ell, t = 5, 4, 1
    params = SystemParams(n=n, ell=ell, t=t)
    assignment = balanced_assignment(n, ell)
    start_superround = gst // 2 + 1
    processes = []
    for k in range(n):
        ident = assignment.identifier_of(k)
        processes.append(
            ReliableBroadcastProcess(
                ell, t, ident, sender_ident=2,
                proposal="payload" if ident == 2 else None,
                start_superround=start_superround,
            )
        )
    engine = ExecutionKernel(
        params=params, assignment=assignment, processes=processes,
        timing=BasicPsync(RandomDrops(gst=gst, p=0.5, seed=seed)),
    )
    for _ in range(2 * start_superround + 10):
        engine.step()
        if all(p.decided for p in processes):
            break
    for p in processes:
        assert p.delivered == "payload"


@given(
    n=st.integers(1, 8),
    decided_mask=st.integers(0, 255),
    values_mask=st.integers(0, 255),
    inputs_mask=st.integers(0, 255),
)
@settings(max_examples=120)
def test_verdict_checker_coherence(n, decided_mask, values_mask, inputs_mask):
    """Property: the verdict checker's flags agree with first principles
    for every possible decision pattern of a small system."""
    correct = list(range(n))
    proposals = {k: (inputs_mask >> k) & 1 for k in correct}
    decisions = {
        k: (values_mask >> k) & 1
        for k in correct if (decided_mask >> k) & 1
    }
    verdict = check_agreement_properties(
        proposals=proposals,
        decisions=decisions,
        decision_rounds={k: 1 for k in decisions},
        correct=correct,
        rounds_executed=5,
    )
    everyone_decided = len(decisions) == n
    all_agree = len(set(decisions.values())) <= 1
    unanimous_input = len(set(proposals.values())) == 1
    validity_breach = (
        unanimous_input
        and any(v != next(iter(proposals.values()))
                for v in decisions.values())
    )
    assert verdict.violated("termination") == (not everyone_decided)
    assert verdict.violated("agreement") == (not all_agree)
    assert verdict.violated("validity") == validity_breach
    assert verdict.ok == (
        everyone_decided and all_agree and not validity_breach
    )
