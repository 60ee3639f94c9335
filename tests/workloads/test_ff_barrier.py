"""The fast-forward barrier: one probe per window, one re-check per barrier.

The traffic engine probes a key when its window opens; later calls with
the key join the window unprobed.  ``_ff_flush`` re-checks every open
window before it commits, and a check that fails there raises: only a bug
can change a guard input between two barriers, and settling the window
anyway would be wrong accounting.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.secmodule.dispatch import SmodDispatcher
from repro.workloads.traffic import TrafficEngine, TrafficSpec


def test_probes_once_per_window_and_once_per_dispatched_call(monkeypatch):
    probes = []
    probe = SmodDispatcher.fast_forward_probe

    def counting_probe(self, session, key):
        probes.append(key)
        return probe(self, session, key)

    monkeypatch.setattr(SmodDispatcher, "fast_forward_probe",
                        counting_probe)
    engine = TrafficEngine(TrafficSpec(clients=2, modules=2,
                                       calls_per_client=500, arrival="open"))
    result = engine.run()
    stats = engine.extension.dispatcher.trace_cache.snapshot()
    assert result.total_calls == 1000
    # a successful probe opens a window; a failed one precedes a dispatch
    dispatched = result.total_calls - stats["fast_forward_calls"]
    assert len(probes) == stats["fast_forwards"] + dispatched
    assert len(probes) < result.total_calls


def test_guard_change_between_barriers_raises():
    engine = TrafficEngine(TrafficSpec(clients=1, modules=1,
                                       calls_per_client=8,
                                       arrival="open")).build()
    state = engine.clients[0]
    session = state.sessions[engine.modules[0].m_id]
    # decision store, trace record, trace confirm: the key is hot
    for i in range(3):
        engine._dispatch_queue(state, session, [("test_incr", (i,))])
    assert not engine._ff_windows
    for i in range(3, 5):
        assert engine._ff_offer(state, session, [("test_incr", (i,))], 1)
    (window,) = engine._ff_windows.values()
    assert window[1] == 2
    session.reset_quota()                 # bumps policy_epoch mid-window
    with pytest.raises(SimulationError, match="fast-forward window"):
        engine._ff_flush()
