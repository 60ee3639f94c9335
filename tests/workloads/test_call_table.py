"""The array arm's call table and the draws that index it.

Fast-forward runs of static depth-1 open and MMPP traffic take their calls
from a table with one entry per (client, module, call-mix function), each
client's rows drawn in bulk with its schedule (``_call_rows``).  Each row
must be the one the general arm's draw picks, one call at a time: the
module pick, then ``weighted_choice`` over the call mix.
"""

from __future__ import annotations

import numpy as np

from repro.sim.rng import DeterministicRNG
from repro.workloads import traffic
from repro.workloads.traffic import TrafficEngine, TrafficSpec

#: thresholds 1.0, 2.0 and 4.0 over a total of 4.0
MIX = (("test_incr", 1.0), ("getpid", 1.0), ("test_null", 2.0))


def _engine(**kwargs) -> TrafficEngine:
    spec = dict(clients=2, modules=3, calls_per_client=8, call_mix=MIX)
    spec.update(kwargs)
    return TrafficEngine(TrafficSpec(**spec)).build()


def test_one_entry_per_client_module_and_function():
    engine = _engine()
    table = engine._call_table()
    assert len(table) == 2 * 3 * 3
    rows = iter(table)
    for position, state in enumerate(engine.clients):
        assert engine._table_row(position) == position * 9
        for registered in engine.modules:
            session = state.sessions[registered.m_id]
            for name, _ in MIX:
                entry_state, delay_append, entry_session, entry_name, \
                    key = next(rows)
                assert entry_state is state
                assert delay_append == state.queue_delays_us.append
                assert (entry_session, entry_name) == (session, name)
                module, function = session.find_function(name)
                assert key == (session.session_id,
                               (module.m_id, function.func_id),
                               engine.config)


class _ScriptedRNG:
    """Scripted rounds of (module pick, call-mix double), served as the
    general arm draws them (``integer``, then ``weighted_choice``) or in
    bulk."""

    weighted_choice = DeterministicRNG.weighted_choice

    def __init__(self, rounds):
        self.rounds = list(rounds)

    def integer(self, low, high):
        return self.rounds[0][0]

    def next_double(self):
        return self.rounds.pop(0)[1]

    def integer_double_rounds(self, span, n):
        picks, doubles = zip(*self.rounds[:n])
        del self.rounds[:n]
        return np.array(picks, np.int64), np.array(doubles)


def test_bulk_rows_place_each_double_as_the_walk_does():
    """A double that lands exactly on a threshold belongs to the next
    function; one just below the total to the last."""
    engine = _engine()
    names = [name for name, _ in MIX]
    doubles = [0.0, 0.2499999999999999, 0.25, 0.5, 0.75,
               1.0 - 2.0 ** -53]
    rounds = [(pick, double) for pick in range(3) for double in doubles]
    state = engine.clients[1]
    row = engine._table_row(1)
    state.rng = _ScriptedRNG(rounds)
    bulk = engine._call_rows(state, row, len(rounds)).tolist()
    state.rng = _ScriptedRNG(rounds)
    one_by_one = []
    for _ in rounds:
        pick = state.rng.integer(0, 2)
        name, _ = engine._draw_call(state, 0)
        one_by_one.append(row + 3 * pick + names.index(name))
    assert bulk == one_by_one
    offsets = [0, 0, 1, 2, 2, 2]
    assert bulk == [row + 3 * pick + offset
                    for pick in range(3) for offset in offsets]


def _accounting(engine, result):
    return (engine.machine.clock.cycles, engine.machine.clock.events,
            result.latencies_us.tobytes(), result.queue_delays_us.tobytes(),
            result.cache_stats,
            engine.extension.dispatcher.trace_cache.snapshot(),
            [state.rng._rng.bit_generator.state for state in engine.clients])


def test_any_chunk_size_settles_as_the_default(monkeypatch):
    """The array arm settles an open schedule a chunk at a time; windows
    and deferred charges carry across chunks.  Cold keys fail their
    probes for each key's first calls, so fallbacks land mid-chunk."""
    specs = (
        TrafficSpec(clients=3, modules=2, calls_per_client=60,
                    arrival="open", mean_interval_us=6.0),
        TrafficSpec(clients=3, modules=2, calls_per_client=40,
                    arrival="mmpp", mean_interval_us=30.0,
                    burst_interval_us=1.5))
    for spec in specs:
        whole = TrafficEngine(spec)
        expected = _accounting(whole, whole.run())
        stats = whole.extension.dispatcher.trace_cache.snapshot()
        assert 0 < stats["fast_forward_calls"] < (spec.clients
                                                  * spec.calls_per_client)
        for size in (1, 7, 64):
            monkeypatch.setattr(traffic, "_ARRIVAL_CHUNK", size)
            chunked = TrafficEngine(spec)
            assert _accounting(chunked, chunked.run()) == expected, size
        monkeypatch.undo()


def test_mix_total_adds_the_weights_in_order():
    """The default mix adds to 0.9999999999999999 in order (1.0
    compensated); the bulk draws scale by that total and compare against
    thresholds built by the same additions, so the last threshold is the
    total."""
    engine = TrafficEngine(TrafficSpec(clients=1, calls_per_client=1))
    assert engine._mix_total == 0.9999999999999999
    assert engine._mix_thresholds[-1] == engine._mix_total
