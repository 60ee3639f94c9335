"""TELEM fixtures: the observation plane reaching into the cost model."""

from sim import costs             # -> TELEM001


def record(machine):
    machine.charge(costs.TRAP)    # -> TELEM002 (and the COST pass sees it too)
    machine.charge_each(costs.TRAP, 4)  # -> TELEM002: a run charge is a charge


def observe(snapshot):
    return dict(snapshot)         # ok: pure observation
