"""COST fixtures for the run entry point: charge_each names its op too."""

from sim import costs


def push_run(machine, words, op):
    machine.charge_each("trap", words)      # -> COST001 (string literal)
    machine.charge_each(costs.TRAP, words)  # ok: names a table constant
    machine.charge_each(op, words)          # -> COST002 (unresolvable forward)
