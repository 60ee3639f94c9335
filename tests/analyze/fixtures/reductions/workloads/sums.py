"""DET004 fixtures: builtin reductions where exported numbers are made."""

import statistics

import numpy as np


def mean_latency(latencies):
    return sum(latencies) / len(latencies)      # -> DET004: a float sum


def spread(latencies):
    return statistics.pstdev(latencies)         # -> DET004


def total_calls(clients):
    # smod: allow(DET004)  integer call counts
    return sum(client.calls for client in clients)


def array_total(values):
    return np.asarray(values).sum()             # ok: numpy's method
