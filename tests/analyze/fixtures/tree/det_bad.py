"""DET fixtures: ambient time and entropy in a simulation path."""

import random                    # -> DET002
import time
from time import perf_counter    # alias binding for the call below


def stamp():
    return time.time()           # -> DET001


def measure():
    return perf_counter()        # -> DET001


def jitter():
    return random.random()       # -> DET001 (on top of the DET002 import)


def seed_offset(name):
    return hash(name) % 97       # -> DET003 (salted per process)
