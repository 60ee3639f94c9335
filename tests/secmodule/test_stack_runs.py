"""The super-frame push and the steps (3)-(4) runs against per-move pushes.

``BatchStub.push_batch`` pushes a whole super-frame as one extend and two
charged runs, and ``smod_stub_receive`` makes steps (3) and (4) one run
each, with the batch drain folded into step (4).  The references below
keep the moves they replaced: one ``push_call`` per frame (a step (1) run
and a step (2) run), and five stack moves per received call (pop 6 and
save 6 before the body; drop 6, restore ret/fp and, when draining, pop
ret/fp and the args after it).  Both must leave the same slots, results,
cycles, events and op counts, and on a stack that fails a check the same
error, stacks and charged words.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

import pytest

from repro.errors import SimulationError
from repro.hw.machine import make_paper_machine
from repro.secmodule.stubs import (
    BatchCallFrame,
    BatchStub,
    ClientStub,
    SimStack,
    SlotKind,
    StackSlot,
    returned_frame_kinds,
    smod_stub_receive,
)
from repro.sim import costs

A, F, R, S = SlotKind.ARG, SlotKind.FRAME_POINTER, SlotKind.RETURN_ADDRESS, \
    SlotKind.SAVED
M, FN = SlotKind.MODULE_ID, SlotKind.FUNC_ID
FIXUP = costs.SMOD_STACK_FIXUP_WORD
#: step (3)'s words, topmost first
STEP3 = (F, R, FN, M, F, R)

#: one stub per arg count, as a traffic module builds them
STUBS = [ClientStub(f"f{words}", 1, words + 1, arg_words=words)
         for words in range(4)]


# ------------------------------------------------------------- the references

def ref_push_batch(batch: BatchStub, stack: SimStack) -> BatchCallFrame:
    """One ``push_call`` per frame, newest first."""
    needed = batch.words_needed()
    if stack.depth() + needed > stack.capacity:
        raise SimulationError(
            f"batch of {len(batch.queue)} calls ({needed} "
            f"words) cannot fit on stack {stack.name!r} "
            f"(depth {stack.depth()}/{stack.capacity}); flush a smaller "
            f"queue")
    frames = [stub.push_call(stack, args)
              for stub, args in reversed(batch.queue)]
    batch.queue.clear()
    return BatchCallFrame(frames=frames[::-1], stack=stack)


def ref_receive(stack, frame, function, env, *, secret_stack,
                drain=False):
    """Steps (3) and (4) as five moves, the drain's pop after them."""
    secret = secret_stack
    room = secret.capacity - len(secret.slots)
    saved = stack.pop_clean(STEP3 if room >= 6 else STEP3[:max(0, room)],
                            cost_op=FIXUP)
    secret.push_slots(tuple(StackSlot(S, slot.value) for slot in saved),
                      cost_op=FIXUP)
    if len(saved) < 6:
        slot = stack.pop(STEP3[len(saved)], cost_op=FIXUP)
        secret.push(S, slot.value, cost_op=FIXUP)
    result = function.invoke(env, *frame.args)
    secret.pop_words((S,) * 6, cost_op=FIXUP)
    stack.push_slots(frame.ret_fp, cost_op=FIXUP)
    if drain:
        stack.pop_words(returned_frame_kinds(frame), cost_op=FIXUP)
    return result


# ---------------------------------------------------------------- scaffolding

class Env:
    """A call environment whose body can reach both stacks."""

    def __init__(self, machine, shared, secret) -> None:
        self.machine = machine
        self.shared = shared
        self.secret = secret

    def charge(self, operation: str, count: int = 1) -> None:
        self.machine.charge(operation, count)


class Body:
    """A function body: charges its cost, then runs ``effect(env)``."""

    def __init__(self, effect: Optional[Callable[[Env], None]] = None):
        self.effect = effect

    def invoke(self, env: Env, *args):
        env.charge(costs.FUNC_BODY_TESTINCR)
        if self.effect is not None:
            self.effect(env)
        return sum(args) + 1


def queue_of(depth: int, seed: int) -> BatchStub:
    """``depth`` calls of 0-3 args each, drawn from ``seed``."""
    rng = random.Random(seed)
    batch = BatchStub()
    for call in range(depth):
        words = rng.randrange(4)
        batch.enqueue(STUBS[words], tuple(range(call, call + words)))
    return batch


def observe(machine, stacks, action):
    """Run ``action``; its result or error, the stacks and the charges."""
    recorder = machine.meter.record_trace()
    recorder.start()
    try:
        outcome = ("ok", action())
    except SimulationError as exc:
        outcome = ("error", str(exc))
    log = recorder.stop()
    return {"outcome": outcome,
            "stacks": [stack.snapshot() for stack in stacks],
            "log": log, "cycles": machine.clock.cycles,
            "events": machine.clock.events,
            "ops": dict(machine.meter.op_counts)}


def frame_fields(frames):
    return [(f.module_id, f.func_id, f.args, f.return_address,
             f.frame_pointer, f.ret_fp) for f in frames]


def drain_all(frames, shared, secret, env, body, receive) -> List:
    """The handle's drain loop: every frame executed, FIFO."""
    return [receive(shared, frame, body, env, secret_stack=secret,
                    drain=True) for frame in frames]


def both_drains(depth, seed, *, body=Body(), shared_capacity=4096,
                secret_capacity=4096, corrupt=None):
    """One drain through the runs and one through the five moves, each on
    a fresh machine whose stacks the reference push built."""
    results = []
    for receive in (smod_stub_receive, ref_receive):
        machine = make_paper_machine()
        shared = SimStack("shared", machine=machine,
                          capacity=shared_capacity)
        secret = SimStack("secret", machine=machine,
                          capacity=secret_capacity)
        batch = ref_push_batch(queue_of(depth, seed), shared)
        if corrupt is not None:
            corrupt(shared, batch.frames)
        env = Env(machine, shared, secret)
        results.append(observe(machine, (shared, secret), lambda: drain_all(
            batch.frames, shared, secret, env, body, receive)))
    return results


# ---------------------------------------------------------------------- push

class TestSuperFramePush:
    @pytest.mark.parametrize("depth", [1, 2, 3, 5, 8, 13, 21, 33, 45, 64])
    def test_matches_per_frame_push(self, depth):
        seen = []
        for push in (lambda b, s: b.push_batch(s), ref_push_batch):
            machine = make_paper_machine()
            stack = SimStack("shared", machine=machine)
            batch = queue_of(depth, seed=depth)
            state = observe(machine, (stack,),
                            lambda: frame_fields(push(batch, stack).frames))
            # the run charges both ops in one order, the reference
            # interleaves them per frame: same multiset of unit charges
            state["log"] = sorted(state["log"])
            seen.append(state)
            assert not batch.queue
        assert seen[0] == seen[1]
        assert seen[0]["events"] == sum(
            len(args) + 6 for args in (f[2] for f in seen[0]["outcome"][1]))

    def test_two_runs_and_the_session(self):
        machine = make_paper_machine()
        stack = SimStack("shared", machine=machine)
        events = machine.clock.events
        batch = queue_of(9, seed=9).push_batch(stack, session_id=42)
        assert machine.clock.events - events == stack.depth()
        assert batch.session_id == 42
        assert {frame.session_id for frame in batch.frames} == {42}
        assert machine.meter.count(FIXUP) == 4 * 9

    @pytest.mark.parametrize("room", [0, 5, 40])
    def test_super_frame_that_does_not_fit(self, room):
        seen = []
        for push in (lambda b, s: b.push_batch(s), ref_push_batch):
            machine = make_paper_machine()
            stack = SimStack("shared", machine=machine, capacity=50 + room)
            stack.push_words((A,) * 50, range(50))
            batch = queue_of(8, seed=3)       # needs more than 40 words
            seen.append(observe(machine, (stack,),
                                lambda: push(batch, stack)))
            assert len(batch.queue) == 8      # nothing was flushed
        assert seen[0] == seen[1]
        assert seen[0]["outcome"][0] == "error"
        assert "cannot fit" in seen[0]["outcome"][1]
        assert seen[0]["log"] == ()


# ---------------------------------------------------------- receive and drain

class TestReceiveRuns:
    @pytest.mark.parametrize("depth", [1, 2, 3, 5, 8, 13, 21, 33, 45, 64])
    def test_drain_matches_five_moves(self, depth):
        run, ref = both_drains(depth, seed=100 + depth)
        assert run == ref
        assert run["outcome"][0] == "ok"
        assert run["stacks"] == [(), ()]

    @pytest.mark.parametrize("words", [0, 1, 2, 3])
    def test_single_receive_matches_five_moves(self, words):
        seen = []
        for receive in (smod_stub_receive, ref_receive):
            machine = make_paper_machine()
            shared = SimStack("shared", machine=machine)
            secret = SimStack("secret", machine=machine)
            stub = STUBS[words]
            frame = stub.push_call(shared, tuple(range(7, 7 + words)))
            env = Env(machine, shared, secret)

            def call():
                value = receive(shared, frame, Body(), env,
                                secret_stack=secret)
                stub.pop_return(shared, frame)
                return value
            seen.append(observe(machine, (shared, secret), call))
        assert seen[0] == seen[1]
        assert seen[0]["outcome"] == ("ok", sum(range(7, 7 + words)) + 1)

    @pytest.mark.parametrize("drain", [False, True])
    def test_each_step_is_one_run(self, drain):
        machine = make_paper_machine()
        runs = []
        charge_each = machine.charge_each
        machine.charge_each = lambda op, n: (runs.append((op, n)),
                                             charge_each(op, n))[1]
        shared = SimStack("shared", machine=machine)
        secret = SimStack("secret", machine=machine)
        batch = queue_of(5, seed=4).push_batch(shared)
        assert runs == [(costs.USER_STACK_WORD,
                         shared.depth() - 6 * 5 + 2 * 5), (FIXUP, 4 * 5)]
        frame = batch.frames[0]
        del runs[:]
        smod_stub_receive(shared, frame, Body(), Env(machine, shared, secret),
                          secret_stack=secret, drain=drain)
        assert runs == [(FIXUP, 12),
                        (FIXUP, 10 + len(frame.args) if drain else 8)]

    def test_receive_without_a_metered_secret_stack(self):
        """The unit-test default secret stack charges nothing; the stub
        then moves word by word, as before."""
        seen = []
        for receive in (smod_stub_receive, ref_receive):
            machine = make_paper_machine()
            shared = SimStack("shared", machine=machine)
            frame = STUBS[1].push_call(shared, (3,))
            env = Env(machine, shared, None)
            seen.append(observe(machine, (shared,), lambda: receive(
                shared, frame, Body(), env,
                secret_stack=SimStack("secret"))))
        assert seen[0] == seen[1]


class TestIrregularStacks:
    """Each stack fails a check; the runs must fail exactly as the five
    moves do: same error and message, same stacks, same charged words."""

    @pytest.mark.parametrize("position", range(6))
    @pytest.mark.parametrize("frame", [0, 2])
    def test_wrong_kind_in_step3(self, position, frame):
        def corrupt(shared, frames):
            # frames lie top down, frames[0] topmost; ``position`` counts
            # step (3)'s words topmost first
            top = len(shared.slots) - 1 - sum(
                6 + len(f.args) for f in frames[:frame])
            shared.slots[top - position] = StackSlot(A, 0xBAD)
        run, ref = both_drains(4, seed=7, corrupt=corrupt)
        assert run == ref
        assert run["outcome"][0] == "error"
        assert "discipline" in run["outcome"][1]

    @pytest.mark.parametrize("words", range(6))
    def test_too_few_words(self, words):
        def corrupt(shared, frames):
            # keep only the top ``words`` of the first frame's step (3)
            del shared.slots[:len(shared.slots) - words]
        run, ref = both_drains(1, seed=1, corrupt=corrupt)
        assert run == ref
        assert run["outcome"][0] == "error"

    @pytest.mark.parametrize("room", range(6))
    def test_secret_stack_short_of_room(self, room):
        run, ref = both_drains(3, seed=5, secret_capacity=room)
        assert run == ref
        assert run["outcome"][0] == "error"
        assert "overflow" in run["outcome"][1]

    @pytest.mark.parametrize("effect", [
        lambda env: env.shared.push(A, 99),
        lambda env: env.shared.push(M, 99),
        lambda env: env.shared.pop(),
        lambda env: env.secret.push(S, 99),
        lambda env: env.secret.push(A, 99),
        lambda env: env.secret.pop(),
    ], ids=["push-arg", "push-id", "pop-shared", "push-saved",
            "push-secret-arg", "pop-secret"])
    @pytest.mark.parametrize("drain", [True, False])
    def test_body_touches_a_stack(self, effect, drain):
        if drain:
            run, ref = both_drains(3, seed=11, body=Body(effect))
        else:
            seen = []
            for receive in (smod_stub_receive, ref_receive):
                machine = make_paper_machine()
                shared = SimStack("shared", machine=machine)
                secret = SimStack("secret", machine=machine)
                shared.push_words((A, A), (1, 2))
                frame = STUBS[2].push_call(shared, (5, 6))
                env = Env(machine, shared, secret)
                seen.append(observe(machine, (shared, secret), lambda:
                                    receive(shared, frame, Body(effect), env,
                                            secret_stack=secret)))
            run, ref = seen
        assert run == ref

    @pytest.mark.parametrize("free", [0, 1])
    @pytest.mark.parametrize("drain", [True, False])
    def test_body_fills_the_shared_stack(self, free, drain):
        def fill(env):
            shared = env.shared
            shared.push_words((A,) * (shared.capacity - len(shared.slots)
                                      - free),
                              range(shared.capacity - len(shared.slots)
                                    - free))
        if drain:
            run, ref = both_drains(2, seed=2, body=Body(fill),
                                   shared_capacity=64)
        else:
            seen = []
            for receive in (smod_stub_receive, ref_receive):
                machine = make_paper_machine()
                shared = SimStack("shared", machine=machine, capacity=64)
                secret = SimStack("secret", machine=machine)
                frame = STUBS[1].push_call(shared, (5,))
                env = Env(machine, shared, secret)
                seen.append(observe(machine, (shared, secret), lambda:
                                    receive(shared, frame, Body(fill), env,
                                            secret_stack=secret)))
            run, ref = seen
        assert run == ref
        assert run["outcome"][0] == "error"
        assert "overflow" in run["outcome"][1]
