"""Tests for the shared-stack stubs (the Figure 3 discipline)."""

import pytest

from repro.errors import SimulationError
from repro.hw.machine import make_paper_machine
from repro.secmodule.module import CallEnvironment, SecModuleDefinition
from repro.secmodule.stubs import (
    ClientStub,
    SimStack,
    SlotKind,
    StackSlot,
    smod_stub_receive,
)
from repro.sim import costs


def make_function(name="test_incr"):
    module = SecModuleDefinition("libtest", 1)
    return module.add_function(name, lambda env, x: x + 1)


def make_env():
    class _FakeKernel:
        machine = make_paper_machine()
    return CallEnvironment(kernel=_FakeKernel(), session=None, client=None,
                           handle=None)


class TestSimStack:
    def test_push_pop_lifo(self):
        stack = SimStack()
        stack.push(SlotKind.ARG, 1)
        stack.push(SlotKind.ARG, 2)
        assert stack.pop(SlotKind.ARG).value == 2
        assert stack.pop(SlotKind.ARG).value == 1

    def test_underflow_and_overflow(self):
        stack = SimStack(capacity=1)
        with pytest.raises(SimulationError):
            stack.pop()
        stack.push(SlotKind.ARG, 1)
        with pytest.raises(SimulationError):
            stack.push(SlotKind.ARG, 2)

    def test_typed_pop_mismatch(self):
        stack = SimStack()
        stack.push(SlotKind.ARG, 1)
        with pytest.raises(SimulationError, match="discipline"):
            stack.pop(SlotKind.FRAME_POINTER)

    def test_peek_and_snapshot(self):
        stack = SimStack()
        stack.push(SlotKind.ARG, 1)
        stack.push(SlotKind.FRAME_POINTER, 2)
        assert stack.peek().kind is SlotKind.FRAME_POINTER
        assert stack.peek(1).value == 1
        snap = stack.snapshot()
        stack.pop()
        assert len(snap) == 2          # snapshot unaffected by later pops
        with pytest.raises(SimulationError):
            stack.peek(5)

    def test_describe(self):
        stack = SimStack(name="shared")
        assert "empty" in stack.describe()
        stack.push(SlotKind.ARG, 41)
        assert "arg=41" in stack.describe()

    def test_costs_charged_when_machine_attached(self):
        machine = make_paper_machine()
        stack = SimStack(machine=machine)
        before = machine.clock.cycles
        stack.push(SlotKind.ARG, 1)
        stack.pop()
        assert machine.clock.cycles > before


class TestClientStub:
    def test_push_call_builds_figure3_step2_frame(self):
        stack = SimStack()
        stub = ClientStub("malloc", module_id=3, func_id=7, arg_words=2)
        frame = stub.push_call(stack, (256, 1), record_checkpoints=True)
        kinds = [slot.kind for slot in stack.snapshot()]
        assert kinds == [SlotKind.ARG, SlotKind.ARG, SlotKind.RETURN_ADDRESS,
                         SlotKind.FRAME_POINTER, SlotKind.MODULE_ID,
                         SlotKind.FUNC_ID, SlotKind.RETURN_ADDRESS,
                         SlotKind.FRAME_POINTER]
        # args are pushed right-to-left so arg1 is deepest... the first arg
        # ends up closest to the ids, matching cdecl layout
        assert stack.snapshot()[0].value == 1
        assert stack.snapshot()[1].value == 256
        assert frame.module_id == 3 and frame.func_id == 7
        assert "step1" in frame.checkpoints and "step2" in frame.checkpoints
        assert len(frame.checkpoints["step1"]) == 4
        assert len(frame.checkpoints["step2"]) == 8

    def test_duplicated_words_match_originals(self):
        stack = SimStack()
        stub = ClientStub("f", 1, 1)
        frame = stub.push_call(stack, (9,), return_address=0x1234,
                               frame_pointer=0x5678)
        snapshot = stack.snapshot()
        assert snapshot[1].value == snapshot[5].value == 0x1234
        assert snapshot[2].value == snapshot[6].value == 0x5678

    def test_symbol_name(self):
        assert ClientStub("malloc", 1, 2).symbol == "SMOD_client_malloc"

    def test_pop_return_restores_empty_stack(self):
        stack = SimStack()
        stub = ClientStub("f", 1, 1)
        frame = stub.push_call(stack, (9,))
        function = make_function()
        smod_stub_receive(stack, frame, function, make_env())
        stub.pop_return(stack, frame)
        assert stack.depth() == 0


class TestStubReceive:
    def test_callee_sees_only_args(self):
        stack = SimStack()
        stub = ClientStub("test_incr", 1, 1)
        frame = stub.push_call(stack, (41,), record_checkpoints=True)
        result = smod_stub_receive(stack, frame, make_function(), make_env(),
                                   record_checkpoints=True)
        assert result == 42
        step3 = frame.checkpoints["step3"]
        assert [s.kind for s in step3] == [SlotKind.ARG]
        step4 = frame.checkpoints["step4"]
        assert [s.kind for s in step4] == [SlotKind.ARG, SlotKind.RETURN_ADDRESS,
                                           SlotKind.FRAME_POINTER]
        assert step4[1].value == frame.return_address
        assert step4[2].value == frame.frame_pointer

    def test_secret_stack_used_and_drained(self):
        stack = SimStack()
        secret = SimStack(name="secret")
        stub = ClientStub("test_incr", 1, 1)
        frame = stub.push_call(stack, (1,))
        smod_stub_receive(stack, frame, make_function(), make_env(),
                          secret_stack=secret)
        assert secret.depth() == 0     # all spills popped back off

    def test_corrupted_stack_detected(self):
        stack = SimStack()
        stub = ClientStub("test_incr", 1, 1)
        frame = stub.push_call(stack, (1,))
        stack.pop()                    # someone smashed the top of the frame
        with pytest.raises(SimulationError):
            smod_stub_receive(stack, frame, make_function(), make_env())


# ------------------------------------------------ runs vs word-by-word moves
# The reference below moves one word at a time: one check, one slot and one
# unit charge per word.  Runs must leave the same slots and charges.

def _ref_push(stack, kinds, values, cost_op):
    for kind, value in zip(kinds, values):
        if len(stack.slots) >= stack.capacity:
            raise SimulationError(f"stack {stack.name!r} overflow")
        stack.slots.append(StackSlot(kind, value))
        stack.machine.charge(cost_op)


def _ref_pop(stack, expected, cost_op):
    popped = []
    for want in expected:
        if not stack.slots:
            raise SimulationError(f"stack {stack.name!r} underflow")
        slot = stack.slots.pop()
        if want is not None and slot.kind is not want:
            raise SimulationError(
                f"stack discipline violated on {stack.name!r}: expected "
                f"{want.value}, popped {slot.kind.value}")
        stack.machine.charge(cost_op)
        popped.append(slot)
    return popped


def _outcome(machine, stacks, action):
    """Run ``action``; return its error, the slots left and the charges."""
    recorder = machine.meter.record_trace()
    recorder.start()
    try:
        action()
        error = None
    except SimulationError as exc:
        error = str(exc)
    raw = recorder.stop()
    return (error, [stack.snapshot() for stack in stacks], raw,
            machine.clock.cycles, machine.clock.events,
            dict(machine.meter.op_counts))


def _both(build, run, reference):
    """The same scenario through the run API and the word-by-word loop."""
    results = []
    for action in (run, reference):
        machine = make_paper_machine()
        stacks = build(machine)
        results.append(_outcome(machine, stacks, lambda: action(*stacks)))
    return results


FIXUP = costs.SMOD_STACK_FIXUP_WORD
A, F, R, S = SlotKind.ARG, SlotKind.FRAME_POINTER, SlotKind.RETURN_ADDRESS, \
    SlotKind.SAVED


class TestRunsMatchWordByWord:
    def stack(self, machine, capacity=16, words=()):
        stack = SimStack("s", machine=machine, capacity=capacity)
        stack.slots.extend(StackSlot(kind, i) for i, kind in enumerate(words))
        return stack

    @pytest.mark.parametrize("capacity", [2, 4, 5, 6, 16])
    def test_push_overflow_mid_run(self, capacity):
        kinds, values = (A, A, R, F), (1, 2, 3, 4)
        run, ref = _both(
            lambda m: [self.stack(m, capacity, words=(A, A))],
            lambda s: s.push_words(kinds, values, cost_op=FIXUP),
            lambda s: _ref_push(s, kinds, values, FIXUP))
        assert run == ref
        assert (run[0] is None) == (capacity >= 6)

    @pytest.mark.parametrize("depth", [0, 1, 3, 4, 6])
    def test_pop_underflow_mid_run(self, depth):
        expected = (F, R, A, A)
        words = ((A,) * 4 + (R, F))[-depth:] if depth else ()
        run, ref = _both(
            lambda m: [self.stack(m, words=words)],
            lambda s: s.pop_words(expected),
            lambda s: _ref_pop(s, expected, costs.USER_STACK_WORD))
        assert run == ref
        assert (run[0] is not None and "underflow" in run[0]) == (depth < 4)

    @pytest.mark.parametrize("bad", [0, 1, 2, 3])
    def test_wrong_kind_mid_run(self, bad):
        expected = (F, R, A, A)
        words = [A, A, R, F]               # bottom first: pops F, R, A, A
        words[3 - bad] = SlotKind.MODULE_ID
        run, ref = _both(
            lambda m: [self.stack(m, words=words)],
            lambda s: s.pop_words(expected, cost_op=FIXUP),
            lambda s: _ref_pop(s, expected, FIXUP))
        assert run == ref
        assert "discipline" in run[0]
        assert len(run[2]) == bad          # the clean words were charged

    def test_unchecked_pop_and_zero_runs(self):
        run, ref = _both(
            lambda m: [self.stack(m, words=(A, F, S))],
            lambda s: (s.pop_words((None, None)), s.pop_words(()),
                       s.push_words((), ())),
            lambda s: _ref_pop(s, (None, None), costs.USER_STACK_WORD))
        assert run == ref and run[0] is None

    def test_single_word_push_pop_are_one_word_runs(self):
        machine = make_paper_machine()
        stack = SimStack(machine=machine, capacity=1)
        slot = stack.push(A, 7)
        assert slot == StackSlot(A, 7) and slot.describe() == "arg=7"
        assert stack.pop(A) == slot
        assert machine.meter.count(costs.USER_STACK_WORD) == 2
        assert machine.clock.events == 2


class TestStep3Failures:
    """A failing Figure 3 step (3) leaves what the per-word loop left."""

    STEP3 = (F, R, SlotKind.FUNC_ID, SlotKind.MODULE_ID, F, R)

    def frame_and_stacks(self, machine, *, corrupt=None, secret_room=16):
        shared = SimStack("shared", machine=machine)
        frame = ClientStub("test_incr", 1, 1).push_call(shared, (41,))
        if corrupt is not None:            # index in step-3 pop order
            position = len(shared.slots) - 1 - corrupt
            shared.slots[position] = StackSlot(A, 0xBAD)
        secret = SimStack("secret", machine=machine, capacity=secret_room)
        return frame, shared, secret

    def reference(self, shared, secret):
        for want in self.STEP3:
            (slot,) = _ref_pop(shared, (want,), FIXUP)
            _ref_push(secret, (S,), (slot.value,), FIXUP)

    @pytest.mark.parametrize("corrupt,secret_room", [
        (0, 16), (1, 16), (3, 16), (5, 16),   # a word of the wrong kind
        (None, 0), (None, 2), (None, 5),      # the secret stack fills up
        (4, 2), (2, 2), (2, 3)])              # both: the first failure wins
    def test_matches_word_by_word(self, corrupt, secret_room):
        env = make_env()
        results = []
        for use_runs in (True, False):
            machine = make_paper_machine()
            frame, shared, secret = self.frame_and_stacks(
                machine, corrupt=corrupt, secret_room=secret_room)

            def action():
                if use_runs:
                    smod_stub_receive(shared, frame, make_function(), env,
                                      secret_stack=secret)
                else:
                    self.reference(shared, secret)
            results.append(_outcome(machine, (shared, secret), action))
        assert results[0] == results[1]
        assert results[0][0] is not None
