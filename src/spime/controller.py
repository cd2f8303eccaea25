"""Per-unit control FSM and the controller/core co-simulation.

The controller walks IDLE -> START_AES -> WAIT_AES -> DONE per block:
it pulses ``aes_start`` for one cycle, waits for the core's ``done``,
latches the ciphertext into ``data_out``, and pulses its own ``done``
for one cycle before returning to IDLE. ``start`` is only sampled in
IDLE; requests arriving in any other state are ignored.

:class:`PimUnit` wires one controller to one core with registered
signals in both directions: each global tick feeds both machines the
other's outputs from the previous cycle, then commits both. That
sampling discipline makes the per-block timing an exact constant,
measured here as :data:`UNIT_CYCLES_PER_BLOCK` global cycles from the
cycle start is first seen to the cycle the done pulse retires
(11 core cycles + 4 handshake cycles).
"""

from .aes_core import AesCoreInputs, AesCoreSim, CORE_CYCLES_PER_BLOCK
from .primitives import ZERO_BLOCK, check_block, check_register, expand_key

C_IDLE = "IDLE"
C_START_AES = "START_AES"
C_WAIT_AES = "WAIT_AES"
C_DONE = "DONE"

# start sample + core start-pulse delivery + done detect + done retire
HANDSHAKE_OVERHEAD_CYCLES = 4
UNIT_CYCLES_PER_BLOCK = CORE_CYCLES_PER_BLOCK + HANDSHAKE_OVERHEAD_CYCLES


class PimControllerSim:
    """Registered state of one PIM controller, advanced one cycle per step."""

    def __init__(self, trace_enabled: bool = False):
        """``trace``/``trace_enabled`` serve the tests; ``simulate`` does not use them."""
        self.trace_enabled = trace_enabled
        self.trace = []  # rows: (cycle, state, aes_start, aes_done, done)
        self.data_out = ZERO_BLOCK
        self.reset()

    def reset(self) -> None:
        """Synchronous reset: back to IDLE with both pulses low.

        ``data_out`` is a plain latch and keeps its last value through
        reset; it starts out all-zero at construction.
        """
        self.state = C_IDLE
        self.aes_start = False
        self.done = False
        self.cycle_count = 0

    def step(self, start: bool, aes_done: bool, aes_data_out: bytes) -> "PimControllerSim":
        """Advance one clock cycle with the given sampled inputs."""
        state = self.state
        if state == C_IDLE:
            if start:
                self.aes_start = True
                self.state = C_START_AES
        elif state == C_START_AES:
            self.aes_start = False
            self.state = C_WAIT_AES
        elif state == C_WAIT_AES:
            if aes_done:
                self.data_out = check_register(aes_data_out)
                self.done = True
                self.state = C_DONE
        elif state == C_DONE:
            self.done = False
            self.state = C_IDLE
        else:
            raise AssertionError(f"unreachable state {state!r}")

        self.cycle_count += 1
        if self.trace_enabled:
            self.trace.append(
                (self.cycle_count, state, int(self.aes_start), int(aes_done), int(self.done))
            )
        return self


class PimUnit:
    """One controller wired to one core, ticked on a shared clock.

    The unit keeps the core's input port between ticks: a tick with the last
    tick's ``data_in`` and ``round_keys`` objects sets only its ``start``, any
    other builds a new, fully checked :class:`AesCoreInputs`. So the buses are
    checked when they change (in the array, once per block), not every cycle.
    A bus is matched by identity: one changed in place is not checked again.
    """

    def __init__(self):
        self.ctrl = PimControllerSim()
        self.core = AesCoreSim()
        self._port = AesCoreInputs()

    def reset(self) -> None:
        self.ctrl.reset()
        self.core.reset()

    def tick(self, start: bool, data_in: bytes, round_keys: list) -> None:
        """Advance both FSMs one cycle; each samples the other's old outputs."""
        ctrl, core, port = self.ctrl, self.core, self._port
        aes_start = ctrl.aes_start
        ctrl.step(start, core.done, core.data_out)
        if data_in is port.data_in and round_keys is port.round_keys:
            port.start = aes_start
        else:
            port = self._port = AesCoreInputs(aes_start, data_in, round_keys)
        core.step(port)


def run_block(unit: PimUnit, key: bytes, plaintext: bytes):
    """Drive one block through a unit; returns (ciphertext, end_to_end_cycles).

    Counts global cycles from the first cycle start is asserted until the
    controller's done pulse has retired and it is IDLE again, ready for
    the next block. The count is input-independent.
    """
    check_block(plaintext)
    schedule = expand_key(key)
    cycles = 0
    ciphertext = None
    while True:
        # start stays high until accepted; ignored outside IDLE.
        unit.tick(start=True, data_in=plaintext, round_keys=schedule)
        cycles += 1
        if unit.ctrl.done:
            ciphertext = unit.ctrl.data_out
            break
        if cycles > 4 * UNIT_CYCLES_PER_BLOCK:
            raise RuntimeError("controller failed to assert done")
    unit.tick(start=False, data_in=plaintext, round_keys=schedule)  # retire DONE
    cycles += 1
    return ciphertext, cycles
