"""Cycle-accurate model of the iterative AES-128 encryption core.

The core is a four-state machine (IDLE, INIT, ROUND, FINAL) stepped one
clock at a time with synchronous semantics: every :meth:`AesCoreSim.step`
samples the inputs once, computes the next register values, and commits
them atomically. One encryption occupies exactly 11 non-idle cycles:
1 INIT (initial key add) + 9 ROUND (full rounds, keys 1..9) + 1 FINAL
(no column mix, key 10).

``done`` and ``data_out`` are registered outputs: they become visible
after the FINAL cycle commits and ``done`` drops again after the next
IDLE cycle.
"""

from .primitives import (NUM_ROUND_KEYS, ZERO_BLOCK, block_round, check_block, check_register,
                         expand_key, xor_blocks)

IDLE = "IDLE"
INIT = "INIT"
ROUND = "ROUND"
FINAL = "FINAL"

CORE_CYCLES_PER_BLOCK = 11  # 1 INIT + 9 ROUND + 1 FINAL


class AesCoreInputs:
    """Input port values sampled by the core at one cycle boundary.

    ``round_keys`` is the pre-unpacked view of the flat round-key bus;
    expansion happens upstream of the core. The raw ``key`` port is part
    of the core's pinout but unused here for the same reason. ``data_in``
    and every round key carry one 16-byte lane per unit, the same count.
    The checks run when a port is built; :class:`~spime.controller.PimUnit`
    builds one only when a bus changes and otherwise sets ``start`` alone.
    """

    __slots__ = ("start", "data_in", "round_keys", "key")

    def __init__(self, start: bool = False, data_in: bytes = ZERO_BLOCK, round_keys: list = None,
                 key: bytes = ZERO_BLOCK):
        if round_keys is None:
            round_keys = [ZERO_BLOCK] * NUM_ROUND_KEYS
        check_register(data_in)
        check_block(key)
        if len(round_keys) != NUM_ROUND_KEYS or {*map(len, round_keys)} != {len(data_in)}:
            raise ValueError(f"round_keys must carry {NUM_ROUND_KEYS} keys as wide as data_in")
        self.start = start
        self.data_in = data_in
        self.round_keys = round_keys
        self.key = key


def datapath(state: str, rnd: int, state_reg: bytes, data_in: bytes, round_keys: list) -> bytes:
    """Next state register of a core executing ``state`` at round counter ``rnd``.

    The register holds the AES state in block form, one 16-byte lane per
    unit, with ``data_in`` and ``round_keys`` in the same layout: one lane
    for a lone core, N for the lockstep array's one ``PimUnit`` on N-lane
    buses. Only this function knows how each state updates the register.
    On the compiled path each :class:`~spime.primitives.RoundKey` wraps the
    module's bytes, read as they are by ``block_round``; ``xor_blocks`` converts
    key 0 once per job. On the pure-Python path each carries its computed int.
    """
    if state == ROUND:
        return block_round(state_reg, round_keys[rnd + 1])
    if state == INIT:
        return xor_blocks(data_in, round_keys[0])
    if state == FINAL:
        return block_round(state_reg, round_keys[10], final=True)
    return state_reg


class AesCoreSim:
    """Registered state of one AES core, advanced one cycle per step."""

    def __init__(self, trace_enabled: bool = False):
        """``trace``/``trace_enabled`` serve the tests; ``simulate`` does not use them."""
        self.trace_enabled = trace_enabled
        self.trace = []  # rows: (cycle, state, round, done)
        self.reset()

    def reset(self) -> None:
        """Synchronous reset: clear the state machine, counters and outputs."""
        self.current_state = IDLE
        self.state_reg = ZERO_BLOCK
        self.round = 0
        self.done = False
        self.data_out = ZERO_BLOCK
        self.cycle_count = 0

    def step(self, inputs: AesCoreInputs) -> "AesCoreSim":
        """Advance exactly one clock cycle.

        The executing state is ``current_state`` as sampled at entry; all
        register updates commit together at the end of the call.
        """
        state = self.current_state
        self.state_reg = datapath(state, self.round, self.state_reg, inputs.data_in, inputs.round_keys)

        if state == IDLE:
            self.done = False
            if inputs.start:
                self.current_state = INIT
        elif state == INIT:
            self.round = 0
            self.current_state = ROUND
        elif state == ROUND:
            self.round += 1
            # 9 full rounds total: leave once the counter reaches 9.
            self.current_state = FINAL if self.round == 9 else ROUND
        elif state == FINAL:
            self.data_out = self.state_reg
            self.done = True
            self.current_state = IDLE
        else:
            raise AssertionError(f"unreachable state {state!r}")

        self.cycle_count += 1
        if self.trace_enabled:
            self.trace.append((self.cycle_count, state, self.round, int(self.done)))
        return self


def encrypt_block(key: bytes, plaintext: bytes):
    """Encrypt one block through a fresh core; returns (ciphertext, cycles).

    The lone-core reference for the library and the tests; ``spime encrypt``
    runs the lockstep array. ``cycles`` counts INIT entry to the done pulse
    (the IDLE cycle that consumes the start pulse is excluded): 11 always.
    """
    schedule = expand_key(key)
    core = AesCoreSim()
    core.step(AesCoreInputs(start=True, data_in=plaintext, round_keys=schedule))
    hold = AesCoreInputs(start=False, data_in=plaintext, round_keys=schedule)
    cycles = 0
    while not core.done:
        core.step(hold)
        cycles += 1
        if cycles > 4 * CORE_CYCLES_PER_BLOCK:
            raise RuntimeError("core failed to assert done")
    return core.data_out, cycles
