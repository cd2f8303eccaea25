"""Lockstep simulation of N parallel (controller, core) encryption units.

All units share one clock, one reset, and one start signal; plaintext,
key, and ciphertext buffers are per unit. A job preloads every unit with
the same number of 128-bit blocks; the array holds start high while a
block is still uncaptured and collects one ciphertext per done pulse.

Timing does not depend on data, so all units follow one control
trajectory: the array is one :class:`PimUnit` on N-lane buses. Its
``data_in``, round-key and ``data_out`` buses and its core's state
register are 16N bytes wide, unit u at bytes 16u..16u+15, so one core
step advances every unit's state. The N keys are expanded in one
:func:`~spime.primitives.expand_keys` call into 11 round-key registers
of the same layout. A :class:`SpimeJob` holds the job in this layout
from the parsed file on. The result file is formatted from the key
register and the captured ``data_out`` registers: scattered into each
unit's key and blocks in file order, then hex-encoded one run of whole
lines (about 64 KiB of text) at a time, with every separator written by
one strided slice. A per-unit :class:`PimUnit` stays the reference
model: an N-unit run matches N independent unit runs cycle for cycle.
With tracing on, the array records the six shared control signals once per
cycle, the cycle given by the record's position, and renders each as one string
of N CSV rows only when read, so trace memory does not grow with N.

Job file format (one line per unit, '#' comments allowed):

    <key-hex32> <block-hex32>[,<block-hex32>...]

Result files have the same shape with ciphertext blocks. One check reads that
shape: over the rest of a job at once, or over a line's two fields joined by one
space. The line that sets the block count, and any it refuses, go field by field.
"""

import collections
import re

from .aes_core import IDLE
from .controller import C_IDLE, PimUnit, UNIT_CYCLES_PER_BLOCK
from .primitives import (BLOCK_BITS, BLOCK_BYTES, NUM_ROUND_KEYS, block_from_hex, check_block,
                         expand_keys)

TRACE_HEADER = ["unit", "cycle", "ctrl_state", "aes_start", "core_state", "round", "aes_done", "done"]


class ConfigError(ValueError):
    """Invalid array configuration or job/config shape mismatch."""


class JobFormatError(ValueError):
    """Malformed job file; carries the offending 1-based line number, or None for the whole file."""

    def __init__(self, lineno: int | None, message: str):
        super().__init__(message if lineno is None else f"line {lineno}: {message}")
        self.lineno = lineno


class SpimeConfig:
    """Array shape: unit count and per-unit job size in bits."""

    __slots__ = ("num_pims", "per_pim_block_bits", "trace_enabled")

    def __init__(self, num_pims: int, per_pim_block_bits: int = BLOCK_BITS,
                 trace_enabled: bool = False):
        if num_pims < 1:
            raise ConfigError(f"num_pims must be >= 1, got {num_pims}")
        if per_pim_block_bits < 1 or per_pim_block_bits % BLOCK_BITS != 0:
            raise ConfigError(
                f"per_pim_block_bits must be a positive multiple of {BLOCK_BITS}, "
                f"got {per_pim_block_bits}"
            )
        self.num_pims = num_pims
        self.per_pim_block_bits = per_pim_block_bits
        self.trace_enabled = trace_enabled

    @property
    def blocks_per_unit(self) -> int:
        return self.per_pim_block_bits // BLOCK_BITS


def _lanes(register: bytes) -> list:
    """A register's 16-byte lanes, unit 0 first."""
    return [register[i:i + BLOCK_BYTES] for i in range(0, len(register), BLOCK_BYTES)]


def _per_unit(registers: list, num_units: int) -> list:
    """Per-unit block lists from one register per block index."""
    lanes = [_lanes(register) for register in registers]
    return [[column[u] for column in lanes] for u in range(num_units)]


class SpimeJob:
    """Per-unit keys and input blocks, held as the registers the array's buses carry.

    ``key_register`` holds unit u's key at bytes 16u..16u+15, and
    ``input_registers[b]`` every unit's block b in the same layout.
    ``SpimeJob(keys=..., inputs=...)`` takes per-unit lists, checks them and
    joins them once; ``keys`` and ``inputs`` read the registers back as
    per-unit lists.
    """

    def __init__(self, keys: list, inputs: list):
        for block in [*keys, *(block for seq in inputs for block in seq)]:
            check_block(block)
        if len(inputs) != len(keys) or len({*map(len, inputs)}) > 1:
            raise ConfigError("a job needs one input row per key, all of one length")
        self.key_register = b"".join(keys)
        self.input_registers = [b"".join(column) for column in zip(*inputs)]

    @classmethod
    def from_registers(cls, key_register: bytes, input_registers: list) -> "SpimeJob":
        """A job from registers already in bus layout, taken as they are."""
        job = cls.__new__(cls)
        job.key_register, job.input_registers = key_register, input_registers
        return job

    @property
    def num_units(self) -> int:
        return len(self.key_register) // BLOCK_BYTES

    @property
    def blocks_per_unit(self) -> int:
        return len(self.input_registers)

    @property
    def keys(self) -> list:
        return _lanes(self.key_register)

    @property
    def inputs(self) -> list:
        return _per_unit(self.input_registers, self.num_units)


class SpimeResult:
    """Captured ciphertext registers plus the global cycle count at completion.

    ``output_registers[b]`` holds every unit's ciphertext of block b, lane u
    at bytes 16u..16u+15; ``outputs`` reads them back as per-unit lists.
    """

    __slots__ = ("output_registers", "total_cycles", "done_flags")

    def __init__(self, output_registers: list, total_cycles: int, done_flags: list):
        self.output_registers = output_registers
        self.total_cycles = total_cycles
        self.done_flags = done_flags

    @property
    def outputs(self) -> list:
        return _per_unit(self.output_registers, len(self.output_registers[0]) // BLOCK_BYTES)


UnitObservation = collections.namedtuple("UnitObservation",
                                         "ctrl_state core_state aes_start aes_done done round")


class SpimeArraySim:
    """N units on a shared clock: one :class:`PimUnit` on 16N-byte buses."""

    def __init__(self, cfg: SpimeConfig):
        self.cfg = cfg
        self._control = PimUnit()
        self.reset()

    def reset(self) -> None:
        """Global reset: control to IDLE, cycle count, trace and captures cleared, buses zeroed."""
        self._control.reset()
        zero = self._control.core.state_reg = bytes(BLOCK_BYTES * self.cfg.num_pims)
        self.cycle = 0
        self._trace = []  # per cycle, its six signals in TRACE_HEADER order; numbered when read
        # The staged buses: 16N bytes wide from reset on, as the job's registers are.
        self._inputs = [zero]  # per block index, the register of every unit's input
        self._round_keys = [zero] * NUM_ROUND_KEYS
        self._blocks = 0  # the job's blocks per unit, read once per job
        self._captured = []  # the controller's data_out at each done pulse

    @property
    def units(self) -> list:
        """Each unit's datapath state register, sliced from the core's state register."""
        return _lanes(self._control.core.state_reg)

    @property
    def _outputs(self) -> list:
        """Each unit's captured ciphertexts, in capture order."""
        return _per_unit(self._captured, self.cfg.num_pims)

    def _observe(self) -> UnitObservation:
        """The shared control signals as one observation, for :meth:`tick`'s callers."""
        ctrl, core = self._control.ctrl, self._control.core
        return UnitObservation(ctrl.state, core.current_state, ctrl.aes_start,
                               core.done, ctrl.done, core.round)

    def load_job(self, job: SpimeJob) -> None:
        """Check a job's shape and register widths and expand its keys, then reset and stage it.

        A refused job leaves the array as it was. Once loaded, the cycle
        count, the trace and the captures cover this one job.
        """
        cfg = self.cfg
        if (job.num_units, job.blocks_per_unit) != (cfg.num_pims, cfg.blocks_per_unit):
            raise ConfigError(
                f"job holds {job.num_units} units x {job.blocks_per_unit} blocks "
                f"for {cfg.num_pims} units x {cfg.blocks_per_unit} blocks"
            )
        width = BLOCK_BYTES * cfg.num_pims
        for b, register in enumerate(job.input_registers):
            if len(register) != width:
                raise ConfigError(f"job's block {b} register holds {len(register)} bytes, "
                                  f"not {width} for {cfg.num_pims} units")
        round_keys = expand_keys(job.key_register)
        self.reset()
        self._round_keys = round_keys
        self._inputs = job.input_registers
        self._blocks = job.blocks_per_unit

    def job_complete(self) -> bool:
        """True once every block is captured and the control is idle again, all pulses low."""
        ctrl, core = self._control.ctrl, self._control.core
        return (len(self._captured) >= self._blocks and ctrl.state == C_IDLE
                and core.current_state == IDLE and not (ctrl.aes_start or core.done or ctrl.done))

    def _edge(self) -> None:
        """One global cycle, as :meth:`tick` without the observation: the edge run_job clocks."""
        # Start is sampled only in IDLE and stays high until the last block is captured.
        # A busy core works on the first uncaptured block; with start low the buses hold
        # the last block, which the idle core does not read. The buses are the same
        # objects for a whole block, so the unit checks them once per block.
        control, captured = self._control, self._captured
        start = len(captured) < self._blocks
        control.tick(start, self._inputs[len(captured) if start else -1], self._round_keys)

        self.cycle += 1
        ctrl = control.ctrl
        if ctrl.done:
            captured.append(ctrl.data_out)
        if self.cfg.trace_enabled:
            core = control.core
            self._trace.append((ctrl.state, int(ctrl.aes_start), core.current_state, core.round,
                                int(core.done), int(ctrl.done)))

    def tick(self) -> list:
        """Advance the array exactly one global cycle; returns one observation per unit."""
        self._edge()
        return [self._observe()] * self.cfg.num_pims

    def iter_trace_lines(self):
        """Yield the trace CSV text: the header line, then one string per cycle, from cycle 1.

        A cycle's string holds its N rows, newline-separated and without a
        final newline. No field can hold a comma or a quote (ints and FSM
        state names), so plain joining gives the bytes ``csv.writer`` would.
        """
        yield ",".join(TRACE_HEADER)
        prefixes = [f"{u}," for u in range(self.cfg.num_pims)]
        for cycle, record in enumerate(self._trace, 1):
            tail = f"{cycle}," + ",".join(map(str, record))
            yield (tail + "\n").join(prefixes) + tail

    def iter_trace_rows(self):
        """Yield the trace rows in TRACE_HEADER order: per cycle, one row per unit.

        ``simulate`` writes :meth:`iter_trace_lines` instead; the rows serve the tests.
        """
        for cycle, record in enumerate(self._trace, 1):
            for u in range(self.cfg.num_pims):
                yield [u, cycle, *record]

    @property
    def trace_rows(self) -> list:
        """All trace rows as a list; only the tests use it."""
        return list(self.iter_trace_rows())

    def run_job(self, job: SpimeJob) -> SpimeResult:
        """Load a job (which resets the array), run it to completion and collect its ciphertexts."""
        self.load_job(job)
        budget = self._blocks * UNIT_CYCLES_PER_BLOCK + 64
        while not self.job_complete():
            self._edge()
            if self.cycle > budget:
                raise RuntimeError("array failed to finish within the cycle budget")
        return SpimeResult(
            output_registers=list(self._captured),
            total_cycles=self.cycle,
            done_flags=[len(self._captured) == self._blocks] * self.cfg.num_pims,
        )


def build_array(cfg: SpimeConfig) -> SpimeArraySim:
    """Construct a reset array for ``cfg``."""
    return SpimeArraySim(cfg)


# ---------------------------------------------------------------------------
# Job / result file round-trip
# ---------------------------------------------------------------------------

_FIELD = 2 * BLOCK_BYTES + 1  # one block's hex text and the separator after it
_LINE = re.compile(r"[^\n]*\n|[^\n]+")
_DECODE_CHARS = 1 << 16  # about how much job text one bytes.fromhex call decodes


def _canonical_units(text, start, blocks):
    """Each unit's key and blocks, if every line of ``text[start:]`` is canonical, else None.

    A canonical line is ``<key-hex32> <block-hex32>[,<block-hex32>...]\\n`` (the last may
    lack its ``\\n``), so every 33rd char is a separator: one strided slice checks them all,
    and ``bytes.fromhex`` (it skips whitespace and refuses any other non-hex) the rest, over
    slices of whole lines so that no copy of the whole text is made. Two whitespace-free
    fields joined by one space pass exactly when ``block_from_hex`` takes every field.
    """
    line = _FIELD * (blocks + 1)
    final_newline = "" if text.endswith("\n") else "\n"
    units, extra = divmod(len(text) - start + len(final_newline), line)
    separators = text[start + _FIELD - 1::_FIELD] + final_newline
    if extra or separators != (" " + "," * (blocks - 1) + "\n") * units:
        return None
    data, step = bytearray(), line * max(1, _DECODE_CHARS // line)
    try:
        for i in range(start, len(text), step):
            data += bytes.fromhex(text[i:i + step].replace(",", " "))
    except ValueError:
        return None
    return data if len(data) == BLOCK_BYTES * units * (blocks + 1) else None


def _job_from_units(data, blocks):
    """A job from each unit's key and blocks, gathered as two strided word copies per register."""
    words, stride = memoryview(data).cast("Q"), 2 * (blocks + 1)
    registers = []
    for first in range(0, stride, 2):
        register = bytearray(len(data) // (blocks + 1))
        view = memoryview(register).cast("Q")
        view[0::2], view[1::2] = words[first::stride], words[first + 1::stride]
        registers.append(bytes(register))
    return SpimeJob.from_registers(registers[0], registers[1:])


def parse_job_lines(lines, blocks_per_unit=None) -> SpimeJob:
    """Parse a job's text, file or lines into registers; raises JobFormatError with a line number.

    Every unit must hold ``blocks_per_unit`` blocks (default: as many as the first).
    The text is read once, into one buffer of the units' bytes in file order. Once the
    block count is known (before line 1 when given, else after the first unit line), a
    canonical rest is read in one pass, and any other unit line by :func:`_canonical_units`
    on its two fields joined by one space. A line it refuses, or the one that sets the
    block count, is checked field by field, which gives every message and line number.
    """
    text = lines if isinstance(lines, str) else lines.read() if hasattr(lines, "read") else "".join(
        line if line.endswith("\n") else line + "\n" for line in lines)
    data = bytearray()  # each unit's key and blocks, in file order
    expected_blocks = blocks_per_unit
    one_pass = expected_blocks is not None  # the one-pass read is still to try
    for lineno, line in enumerate(_LINE.finditer(text), start=1):
        if one_pass:
            one_pass, rest = False, _canonical_units(text, line.start(), expected_blocks)
            if rest:
                rest[:0] = data  # at most one unit: the canonical rest is not copied
                data = rest
                break
        parts = line[0].split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise JobFormatError(lineno, "expected '<key-hex> <block-hex>[,<block-hex>...]'")
        unit = expected_blocks and _canonical_units(" ".join(parts), 0, expected_blocks)
        if unit:
            data += unit
            continue
        try:
            data += block_from_hex(parts[0])
            blocks = [block_from_hex(tok) for tok in parts[1].split(",")]
        except ValueError as exc:
            raise JobFormatError(lineno, str(exc)) from None
        if expected_blocks is None:
            expected_blocks, one_pass = len(blocks), True
        elif len(blocks) != expected_blocks:
            raise JobFormatError(
                lineno, f"expected {expected_blocks} blocks per unit, got {len(blocks)}"
            )
        data += b"".join(blocks)
    if not data:
        raise JobFormatError(None, "job file holds no units")
    return _job_from_units(data, expected_blocks)


def undecodable_line(fh, exc: UnicodeDecodeError) -> tuple:
    """(1-based line or None, description) of the first byte of ``fh`` that is not UTF-8.

    For an open text file (a job file or the device catalog) whose decoding raised ``exc``,
    which names only an offset into the decoder's chunk: its bytes are read again through
    ``fh.buffer`` from offset 0 (the path is never opened again), and lines end at ``\\n``,
    ``\\r\\n`` or ``\\r``. Re-raises ``exc`` if they now decode. A handle that cannot seek
    (a pipe or FIFO, read only once) gets no line: the byte and the reason come from ``exc``.
    """
    if not fh.seekable():
        return None, f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})"
    fh.buffer.seek(0)
    data = fh.buffer.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as found:
        offset = found.start
        head = data[:offset]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return line, f"byte 0x{data[offset]:02x} at offset {offset} is not UTF-8 ({found.reason})"
    raise exc


def format_result_lines(job: SpimeJob, result: SpimeResult):
    """Yield a result in the job-file shape (key + ciphertext blocks), whole lines at a time.

    The registers are scattered into each unit's key and blocks in file order, two strided
    word copies each (the inverse of :func:`_job_from_units`). Each run of whole lines
    holding about ``_DECODE_CHARS`` of text is then one ``hex`` pass, a space after every
    block, and one strided slice of separators: a space after the key, a comma between
    blocks, a newline ending each line. A run is one string with no final newline, as in
    :meth:`SpimeArraySim.iter_trace_lines`. Keys print in lowercase whatever case the job
    file used.
    """
    registers = [job.key_register, *result.output_registers]
    fields = len(registers)  # a unit's key and blocks
    data = bytearray(len(job.key_register) * fields)
    words, stride = memoryview(data).cast("Q"), 2 * fields
    for first, register in zip(range(0, stride, 2), registers):
        view = memoryview(register).cast("Q")
        words[first::stride], words[first + 1::stride] = view[0::2], view[1::2]
    units = max(1, _DECODE_CHARS // (_FIELD * fields))  # whole unit lines per string
    separators = (b" " + b"," * (fields - 2) + b"\n") * units
    step = BLOCK_BYTES * fields * units
    for i in range(0, len(data), step):
        text = bytearray(data[i:i + step].hex(" ", BLOCK_BYTES), "ascii")
        text[_FIELD - 1::_FIELD] = separators[:len(text) // _FIELD]
        yield text.decode("ascii")
