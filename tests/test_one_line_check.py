"""One check reads a unit line: ``array_sim._canonical_units``.

Once the block count is known, ``parse_job_lines`` reads the rest of the job
in one pass when it is canonical, and otherwise reads each unit line by the
same function, on the line's two whitespace-split fields joined by one space.
Only the line that sets the block count, or a line that check refuses, goes
field by field through ``block_from_hex``. These tests show that a unit line
spelled with any blanks, Unicode ones included, is read by the one check, and
that a canonical job the one-pass read refuses is read line by line by it.
"""

import io
import random
from unittest import mock

from spime import array_sim
from spime.array_sim import parse_job_lines

# Blanks that str.split() drops: no-break space, ideographic space, vertical tab, tab, spaces.
_BLANKS = ["\xa0", "\u3000", "\x0b", "\t", "   "]


def _units(num_units, blocks, seed):
    """(keys, inputs) of seeded random 16-byte blocks."""
    rng = random.Random(seed)
    keys = [rng.randbytes(16) for _ in range(num_units)]
    return keys, [[rng.randbytes(16) for _ in range(blocks)] for _ in keys]


def _registers(keys, inputs):
    return b"".join(keys), [b"".join(column) for column in zip(*inputs)]


def _canonical_line(key, blocks):
    return f"{key.hex()} {','.join(block.hex() for block in blocks)}"


def test_a_unicode_blank_line_is_read_by_the_one_check():
    keys, inputs = _units(7, 3, seed=30)
    lines = [_canonical_line(keys[0], inputs[0])]
    for u, (key, blocks) in enumerate(zip(keys[1:], inputs[1:])):
        # Each blank is used before, between and after the fields.
        lead, sep, trail = (_BLANKS[(u + i) % len(_BLANKS)] for i in range(3))
        lines.append(f"{lead}{key.hex().upper()}{sep}{','.join(b.hex() for b in blocks)}{trail}")
    text = "\n".join(lines) + "\n"

    with mock.patch.object(array_sim, "block_from_hex", wraps=array_sim.block_from_hex) as checked:
        job = parse_job_lines(io.StringIO(text))
    assert (job.key_register, job.input_registers) == _registers(keys, inputs)
    # Only line 1, which sets the block count, is checked field by field.
    assert checked.call_count == 1 + 3


def test_a_refused_rest_is_read_line_by_line_by_the_same_check():
    keys, inputs = _units(5, 2, seed=31)
    text = "".join(_canonical_line(key, blocks) + "\n" for key, blocks in zip(keys, inputs))
    canonical_units_of = array_sim._canonical_units
    read = []

    def canonical_units(*args):
        read.append(canonical_units_of(*args))
        return read[-1]

    with mock.patch.object(array_sim, "_canonical_units", canonical_units):
        job = parse_job_lines(io.StringIO(text + "# end\n"))
    assert (job.key_register, job.input_registers) == _registers(keys, inputs)
    # The rest after line 1 once (refused for the comment), then each unit line after the first.
    assert len(read) == 1 + 4
    assert read[0] is None and all(read[1:])
