"""Command-line front end: encrypt blocks, run cycle-accurate array jobs,
emit performance-sweep CSVs, and list the device catalog.

Each command returns its outputs, ``(where, lines)`` pairs: ``where`` is a path, None for stdout,
or a stream (``simulate``'s report, its last output). :func:`main` alone writes them, in order,
each flushed before the next: a path naming the file stdout or stderr holds through that stream,
other streams and devices in place, and each regular file to a new file beside it, renamed onto it
once every write has succeeded, so a failed run changes no regular file. It alone maps errors to
exit codes: 0 success, 2 ``ValueError`` (bad operand, job file, catalog or flag), 3 ``OSError``, 4
:class:`VerifyError`; any other exception is a bug and propagates. Without ``argv`` it is the
program and, after its ``error:`` line, sends stdout and stderr to the null device, so Python's
exit-time flush cannot fail. Only ``sweep`` and ``devices`` import :mod:`spime.perf`.

:func:`main` reads a plain command line by the one declaration of each command's arguments; help,
usage errors and any other spelling go to argparse, which only :func:`build_parser` imports.
"""

import contextlib
import errno
import os
import stat
import sys
from types import SimpleNamespace

from . import CATALOG_ENV_VAR
from .aes_core import CORE_CYCLES_PER_BLOCK
from .array_sim import (
    ConfigError,
    JobFormatError,
    SpimeConfig,
    SpimeJob,
    build_array,
    format_result_lines,
    parse_job_lines,
    undecodable_line,
)
from .controller import UNIT_CYCLES_PER_BLOCK
from .primitives import BLOCK_BITS, block_from_hex, reference_encrypt

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VERIFY = 4

# Flags of an explicit sweep grid. They default to None so that a --figure
# preset, which fixes its own grid, can refuse them.
GRID_FLAGS = ("num_pims", "fmax_mhz", "block_bits", "device", "cycles_per_task")


class VerifyError(Exception):
    """The array's ciphertext disagrees with the composition oracle."""


@contextlib.contextmanager
def _reading(what):
    """Name ``what`` in any read or parse error raised inside the block."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"cannot read {what}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _read_job(path, blocks_per_unit=None):
    """Parse a job read once as UTF-8, dropping one leading byte-order mark as utf-8-sig would."""
    with _reading(path), open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise JobFormatError(*undecodable_line(fh, exc)) from None
        return parse_job_lines(text.removeprefix("\ufeff"), blocks_per_unit)


def _load_catalog(path=None):
    from . import perf

    with _reading("device catalog"):
        return perf.load_device_catalog(path)


def _refuse_shared_files(paths) -> None:
    """Refuse, before any file is touched, two labels whose paths name one file: the same
    inode and device (so hard links match) or, for a missing file, the same resolved path."""
    seen = {}
    for label, path in paths.items():
        if path is not None:
            try:
                file = os.stat(path)[1:3]  # st_ino, st_dev
            except OSError:
                file = os.path.realpath(path)
            if (first := seen.setdefault(file, label)) != label:
                raise ValueError(f"{first} and {label} name the same file")


def _open_output(where, staged):
    """``where`` as a file context: None (stdout), a stream, or a path naming the file stdout or
    stderr holds is that stream. A path ending in no name or naming a non-regular file is opened in
    place, any other as a new file beside its target: ``staged[new] = target``."""
    if not isinstance(where, str):
        return contextlib.nullcontext(where or sys.stdout)
    try:
        st = os.stat(where)
    except FileNotFoundError:
        st = None
    for stream in (sys.stdout, sys.stderr) if st is not None else ():
        with contextlib.suppress(OSError, ValueError):  # a stream with no descriptor is skipped
            if os.path.samestat(st, os.fstat(stream.fileno())):
                return contextlib.nullcontext(stream)
    if os.path.basename(where) in ("", ".", "..") or st and not stat.S_ISREG(st.st_mode):
        return open(where, "w", newline="")
    if st is not None and not os.access(where, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), where)
    target, n = os.path.realpath(where), 0
    # 32 characters of the name keep it short; the count steps past a killed run's file.
    head = os.path.join(os.path.dirname(target), f".{os.path.basename(target)[:32]}.{os.getpid()}")
    while os.path.lexists(new := f"{head}.{n}.tmp"):
        n += 1
    try:
        fd = os.open(new, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = where  # name the user's path, never the new file's
        raise
    staged[new] = target
    if st is not None:
        os.fchmod(fd, stat.S_IMODE(st.st_mode))
    return open(fd, "w", newline="")


def _write_lines(fh, lines) -> None:
    fh.writelines(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# encrypt
# ---------------------------------------------------------------------------

def cmd_encrypt(args) -> list:
    _refuse_shared_files({"--input": args.input, "--output": args.output})
    if args.input is not None:
        if args.key or args.plaintext:
            raise ValueError("give either KEY PLAINTEXT or --input, not both")
        job = _read_job(args.input, blocks_per_unit=1)
    elif args.key and args.plaintext:
        job = SpimeJob(keys=[block_from_hex(args.key)], inputs=[[block_from_hex(args.plaintext)]])
    else:
        raise ValueError("KEY and PLAINTEXT hex operands (or --input FILE) are required")

    ciphertexts = build_array(SpimeConfig(num_pims=job.num_units)).run_job(job).outputs
    if args.verify:
        for key, (plaintext,), (ciphertext,) in zip(job.keys, job.inputs, ciphertexts):
            if ciphertext != reference_encrypt(key, plaintext):
                raise VerifyError(f"{plaintext.hex()}: FSM ciphertext disagrees with the "
                                  "composition oracle")
    return [(args.output, (ciphertext.hex() for (ciphertext,) in ciphertexts))]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> list:
    _refuse_shared_files({"--job": args.job, "--output": args.output, "--trace": args.trace})
    job = _read_job(args.job)
    if args.num_pims not in (None, job.num_units):
        raise ConfigError(f"--num-pims {args.num_pims} but the job holds {job.num_units} units")
    cfg = SpimeConfig(
        num_pims=job.num_units,
        per_pim_block_bits=job.blocks_per_unit * BLOCK_BITS,
        trace_enabled=args.trace is not None,
    )
    array = build_array(cfg)
    result = array.run_job(job)

    outputs = [(args.output, format_result_lines(job, result))]
    if args.trace is not None:
        outputs.append((args.trace, array.iter_trace_lines()))
    outputs.append((sys.stderr if args.output is None else None, [
        f"num_pims={cfg.num_pims} blocks_per_unit={cfg.blocks_per_unit} total_cycles="
        f"{result.total_cycles} per_block_cycles={result.total_cycles // cfg.blocks_per_unit}"]))
    return outputs


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> list:
    from . import perf

    path = perf.catalog_path()
    label = "the built-in device catalog" if path == perf.BUILTIN_CATALOG else CATALOG_ENV_VAR
    _refuse_shared_files({label: path, "--output": args.output})
    grid = {name: getattr(args, name) for name in GRID_FLAGS}
    if args.figure is not None:
        given = [f"--{name.replace('_', '-')}" for name, value in grid.items() if value is not None]
        if given:
            raise ValueError(f"--figure fixes its own grid; drop {', '.join(given)}")
        pairs, interpretation = perf.figure_grid(args.figure, _load_catalog(path))
    else:
        pairs, interpretation = perf.sweep_grid(_load_catalog(path), **grid), perf.AGGREGATE
    if args.per_unit:
        interpretation = perf.PER_UNIT

    return [(args.output, perf.iter_sweep_csv_lines(pairs, interpretation))]


# ---------------------------------------------------------------------------
# devices
# ---------------------------------------------------------------------------

def cmd_devices(_args) -> list:
    catalog = _load_catalog()
    header = (f"{'Device':<8} {'Part':<22} {'LUTs':>6} {'FFs':>6} {'BRAM':>5} {'URAM':>5} "
              f"{'DSPs':>5} {'Family':<10}")
    rows = (f"{spec.name:<8} {spec.part:<22} {spec.luts // 1000:>5}K {spec.ffs // 1000:>5}K "
            f"{spec.bram:>5} {spec.uram:>5} {spec.dsps:>5} {spec.family}"
            for spec in catalog.values())
    return [(None, [header.rstrip(), "-" * len(header), *rows])]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _commands():
    """Each command as ``(name, help, func, ((flag, add_argument keywords), ...))``, for
    :func:`build_parser` and :func:`_plain_args`; built per call, so ``func`` is the current one."""
    return (
        ("encrypt", "encrypt 128-bit blocks through the lockstep array", cmd_encrypt, (
            ("key", dict(nargs="?", help="128-bit key as 32 hex chars")),
            ("plaintext", dict(nargs="?", help="128-bit plaintext as 32 hex chars")),
            ("--input", dict(help="file of '<key-hex> <plaintext-hex>' lines")),
            ("--output", dict(help="write ciphertext hex lines to this file")),
            ("--verify", dict(action="store_true", help="cross-check the array's result "
                              "against the composition oracle")),
        )),
        ("simulate", "run a job file through the lockstep array", cmd_simulate, (
            ("--job", dict(required=True, help="job file: '<key-hex> <block>[,<block>...]'")),
            ("--num-pims", dict(type=int, help="expected unit count (defaults to job size)")),
            ("--output", dict(help="write the result file here instead of stdout")),
            ("--trace", dict(help="write the per-cycle trace CSV here")),
        )),
        ("sweep", "emit performance-model CSV over a parameter grid", cmd_sweep, (
            ("--figure", dict(type=int, choices=[3, 4, 5, 6, 7],
                              help="emit a published figure's exact data grid (no grid flags)")),
            ("--num-pims", dict(type=int, nargs="+")),
            ("--fmax-mhz", dict(type=float, nargs="+")),
            ("--block-bits", dict(type=int, nargs="+")),
            ("--device", dict(nargs="+", help="device names (default: whole catalog)")),
            ("--cycles-per-task", dict(type=int, help=f"analytical cycles per block "
                                       f"({CORE_CYCLES_PER_BLOCK}; use {UNIT_CYCLES_PER_BLOCK} "
                                       "for the measured handshake-inclusive constant)")),
            ("--per-unit", dict(action="store_true",
                                help="report per-unit throughput instead of aggregate")),
            ("--output", dict(help="write the CSV here instead of stdout")),
        )),
        ("devices", "list the FPGA device catalog", cmd_devices, ()),
    )


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="spime",
        description="Cycle-accurate simulator and performance model of a "
        "parallel AES-128 processing-in-memory array.",
        epilog=f"Set {CATALOG_ENV_VAR} to override the device catalog CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, arguments in _commands():
        command = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            command.add_argument(flag, **keywords)
        command.set_defaults(func=func)
    return parser


def _plain_args(argv):
    """``build_parser().parse_args(argv)`` for a command name, then only its long options, each once
    and in full with one value (``nargs="+"``: one or more; a flag: none), none starting with
    ``-``, all passing ``type`` and ``choices``; None for anything else, for argparse to read."""
    for name, _, func, arguments in _commands():
        if argv[:1] == [name]:
            break
    else:
        return None
    values, current = {}, None  # each option's values: the tokens up to the next "-" token
    for token in argv[1:]:
        if token.startswith("-"):
            if token in values:
                return None
            current = values[token] = []
        elif current is None:
            return None  # an operand
        else:
            current.append(token)
    args = {"command": name, "func": func}
    for flag, keywords in arguments:
        given = values.pop(flag, None)  # None for an operand: its name has no "-"
        nargs, choices = keywords.get("nargs"), keywords.get("choices", ())
        if keywords.get("action") == "store_true":
            if given:
                return None
            given = given is not None
        elif given is None:
            if keywords.get("required"):
                return None
        elif not given or len(given) > 1 and nargs != "+":
            return None
        else:
            try:
                given = [keywords.get("type", str)(value) for value in given]
            except ValueError:
                return None
            if choices and any(value not in choices for value in given):
                return None
            given = given if nargs == "+" else given[0]
        args[flag.lstrip("-").replace("-", "_")] = given
    return None if values else SimpleNamespace(**args)  # an option left over is not declared


def main(argv=None) -> int:
    args = _plain_args(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
    staged = {}
    try:
        outputs = args.func(args)
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(_open_output(where, staged)) for where, _ in outputs]
            for fh, (_, lines) in zip(files, outputs):
                _write_lines(fh, lines)
                fh.flush()  # a write that fails must fail before the next output goes out
        for new, target in staged.items():
            os.replace(new, target)
    except (VerifyError, ValueError, OSError) as exc:
        with contextlib.suppress(OSError):  # stderr refuses writes too: the exit code alone tells
            print(f"error: {exc}", file=sys.stderr, flush=True)
        if argv is None:  # unwritten bytes stay buffered, and Python flushes them at exit
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 1)
            os.dup2(null, 2)
            os.close(null)
        return (EXIT_VERIFY if isinstance(exc, VerifyError)
                else EXIT_USAGE if isinstance(exc, ValueError) else EXIT_IO)
    finally:  # a staged file still there was never renamed: the run failed or was interrupted
        for new in filter(os.path.lexists, staged):
            os.remove(new)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
