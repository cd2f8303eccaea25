"""Command-line front end: encrypt blocks, run cycle-accurate array jobs,
emit performance-sweep CSVs, and list the device catalog.

Exit codes: 0 success, 2 usage/configuration error, 3 file I/O error,
4 verification mismatch.
"""

import argparse
import contextlib
import csv
import sys

from .aes_core import encrypt_block
from .array_sim import (
    TRACE_HEADER,
    ConfigError,
    JobFormatError,
    SpimeConfig,
    build_array,
    format_result_lines,
    parse_job_lines,
)
from .perf import (
    AGGREGATE,
    CATALOG_ENV_VAR,
    CSV_HEADER,
    PER_UNIT,
    PUBLISHED_FMAX_MHZ,
    PUBLISHED_NUM_PIMS,
    PerfQuery,
    SweepError,
    figure_grid,
    load_device_catalog,
    sweep_csv_rows,
)
from .primitives import block_from_hex, reference_encrypt

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VERIFY = 4


def _error(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


@contextlib.contextmanager
def _open_output(path):
    """Yield stdout when ``path`` is None, else ``path`` opened for writing."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _write_lines(path, lines) -> None:
    with _open_output(path) as fh:
        fh.writelines(line + "\n" for line in lines)


def _write_csv(path, header, rows) -> None:
    with _open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# encrypt
# ---------------------------------------------------------------------------

def cmd_encrypt(args) -> int:
    if args.input is not None and (args.key or args.plaintext):
        _error("give either KEY PLAINTEXT or --input, not both")
        return EXIT_USAGE

    if args.input is not None:
        try:
            with open(args.input) as fh:
                job = parse_job_lines(fh.read().splitlines(), blocks_per_unit=1)
        except OSError as exc:
            _error(f"cannot read {args.input}: {exc}")
            return EXIT_IO
        except JobFormatError as exc:
            _error(f"{args.input}: {exc}")
            return EXIT_USAGE
        operands = [(key, blocks[0]) for key, blocks in zip(job.keys, job.inputs)]
    elif args.key and args.plaintext:
        try:
            operands = [(block_from_hex(args.key), block_from_hex(args.plaintext))]
        except ValueError as exc:
            _error(str(exc))
            return EXIT_USAGE
    else:
        _error("KEY and PLAINTEXT hex operands (or --input FILE) are required")
        return EXIT_USAGE

    out_lines = []
    for key, plaintext in operands:
        ciphertext, _cycles = encrypt_block(key, plaintext)
        if args.verify and ciphertext != reference_encrypt(key, plaintext):
            _error(f"{plaintext.hex()}: FSM ciphertext disagrees with the composition oracle")
            return EXIT_VERIFY
        out_lines.append(ciphertext.hex())

    try:
        _write_lines(args.output, out_lines)
    except OSError as exc:
        _error(f"cannot write {args.output}: {exc}")
        return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    try:
        with open(args.job) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        _error(f"cannot read {args.job}: {exc}")
        return EXIT_IO

    try:
        job = parse_job_lines(lines)
    except JobFormatError as exc:
        _error(f"{args.job}: {exc}")
        return EXIT_USAGE

    num_pims = args.num_pims if args.num_pims is not None else len(job.keys)
    blocks_per_unit = len(job.inputs[0])
    try:
        cfg = SpimeConfig(
            num_pims=num_pims,
            per_pim_block_bits=blocks_per_unit * 128,
            trace_enabled=args.trace is not None,
        )
        array = build_array(cfg)
        result = array.run_job(job)
    except ConfigError as exc:
        _error(str(exc))
        return EXIT_USAGE

    report = (
        f"num_pims={cfg.num_pims} blocks_per_unit={cfg.blocks_per_unit} "
        f"total_cycles={result.total_cycles} "
        f"per_block_cycles={result.total_cycles // cfg.blocks_per_unit}"
    )
    try:
        if args.output is not None:
            _write_lines(args.output, format_result_lines(job, result))
            print(report)
        else:
            _write_lines(None, format_result_lines(job, result))
            print(report, file=sys.stderr)
        if args.trace is not None:
            _write_csv(args.trace, TRACE_HEADER, array.iter_trace_rows())
    except OSError as exc:
        _error(f"cannot write output: {exc}")
        return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _load_catalog():
    """Return (catalog, EXIT_OK), or (None, exit code) after reporting why not."""
    try:
        return load_device_catalog(), EXIT_OK
    except OSError as exc:
        _error(f"cannot read device catalog: {exc}")
        return None, EXIT_IO
    except ValueError as exc:
        _error(f"bad device catalog: {exc}")
        return None, EXIT_USAGE


def cmd_sweep(args) -> int:
    catalog, code = _load_catalog()
    if catalog is None:
        return code

    if args.figure is not None:
        try:
            pairs, interpretation = figure_grid(args.figure, catalog)
        except ValueError as exc:
            _error(str(exc))
            return EXIT_USAGE
        if args.per_unit:
            interpretation = PER_UNIT
    else:
        names = args.device if args.device else list(catalog)
        unknown = [n for n in names if n not in catalog]
        if unknown:
            _error(f"unknown device(s): {', '.join(unknown)}")
            return EXIT_USAGE
        try:
            pairs = [
                (
                    PerfQuery(
                        num_pims=n,
                        fmax_mhz=f,
                        block_bits=b,
                        cycles_per_task=args.cycles_per_task,
                    ),
                    catalog[name],
                )
                for name in names
                for n in args.num_pims
                for f in args.fmax_mhz
                for b in args.block_bits
            ]
        except ValueError as exc:
            _error(str(exc))
            return EXIT_USAGE
        interpretation = PER_UNIT if args.per_unit else AGGREGATE

    try:
        rows = sweep_csv_rows(pairs, interpretation)
    except SweepError as exc:
        _error(str(exc))
        return EXIT_USAGE
    try:
        _write_csv(args.output, CSV_HEADER, rows)
    except OSError as exc:
        _error(f"cannot write {args.output}: {exc}")
        return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# devices
# ---------------------------------------------------------------------------

def cmd_devices(_args) -> int:
    catalog, code = _load_catalog()
    if catalog is None:
        return code
    header = f"{'Device':<8} {'Part':<22} {'LUTs':>6} {'FFs':>6} {'BRAM':>5} {'URAM':>5} {'DSPs':>5}"
    print(header)
    print("-" * len(header))
    for spec in catalog.values():
        print(
            f"{spec.name:<8} {spec.part:<22} {spec.luts // 1000:>5}K {spec.ffs // 1000:>5}K "
            f"{spec.bram:>5} {spec.uram:>5} {spec.dsps:>5}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spime",
        description="Cycle-accurate simulator and performance model of a "
        "parallel AES-128 processing-in-memory array.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enc = sub.add_parser("encrypt", help="encrypt 128-bit blocks through the core FSM")
    p_enc.add_argument("key", nargs="?", help="128-bit key as 32 hex chars")
    p_enc.add_argument("plaintext", nargs="?", help="128-bit plaintext as 32 hex chars")
    p_enc.add_argument("--input", help="file of '<key-hex> <plaintext-hex>' lines")
    p_enc.add_argument("--output", help="write ciphertext hex lines to this file")
    p_enc.add_argument(
        "--verify",
        action="store_true",
        help="cross-check the FSM result against the composition oracle",
    )
    p_enc.set_defaults(func=cmd_encrypt)

    p_sim = sub.add_parser("simulate", help="run a job file through the lockstep array")
    p_sim.add_argument("--job", required=True, help="job file: '<key-hex> <block>[,<block>...]'")
    p_sim.add_argument("--num-pims", type=int, help="expected unit count (defaults to job size)")
    p_sim.add_argument("--output", help="write the result file here instead of stdout")
    p_sim.add_argument("--trace", help="write the per-cycle trace CSV here")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="emit performance-model CSV over a parameter grid")
    p_sweep.add_argument("--figure", type=int, choices=[3, 4, 5, 6, 7],
                         help="emit a published figure's exact data grid")
    p_sweep.add_argument("--num-pims", type=int, nargs="+", default=PUBLISHED_NUM_PIMS)
    p_sweep.add_argument("--fmax-mhz", type=float, nargs="+", default=[float(f) for f in PUBLISHED_FMAX_MHZ])
    p_sweep.add_argument("--block-bits", type=int, nargs="+", default=[1024])
    p_sweep.add_argument("--device", nargs="+", help="device names (default: whole catalog)")
    p_sweep.add_argument("--cycles-per-task", type=int, default=11,
                         help="analytical cycles per block (11; use 15 for the "
                         "measured handshake-inclusive constant)")
    p_sweep.add_argument("--per-unit", action="store_true",
                         help="report per-unit throughput instead of aggregate")
    p_sweep.add_argument("--output", help="write the CSV here instead of stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    p_dev = sub.add_parser("devices", help="list the FPGA device catalog")
    p_dev.set_defaults(func=cmd_devices)
    parser.epilog = f"Set {CATALOG_ENV_VAR} to override the device catalog CSV."
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
