"""Analytical latency, throughput, and FPGA-utilization model.

The model is deliberately simple: one encryption is a fixed 11-cycle
task, latency is cycles over clock frequency, throughput divides bits
encrypted by latency, and LUT/FF usage grows linearly with the number
of units.

Two throughput readings are provided because the headline formula
(bits / latency_us / 1e6) is ambiguous about what "bits" and which
latency it means:

  * ``aggregate`` (default): bits of one whole parallel batch
    (num_pims x block_bits) over the per-unit batch latency. This is the
    reading that yields ~23.8 at (4096 units, 1024-bit blocks, 500 MHz).
  * ``per-unit``: one unit's block_bits over the single-task latency,
    the formula applied verbatim; it grows with block size.

Utilization is calibrated from two measured operating points at 4096
units and extrapolated linearly: 3.65% LUT / <2% FF on datacenter parts
and 18.44% LUT / ~10% FF on embedded parts, which are the parts with
fewer than 1,000,000 LUTs, whatever their name. FF anchors are upper
bounds, so FF percentages are approximate.

The model is separable, and a sweep is evaluated per axis: latency depends
only on the clock (and the cycle count), utilization only on the device and
the unit count, and throughput on everything but the device. So
:func:`sweep_csv_lines` takes latency once per clock and utilization once
per (device, unit count), each from :func:`evaluate` at one point of the
grid, and computes throughput once per (unit count, clock, block size),
shared by every device, and prints it once per distinct value; each
(device, unit count)'s rows are one string, joined only when it is read,
after every point is checked.
Each rounded value is printed by one fixed-point conversion (``"%.4f"`` with
its trailing zeros stripped, below 1e11), with the same bytes as
``repr(round(x, 4))``, which the flat path's csv.writer writes.
:func:`evaluate` is the one owner of the model's refusal rules: every point
the renderer asks it about is a row of the grid, and a refusal is raised
again by the flat path, with the same message and query index.
"""

import io
import itertools
import math
import os

from . import CATALOG_ENV_VAR
from .aes_core import CORE_CYCLES_PER_BLOCK
from .array_sim import undecodable_line
from .primitives import BLOCK_BITS

AGGREGATE = "aggregate"
PER_UNIT = "per-unit"

DEFAULT_CYCLES_PER_TASK = CORE_CYCLES_PER_BLOCK

ANCHOR_NUM_PIMS = 4096
# (lut_pct, ff_pct) measured at ANCHOR_NUM_PIMS units, per device family.
FAMILY_ANCHORS = {"datacenter": (3.65, 2.0), "embedded": (18.44, 10.0)}
_EMBEDDED_LUT_LIMIT = 1_000_000

BUILTIN_CATALOG = os.path.join(os.path.dirname(__file__), "data", "devices.csv")
CATALOG_COLUMNS = ("name", "part", "luts", "ffs", "bram", "uram", "dsps")

CSV_HEADER = [
    "device", "num_pims", "fmax_mhz", "block_bits",
    "latency_us", "throughput_gbps", "lut_util_pct", "ff_util_pct",
]

PUBLISHED_NUM_PIMS = [256, 512, 1024, 2048, 4096]
PUBLISHED_FMAX_MHZ = [100.0, 300.0, 500.0]
PUBLISHED_BLOCK_BITS = [1024, 4096, 16384, 65536]


class SweepError(ValueError):
    """A sweep query failed; carries the 0-based query index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"query {index}: {message}")
        self.index = index


class _Record:
    """Equality and repr over ``__slots__``, as a dataclass has over its fields."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class DeviceSpec(_Record):
    """One FPGA part: absolute resource counts, its family and calibrated per-unit costs."""

    __slots__ = ("name", "part", "luts", "ffs", "bram", "uram", "dsps", "family",
                 "per_pim_lut_cost", "per_pim_ff_cost")

    def __init__(self, name: str, part: str, luts: int, ffs: int, bram: int, uram: int,
                 dsps: int):
        self.name, self.part = name, part
        self.luts, self.ffs, self.bram, self.uram, self.dsps = luts, ffs, bram, uram, dsps
        for label in ("luts", "ffs", "bram", "uram", "dsps"):
            if getattr(self, label) <= 0:
                raise ValueError(f"{name}: {label} must be positive")
        self.family = "embedded" if luts < _EMBEDDED_LUT_LIMIT else "datacenter"
        lut_pct, ff_pct = FAMILY_ANCHORS[self.family]
        self.per_pim_lut_cost = luts * lut_pct / 100.0 / ANCHOR_NUM_PIMS
        self.per_pim_ff_cost = ffs * ff_pct / 100.0 / ANCHOR_NUM_PIMS
        if not (math.isfinite(self.per_pim_lut_cost) and math.isfinite(self.per_pim_ff_cost)):
            raise OverflowError(f"{name}: per-unit cost is not finite")


class PerfQuery(_Record):
    """One operating point of the analytical model."""

    __slots__ = ("num_pims", "fmax_mhz", "block_bits", "cycles_per_task")

    def __init__(self, num_pims: int, fmax_mhz: float, block_bits: int = 1024,
                 cycles_per_task: int = DEFAULT_CYCLES_PER_TASK):
        if num_pims < 1:
            raise ValueError(f"num_pims must be positive, got {num_pims}")
        if not 0 < fmax_mhz < math.inf:
            raise ValueError(f"fmax_mhz must be positive and finite, got {fmax_mhz}")
        if block_bits < 1 or block_bits % BLOCK_BITS:
            raise ValueError(
                f"block_bits must be a positive multiple of {BLOCK_BITS}, got {block_bits}"
            )
        if cycles_per_task < 1:
            raise ValueError(f"cycles_per_task must be positive, got {cycles_per_task}")
        self.num_pims, self.fmax_mhz = num_pims, fmax_mhz
        self.block_bits, self.cycles_per_task = block_bits, cycles_per_task


class PerfResult(_Record):
    __slots__ = ("latency_us", "throughput_gbps", "lut_util_pct", "ff_util_pct")

    def __init__(self, latency_us: float, throughput_gbps: float, lut_util_pct: float,
                 ff_util_pct: float):
        self.latency_us, self.throughput_gbps = latency_us, throughput_gbps
        self.lut_util_pct, self.ff_util_pct = lut_util_pct, ff_util_pct


def latency_us(cycles: int, fmax_mhz: float) -> float:
    """Single-task latency in microseconds: cycles / fmax[MHz]."""
    if not 0 < fmax_mhz < math.inf:
        raise ValueError(f"fmax_mhz must be positive and finite, got {fmax_mhz}")
    if cycles < 1:
        raise ValueError(f"cycles must be positive, got {cycles}")
    return cycles / fmax_mhz


def throughput_gbps(total_bits: float, lat_us: float) -> float:
    """Headline throughput figure: (bits / latency_us) / 1e6.

    Dimensionally this is Mbit/s / 1e6, not SI Gbps; kept verbatim so the
    published operating points reproduce exactly.
    """
    if lat_us <= 0:
        raise ValueError(f"latency must be positive, got {lat_us}")
    if total_bits <= 0:
        raise ValueError(f"total_bits must be positive, got {total_bits}")
    return (total_bits / lat_us) / 1e6


def utilization_pct(device: DeviceSpec, num_pims: int, resource: str) -> float:
    """Linear resource estimate: num_pims * per-unit cost / capacity * 100."""
    if num_pims < 1:
        raise ValueError(f"num_pims must be positive, got {num_pims}")
    kind = resource.upper()
    if kind == "LUT":
        return num_pims * device.per_pim_lut_cost / device.luts * 100.0
    if kind == "FF":
        return num_pims * device.per_pim_ff_cost / device.ffs * 100.0
    raise ValueError(f"unknown resource {resource!r}, expected LUT or FF")


def _throughput(interpretation: str, num_pims: int, block_bits: int, lat: float) -> float:
    """Headline throughput of one point under ``interpretation``, from its latency.

    The float operations of :func:`throughput_gbps`, in its order, without its checks,
    which a :class:`PerfQuery`'s positive operands always pass; never ``-0.0``.
    """
    if interpretation == AGGREGATE:
        return num_pims * block_bits / ((block_bits / BLOCK_BITS) * lat) / 1e6
    if interpretation == PER_UNIT:
        return block_bits / lat / 1e6
    raise ValueError(f"unknown interpretation {interpretation!r}")


def evaluate(query: PerfQuery, device: DeviceSpec, interpretation: str = AGGREGATE) -> PerfResult:
    """Evaluate one operating point into latency/throughput/utilization.

    Raises ValueError when a field overflows a float or is not finite.
    """
    try:
        lat = latency_us(query.cycles_per_task, query.fmax_mhz)
        thr = _throughput(interpretation, query.num_pims, query.block_bits, lat)
        lut = utilization_pct(device, query.num_pims, "LUT")
        ff = utilization_pct(device, query.num_pims, "FF")
    except OverflowError as exc:
        raise ValueError(f"operating point too large for the model: {exc}") from None
    result = PerfResult(lat, thr, lut, ff)
    if not (math.isfinite(lat) and math.isfinite(thr) and math.isfinite(lut) and math.isfinite(ff)):
        raise ValueError(f"operating point outside the model's range: {result}")
    return result


def iter_sweep(pairs, interpretation: str = AGGREGATE):
    """Yield (query, device, result) for each pair in order; errors carry the index."""
    for index, (query, device) in enumerate(pairs):
        try:
            result = evaluate(query, device, interpretation)
        except ValueError as exc:
            raise SweepError(index, str(exc)) from exc
        yield query, device, result


def sweep(pairs, interpretation: str = AGGREGATE) -> list:
    """Evaluate (PerfQuery, DeviceSpec) pairs in order; errors carry the index."""
    return [result for _query, _device, result in iter_sweep(pairs, interpretation)]


def sweep_csv_rows(pairs, interpretation: str = AGGREGATE) -> list:
    """Sweep and render rows matching CSV_HEADER (floats at 4 decimals)."""
    return [
        [device.name, query.num_pims, query.fmax_mhz, query.block_bits,
         round(res.latency_us, 4), round(res.throughput_gbps, 4),
         round(res.lut_util_pct, 4), round(res.ff_util_pct, 4)]
        for query, device, res in iter_sweep(pairs, interpretation)
    ]


def _csv_field(text: str) -> str:
    """``text`` as a csv.writer row holds it: quoted only when it must be."""
    import csv

    buf = io.StringIO()
    # A second field keeps csv.writer from quoting an empty name as a lone field.
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _decimal4(x: float) -> str:
    """``repr(round(x, 4))``, by one fixed-point conversion where that gives the same text.

    ``"%.4f"`` and ``round`` pick the same correctly rounded decimal, which below 1e11
    has at most 15 significant digits and so is the shortest text of the rounded float:
    its ``repr``, once trailing zeros are gone (``"0.0"`` or ``"-0.0"`` when it rounds
    to zero). Larger values, nan and the infinities take ``repr(round(x, 4))`` itself.
    """
    if -1e11 < x < 1e11:
        text = ("%.4f" % x).rstrip("0")
        return text + "0" if text[-1] == "." else text
    return repr(round(x, 4))


def _grid_lines(grid: "SweepGrid", interpretation: str):
    """An iterator over the strings of :func:`sweep_csv_lines`, each joined when it is read.

    Every check and cell text comes first. Each distinct throughput is checked and printed
    once: equal floats print the same, as :func:`_throughput` never gives ``-0.0``, and no
    value that is not finite is kept.
    """
    rows = [(",".join(CSV_HEADER), "", ())]  # (head, tail, cells); the header has no cells
    cycles = grid.cycles_per_task
    texts = {}  # throughput -> its cell text
    for devices, num_pims, fmax_mhz, block_bits in grid.parts:
        if not (devices and num_pims and fmax_mhz and block_bits):
            continue
        # Every axis value is read from evaluate at a grid point through the
        # part's first point, so evaluate alone decides which points it refuses.
        d0, n0, f0, b0 = devices[0], num_pims[0], fmax_mhz[0], block_bits[0]
        for b in block_bits:
            evaluate(PerfQuery(n0, f0, b, cycles), d0, interpretation)
        clock_cells = []  # (",fmax,bits,latency,", bits, latency) per (clock, block size)
        for f in fmax_mhz:
            lat = evaluate(PerfQuery(n0, f, b0, cycles), d0, interpretation).latency_us
            lat_text = _decimal4(lat)
            clock_cells.extend((f",{f},{b},{lat_text},", b, lat) for b in block_bits)
        # Throughput reads no device: ",fmax,bits,latency,throughput" per unit count,
        # one text per (clock, block size), shared by every device's rows.
        unit_cells = []
        for n in num_pims:
            cells = []
            for cell, b, lat in clock_cells:
                thr = _throughput(interpretation, n, b, lat)
                text = texts.get(thr)
                if text is None:
                    if not math.isfinite(thr):
                        raise ValueError(f"throughput {thr} is outside the model's range")
                    text = texts[thr] = _decimal4(thr)
                cells.append(cell + text)
            unit_cells.append(cells)
        for device in devices:
            name = _csv_field(device.name) + ","
            for n, cells in zip(num_pims, unit_cells):
                res = evaluate(PerfQuery(n, f0, b0, cycles), device, interpretation)
                head = f"{name}{n}"
                tail = f",{_decimal4(res.lut_util_pct)},{_decimal4(res.ff_util_pct)}"
                rows.append((head, tail, cells))
    return (head + (tail + "\n" + head).join(cells) + tail for head, tail, cells in rows)


def iter_sweep_csv_lines(grid: "SweepGrid", interpretation: str = AGGREGATE):
    """:func:`sweep_csv_lines` as an iterator, returned once every point is checked, so
    it holds the device-free cells, not the rows. When a point is refused, the grid is
    evaluated again through :func:`sweep`, which raises the one-point path's error."""
    try:
        return _grid_lines(grid, interpretation)
    except (ValueError, OverflowError):
        sweep(grid, interpretation)
        raise


def sweep_csv_lines(grid: "SweepGrid", interpretation: str = AGGREGATE) -> list:
    """The sweep CSV of a :class:`SweepGrid` as strings, the header first.

    Each string after the header holds one (device, unit count)'s rows joined
    by ``\\n``, with no final newline, so ``"".join(s + "\\n" for s in ...)`` is
    the CSV: the bytes csv.writer writes for CSV_HEADER and
    :func:`sweep_csv_rows`, evaluated per axis (see the module docstring).
    Each rounded value is printed by one fixed-point conversion, with the
    same bytes as ``repr(round(x, 4))``, and each distinct throughput once.
    A refused point raises the one-point path's error, as in
    :func:`iter_sweep_csv_lines`, whose strings this lists; ``spime sweep``
    writes that iterator itself.
    """
    return list(iter_sweep_csv_lines(grid, interpretation))


# ---------------------------------------------------------------------------
# Device catalog
# ---------------------------------------------------------------------------

def catalog_path() -> str:
    """The device catalog file: CATALOG_ENV_VAR if set, else the packaged table."""
    return os.environ.get(CATALOG_ENV_VAR, BUILTIN_CATALOG)


def load_device_catalog(path: str = None) -> dict:
    """Load the device catalog CSV at ``path``, by default :func:`catalog_path`.

    Returns an ordered name -> DeviceSpec map. Lines end only at ``\\n``, ``\\r\\n``
    or ``\\r``. Raises ValueError naming the file and CSV line for a malformed
    line, a missing column, a non-integer or non-positive count, a count too
    large for a float (or whose per-unit cost is not finite), a repeated
    device name or a byte that is not UTF-8 (the line of the first such
    byte, none for a pipe). One leading byte-order mark is dropped, as utf-8-sig would.
    """
    import csv

    if path is None:
        path = catalog_path()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(line.removeprefix("\ufeff") if n == 1 else line
                                for n, line in enumerate(fh, 1))
        try:
            rows = [(reader.line_num, row) for row in reader]
        except csv.Error as exc:
            raise ValueError(f"{path} line {reader.reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            line, what = undecodable_line(fh, exc)
            raise ValueError(f"{path}{'' if line is None else f' line {line}'}: {what}") from None
    catalog = {}
    for line_num, row in rows:
        where = f"{path} line {line_num}"
        missing = [c for c in CATALOG_COLUMNS if row.get(c) is None]
        if missing:
            raise ValueError(f"{where}: missing column(s) {', '.join(missing)}")
        counts = {}
        for column in CATALOG_COLUMNS[2:]:
            try:
                counts[column] = int(row[column])
            except ValueError:
                raise ValueError(
                    f"{where}: {column} must be an integer, got {row[column]!r}"
                ) from None
        if row["name"] in catalog:
            raise ValueError(f"{where}: duplicate device name {row['name']!r}")
        try:
            catalog[row["name"]] = DeviceSpec(name=row["name"], part=row["part"], **counts)
        except OverflowError:
            raise ValueError(f"{where}: resource counts too large for the model") from None
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return catalog


# ---------------------------------------------------------------------------
# Sweep grids and the published figure presets
# ---------------------------------------------------------------------------

class SweepGrid(_Record):
    """Sweep points as products of axes, all at one ``cycles_per_task``.

    Each part is a (devices, num_pims, fmax_mhz, block_bits) tuple of tuples.
    Iterating yields lazy (PerfQuery, DeviceSpec) pairs part by part, each
    part in device -> num_pims -> fmax -> block_bits order.
    """

    __slots__ = ("parts", "cycles_per_task")

    def __init__(self, parts: tuple, cycles_per_task: int = DEFAULT_CYCLES_PER_TASK):
        self.parts, self.cycles_per_task = parts, cycles_per_task

    def __iter__(self):
        cycles = self.cycles_per_task
        for devices, num_pims, fmax_mhz, block_bits in self.parts:
            for device, n, f, b in itertools.product(devices, num_pims, fmax_mhz, block_bits):
                yield PerfQuery(n, f, b, cycles), device


def sweep_grid(catalog: dict, device=None, num_pims=None, fmax_mhz=None, block_bits=None,
               cycles_per_task=None) -> SweepGrid:
    """A one-part :class:`SweepGrid` over the given axes.

    An omitted axis takes the published values (whole catalog, 1024-bit blocks).
    An empty catalog or an unknown device name is refused before any pair is built.
    """
    if not catalog:
        raise ValueError("device catalog is empty")
    names = device or list(catalog)
    unknown = [n for n in names if n not in catalog]
    if unknown:
        raise ValueError(f"unknown device(s): {', '.join(unknown)}")
    cycles = DEFAULT_CYCLES_PER_TASK if cycles_per_task is None else cycles_per_task
    part = (tuple(catalog[name] for name in names), tuple(num_pims or PUBLISHED_NUM_PIMS),
            tuple(fmax_mhz or PUBLISHED_FMAX_MHZ), tuple(block_bits or [1024]))
    return SweepGrid((part,), cycles)


def figure_grid(figure: int, catalog: dict):
    """Return (SweepGrid, interpretation) for one published figure's data grid.

    3: LUT utilization vs unit count, all devices.
    4: FF utilization vs unit count, all devices.
    5: latency vs clock frequency, all unit counts (latency is unit-count
       independent, which the grid makes visible).
    6: aggregate throughput vs unit count at 1024-bit blocks.
    7: per-unit throughput vs block size at 4096 units.
    Figures 5 and 6 list their rows clock by clock.
    """
    default = ["U55C"] if "U55C" in catalog else list(catalog)[:1]
    if figure in (3, 4):
        return sweep_grid(catalog, fmax_mhz=[100.0]), AGGREGATE
    if figure == 7:
        return sweep_grid(catalog, default, [4096], block_bits=PUBLISHED_BLOCK_BITS), PER_UNIT
    if figure == 5:
        clocks, units = [100.0, 200.0, 300.0, 400.0, 500.0], PUBLISHED_NUM_PIMS
    elif figure == 6:
        clocks, units = PUBLISHED_FMAX_MHZ, [1024, 2048, 3072, 4096]
    else:
        raise ValueError(f"unknown figure {figure}, expected 3-7")
    # Clock-major: one single-clock part after another, each checked here.
    grids = [sweep_grid(catalog, default, units, [f]) for f in clocks]
    return SweepGrid(tuple(part for grid in grids for part in grid.parts)), AGGREGATE
