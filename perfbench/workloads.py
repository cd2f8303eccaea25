"""Seeded inputs for the four workloads and the checks on their outputs.

Every input comes from ``random.Random(f"{workload}:{seed}")``, so one seed
always gives the same job file or sweep grid. The program only ever sees
the generated file or argument list.

The checks do not trust spime's own arithmetic:

* ciphertexts are recomputed with the ``cryptography`` package's
  AES-128-ECB, the oracle the test suite uses;
* the report line must show 15 global cycles per block;
* the trace CSV must hash to the digest pinned for its array shape;
* each sweep row is recomputed from the paper equations (latency =
  cycles / fmax, the aggregate throughput reading, utilization linear in
  unit count from the 4096-unit anchors);
* the five figure presets must hash to the published golden CSVs.
"""

import csv
import hashlib
import io
import os
import random
from dataclasses import dataclass

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

UNIT_CYCLES_PER_BLOCK = 15
CORE_CYCLES_PER_BLOCK = 11
ANCHOR_NUM_PIMS = 4096
# (lut_pct, ff_pct) at 4096 units, per device, from the paper's two anchors.
DEVICE_ANCHORS = {
    "U55C": (3.65, 2.0),
    "U280": (3.65, 2.0),
    "VCU118": (3.65, 2.0),
    "ZCU104": (18.44, 10.0),
    "ZCU106": (18.44, 10.0),
}
SWEEP_HEADER = ["device", "num_pims", "fmax_mhz", "block_bits",
                "latency_us", "throughput_gbps", "lut_util_pct", "ff_util_pct"]
# Values are rounded to 4 decimals, so a correct cell is within half a unit
# of the last place of the exact value.
SWEEP_TOLERANCE = 0.5e-4 * (1 + 1e-9) + 1e-12

# sha256 of the trace CSV per (units, blocks per unit). The trace holds only
# control signals, so it does not depend on keys or data; digests were taken
# from the simulator at the commit that added this benchmark.
TRACE_SHA256 = {
    (1024, 4): "ca360e04c59dade347e6b8dfc3f89bdced7b2d0b84290f3be1c82ecf3cbdf5df",
    (4, 2): "a70bcfadd007603e2a45018ab19e09cc5ceef0e8078e2bfc9ff28a5d7f71d458",
}
# sha256 of the published figure CSVs (tests/data/figure{3..7}.csv).
FIGURE_SHA256 = {
    3: "bb8d49d179d9bfbc27b49df1618029effb6058019060e0ef737bc84aff99388d",
    4: "bb8d49d179d9bfbc27b49df1618029effb6058019060e0ef737bc84aff99388d",
    5: "6b2f4cc33c36277777185553de168dcf32f423c7c19ddaaef501a40d130142a8",
    6: "0f199406cb918e14c7289a643c33604bc3f127fd6911b7cfb384e725f2271885",
    7: "a3fc3bfc4d566d27a1f29645786503d34fabd3c3303064ea543e67bad4fe97b2",
}


@dataclass(frozen=True)
class Shape:
    """Input size of one workload."""

    kind: str  # "simulate" or "sweep"
    units: int = 0
    blocks: int = 0
    shared_key: bool = False
    trace: bool = False
    grid: tuple = ()  # sweep: (num_pims values, fmax values, block_bits values)


# Each workload loads a different layer; BENCHMARK.json gives the reasons.
SHAPES = {
    # Array width: 4096 PimUnits and 4096 key expansions for only 15 cycles.
    "wide": Shape("simulate", units=4096, blocks=1),
    # Run length: 960 cycles of the tick loop over few units.
    "deep": Shape("simulate", units=64, blocks=64),
    # Output side: 61,440 trace rows; the only workload where units share a key.
    "traced": Shape("simulate", units=1024, blocks=4, shared_key=True, trace=True),
    # The perf model: 5 devices x 40 unit counts x 25 clocks x 20 block sizes.
    "sweep": Shape("sweep", grid=(40, 25, 20)),
}

# Tiny sizes for the self-test: every workload and check in seconds.
SMOKE_SHAPES = {
    "wide": Shape("simulate", units=8, blocks=1),
    "deep": Shape("simulate", units=2, blocks=4),
    "traced": Shape("simulate", units=4, blocks=2, shared_key=True, trace=True),
    "sweep": Shape("sweep", grid=(2, 2, 2)),
}


def aes128_ecb(key, data):
    """AES-128-ECB through the cryptography package."""
    encryptor = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return encryptor.update(data) + encryptor.finalize()


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Workload:
    """Generated inputs of one workload plus what its outputs must be."""

    def __init__(self, name, shape, seed, workdir):
        self.name = name
        self.shape = shape
        self.workdir = workdir
        rng = random.Random(f"{name}:{seed}")
        if shape.kind == "simulate":
            self._make_job(rng)
        else:
            self._make_grid(rng)

    # -- inputs ------------------------------------------------------------

    def _make_job(self, rng):
        shape = self.shape
        shared = rng.randbytes(16)
        keys = [shared if shape.shared_key else rng.randbytes(16) for _ in range(shape.units)]
        inputs = [[rng.randbytes(16) for _ in range(shape.blocks)] for _ in range(shape.units)]
        self.job_path = os.path.join(self.workdir, f"{self.name}.job")
        with open(self.job_path, "w") as fh:
            for key, blocks in zip(keys, inputs):
                fh.write(f"{key.hex()} {','.join(b.hex() for b in blocks)}\n")
        lines = []
        for key, blocks in zip(keys, inputs):
            out = aes128_ecb(key, b"".join(blocks))
            cts = ",".join(out[i:i + 16].hex() for i in range(0, len(out), 16))
            lines.append(f"{key.hex()} {cts}")
        self.expected_result = ("\n".join(lines) + "\n").encode()
        self.items = shape.units * shape.blocks
        self.distinct_key_share = len(set(keys)) / shape.units
        self.trace_sha256 = TRACE_SHA256.get((shape.units, shape.blocks)) if shape.trace else None

    def _make_grid(self, rng):
        n_pims, n_fmax, n_bits = self.shape.grid
        self.devices = list(DEVICE_ANCHORS)
        self.num_pims = [rng.randint(1, 4096) for _ in range(n_pims)]
        self.fmax = [rng.randint(5000, 80000) / 100 for _ in range(n_fmax)]
        self.block_bits = [128 * rng.randint(1, 512) for _ in range(n_bits)]
        self.items = len(self.devices) * n_pims * n_fmax * n_bits
        self.verified_sha256 = None

    def describe(self):
        """The input properties recorded for this run."""
        if self.shape.kind == "simulate":
            return {"units": self.shape.units, "blocks_per_unit": self.shape.blocks,
                    "distinct_key_share": self.distinct_key_share, "trace": self.shape.trace,
                    "blocks": self.items}
        return {"devices": len(self.devices), "num_pims": len(self.num_pims),
                "fmax_mhz": len(self.fmax), "block_bits": len(self.block_bits),
                "rows": self.items}

    # -- commands ----------------------------------------------------------

    def output_paths(self, tag):
        base = os.path.join(self.workdir, f"{self.name}-{tag}")
        return {"output": base + ".out", "trace": base + ".csv"}

    def argv(self, tag):
        paths = self.output_paths(tag)
        if self.shape.kind == "simulate":
            argv = ["simulate", "--job", self.job_path, "--output", paths["output"]]
            if self.shape.trace:
                argv += ["--trace", paths["trace"]]
            return argv
        return (["sweep", "--device", *self.devices,
                 "--num-pims", *map(str, self.num_pims),
                 "--fmax-mhz", *map(repr, self.fmax),
                 "--block-bits", *map(str, self.block_bits),
                 "--output", paths["output"]])

    def preset_argvs(self, tag):
        """The five figure presets (sweep workload only)."""
        if self.shape.kind != "sweep":
            return []
        return [["sweep", "--figure", str(k), "--output",
                 os.path.join(self.workdir, f"figure{k}-{tag}.csv")] for k in FIGURE_SHA256]

    # -- checks ------------------------------------------------------------

    def check(self, tag, stdout):
        """Return a list of problems with the outputs of command ``tag``."""
        paths = self.output_paths(tag)
        try:
            if self.shape.kind == "simulate":
                return self._check_simulate(paths, stdout)
            return self._check_sweep(paths["output"])
        except OSError as exc:
            return [f"cannot read output: {exc}"]

    def trace_rows(self, tag):
        """Data rows in the trace CSV of command ``tag`` (0 without a trace)."""
        path = self.output_paths(tag)["trace"]
        if not (self.shape.trace and os.path.exists(path)):
            return 0
        with open(path, "rb") as fh:
            return max(0, sum(1 for _ in fh) - 1)

    def _check_simulate(self, paths, stdout):
        problems = []
        with open(paths["output"], "rb") as fh:
            if fh.read() != self.expected_result:
                problems.append("ciphertexts differ from the AES-128 oracle")
        fields = dict(tok.split("=", 1) for tok in stdout.split() if "=" in tok)
        want = {"num_pims": self.shape.units, "blocks_per_unit": self.shape.blocks,
                "total_cycles": UNIT_CYCLES_PER_BLOCK * self.shape.blocks,
                "per_block_cycles": UNIT_CYCLES_PER_BLOCK}
        for key, value in want.items():
            if fields.get(key) != str(value):
                problems.append(f"report line shows {key}={fields.get(key)}, expected {value}")
        if self.shape.trace:
            digest = sha256_file(paths["trace"])
            if digest != self.trace_sha256:
                problems.append("trace CSV differs from the pinned digest")
        return problems

    def _check_sweep(self, path):
        digest = sha256_file(path)
        if digest == self.verified_sha256:
            return []
        with open(path, newline="") as fh:
            problems = check_sweep_rows(fh.read(), self)
        if not problems:
            self.verified_sha256 = digest
        return problems

    def check_preset(self, figure, tag):
        path = os.path.join(self.workdir, f"figure{figure}-{tag}.csv")
        try:
            if sha256_file(path) != FIGURE_SHA256[figure]:
                return [f"figure {figure} preset differs from the published CSV"]
        except OSError as exc:
            return [f"cannot read figure {figure} preset: {exc}"]
        return []


def expected_sweep_row(device, num_pims, fmax, bits):
    """One sweep row recomputed from the paper equations (unrounded)."""
    lut_pct, ff_pct = DEVICE_ANCHORS[device]
    latency = CORE_CYCLES_PER_BLOCK / fmax
    # Aggregate reading: num_pims * bits over (bits / 128) sequential tasks.
    throughput = num_pims * 128 * fmax / CORE_CYCLES_PER_BLOCK / 1e6
    return (latency, throughput,
            lut_pct * num_pims / ANCHOR_NUM_PIMS, ff_pct * num_pims / ANCHOR_NUM_PIMS)


def check_sweep_rows(text, grid):
    """Compare a sweep CSV against the recomputed grid; list the problems."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_HEADER:
        return ["sweep CSV header is wrong"]
    expected = [(d, n, f, b) for d in grid.devices for n in grid.num_pims
                for f in grid.fmax for b in grid.block_bits]
    if len(rows) - 1 != len(expected):
        return [f"sweep CSV has {len(rows) - 1} rows, expected {len(expected)}"]
    problems = []
    for lineno, (row, (device, n, f, b)) in enumerate(zip(rows[1:], expected), start=2):
        try:
            ok = (len(row) == 8 and row[0] == device and int(row[1]) == n
                  and float(row[2]) == f and int(row[3]) == b
                  and all(abs(float(cell) - want) <= SWEEP_TOLERANCE
                          for cell, want in zip(row[4:], expected_sweep_row(device, n, f, b))))
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"sweep CSV line {lineno} is wrong: {','.join(row)}")
            if len(problems) >= 5:
                break
    return problems
