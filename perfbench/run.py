"""Host-speed benchmark of the spime simulator and performance model.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Every number is host time or host memory: how fast the simulator itself
runs. The hardware throughput that ``spime.perf`` models is a paper output
and is checked, never measured.

Each workload turns ``--seed`` into a job file or sweep grid in a temporary
directory under ``.perfbench/`` and runs it through ``spime.cli.main``, one
command per fresh child interpreter (``child.py``), until ``--seconds``
have passed. Every command's output is checked (see ``workloads.py``); a
command that exits non-zero or fails a check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics, medians over the commands of
the run:

* ``items_per_s``: simulated AES blocks (N*B) per host second of the
  ``main`` call for ``wide``/``deep``/``traced``; sweep CSV rows per host
  second for ``sweep``;
* ``wall_s``: host seconds of one ``main`` call;
* ``peak_rss_mb``: peak resident memory of the child that ran the command;
* ``setup_s``: child spawn until ``spime.cli`` has been imported.

Host times are normalised: each is scaled by how much slower than nominal
a fixed reference loop ran in the same child at that moment (see
``end_to_end_metrics``). ``fail_ratio`` is ``failed / attempted`` in the
result line; it is logged but is not a metric, because it is 0 whenever
the program is correct.

``--trace 1`` alternates untraced commands with commands whose spime
functions are wrapped by ``tracer.py`` and reports the per-layer metrics:
counts from the first traced command, times as normalised medians, and
``trace_overhead_ratio`` (traced over untraced wall time). The spans of the
traced commands are written to ``.perfbench/spans/`` when the run ends.

``--selftest`` runs all four workloads at tiny sizes, traced and untraced,
shows that a flipped ciphertext byte, an altered trace row and a changed
sweep cell each register as a failure, and that per-layer counts repeat
exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK_ROOT = ROOT / ".perfbench"

MIN_SAMPLES = 3
# Duration of child.reference_s() on an otherwise idle host (2.1 GHz x86-64
# vCPU, CPython 3.11). Host times are reported scaled to this speed.
REFERENCE_NOMINAL_S = 0.013
CHILD_TIMEOUT_S = 150.0
POLL_S = 0.005


def log(message):
    print(message, flush=True)


def speed_scale(record):
    """Factor that turns a command's host times into times at nominal speed."""
    before, after = record["reference_s"]
    return REFERENCE_NOMINAL_S * 2 / (before + after)


class Runner:
    """Spawns child interpreters, checks their outputs and keeps the tally."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self._spawned = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, argvs, trace=False, command_id=0):
        """Run ``argvs`` in one fresh child; return its readings or None."""
        self._spawned += 1
        base = os.path.join(self.workdir, f"child{self._spawned}")
        with open(base + ".spec.json", "w") as fh:
            json.dump({"argvs": argvs, "trace": trace, "command_id": command_id}, fh)
        with open(base + ".stdout", "wb") as out, open(base + ".stderr", "wb") as err:
            spawned = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), base + ".spec.json", base + ".result.json"],
                cwd=str(ROOT), env=self.env, stdout=out, stderr=err,
            )
            status, usage = _wait(proc)
        with open(base + ".stdout") as fh:
            stdout = fh.read()
        with open(base + ".stderr") as fh:
            stderr = fh.read()
        if status != 0:
            log(f"# child exited with {status}: {stderr.strip()[-500:]}")
            return None
        with open(base + ".result.json") as fh:
            result = json.load(fh)
        module = Path(result["module"]).resolve()
        if SRC.resolve() not in module.parents:
            log(f"# child imported spime from {module}, not from {SRC}")
            return None
        result["setup_s"] = result["imported"] - spawned
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        result["stdout"] = stdout
        result["stderr"] = stderr
        return result

    def command(self, wl, tag, trace=False, command_id=0, keep=False):
        """Run one workload command in a child and check it; None on failure."""
        self.attempted += 1
        result = self.spawn([wl.argv(tag)], trace, command_id)
        problems = ["child failed"] if result is None else []
        if result is not None:
            record = result["commands"][0]
            if record["rc"] != 0:
                problems.append(f"exit code {record['rc']}: {result['stderr'].strip()[-300:]}")
            else:
                problems += wl.check(tag, result["stdout"])
        trace_rows = wl.trace_rows(tag)
        if not keep:
            for path in wl.output_paths(tag).values():
                if os.path.exists(path):
                    os.remove(path)
        if problems:
            self.failed += 1
            log(f"# FAIL {wl.name} {tag}: {'; '.join(problems)}")
            return None
        wall = record["end"] - record["start"]
        scale = speed_scale(record)
        wall_norm = wall * scale
        # Set-up ends just before the first reference loop, so that one scales it.
        setup_norm = result["setup_s"] * REFERENCE_NOMINAL_S / record["reference_s"][0]
        sample = {"raw_wall_s": wall, "raw_setup_s": result["setup_s"],
                  "wall_s": wall_norm, "items_per_s": wl.items / wall_norm, "setup_s": setup_norm,
                  "peak_rss_mb": result["peak_rss_mb"]}
        if trace:
            blocks = wl.items if wl.shape.kind == "simulate" else 0
            layers = tracer.layer_metrics(record["layers"], blocks, trace_rows)
            sample["layers"] = {name: value if tracer.is_count(name) else value * scale
                                for name, value in layers.items()}
            sample["spans"] = [
                {"id": s[0], "parent": s[1], "command": s[2], "name": s[3],
                 "start_s": s[4] - record["start"], "end_s": s[5] - record["start"]}
                for s in result["spans"]
            ]
        return sample

    def presets(self, wl, tag, trace=False):
        """Run the five figure presets in one child and check them.

        Returns the seconds the presets spent in ``figure_grid`` when traced
        (the only caller of that function), else None.
        """
        argvs = wl.preset_argvs(tag)
        if not argvs:
            return None
        result = self.spawn(argvs, trace)
        self.attempted += len(argvs)
        for k, argv in enumerate(argvs):
            figure = int(argv[2])
            if result is None:
                problems = ["child failed"]
            elif result["commands"][k]["rc"] != 0:
                problems = [f"exit code {result['commands'][k]['rc']}"]
            else:
                problems = wl.check_preset(figure, tag)
            if problems:
                self.failed += 1
                log(f"# FAIL figure {figure}: {'; '.join(problems)}")
        if not (trace and result):
            return None
        return sum(c["layers"]["stats"].get("perf.figure_grid", [0, 0.0])[1] * speed_scale(c)
                   for c in result["commands"])


def _wait(proc):
    """Reap ``proc`` with its resource usage; kill it after the timeout."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            log(f"# child killed after {CHILD_TIMEOUT_S:.0f} s")
            return -9, usage
        time.sleep(POLL_S)


# ---------------------------------------------------------------------------
# Reporting helpers
# ---------------------------------------------------------------------------

def tail_percentile(values):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    ordered = sorted(values)
    best = None
    for pct in (50, 75, 90, 95, 99):
        if len(ordered) * (100 - pct) / 100 >= 10:
            best = (pct, tracer.percentile(ordered, pct))
    return best


def run_context(wl, seed, seconds, trace):
    """Recorded, never gated: where and on what this run happened."""
    src_lines = 0
    for path in SRC.rglob("*.py"):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs": wl.describe(),
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "src_py_lines": src_lines,
    }


def git_sha():
    """HEAD of the checkout's git repository, read from disk; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git / ref
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def describe_samples(name, unit, values):
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]}={tail[1]:.6g}" if tail else "no percentile has 10 samples beyond it"
    return (f"# {name} [{unit}]: median={statistics.median(values):.6g} "
            f"n={len(values)} min={min(values):.6g} max={max(values):.6g} {tail_text}")


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# One measured run
# ---------------------------------------------------------------------------

def measure(runner, wl, seconds, trace, warmup):
    """Warm up, then sample commands until ``seconds`` have passed."""
    # A tiny command of the same kind fills the bytecode and page caches.
    runner.command(warmup, "warmup")
    figure_grid_s = runner.presets(wl, "presets", trace)
    samples, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        index = len(samples)
        sample = runner.command(wl, f"s{index}")
        if sample is not None:
            samples.append(sample)
        if trace:
            sample = runner.command(wl, f"t{index}", trace=True, command_id=index)
            if sample is not None:
                traced.append(sample)
        if time.perf_counter() >= deadline and (len(samples) >= MIN_SAMPLES or runner.failed):
            break
    return samples, traced, figure_grid_s


def end_to_end_metrics(wl, samples):
    """Medians over the run's commands of the normalised host times and memory.

    On a shared host, neighbours slow every process down by up to 1.8x for
    seconds to minutes at a time, so raw times drift with whatever else the
    machine is doing. Each command's times are therefore divided by the
    duration of a fixed reference loop timed in the same child just before
    and after ``main`` and scaled to that loop's nominal duration: seconds
    at the host's uncontended speed. Raw times are logged alongside.
    """
    item = "sim_blocks_per_s" if wl.shape.kind == "simulate" else "sweep_rows_per_s"
    columns = [("items_per_s", f"items_per_s ({item})", "items/s"), ("wall_s", "wall_s", "s"),
               ("peak_rss_mb", "peak_rss_mb", "MB"), ("setup_s", "setup_s", "s"),
               ("raw_wall_s", "raw wall_s, not normalised", "s"),
               ("raw_setup_s", "raw setup_s, not normalised", "s")]
    for key, label, unit in columns:
        log(describe_samples(label, unit, [s[key] for s in samples]))
    return {key: metric(statistics.median(s[key] for s in samples), unit)
            for key, _, unit in columns[:4]}


def per_layer_metrics(samples, traced, figure_grid_s):
    first = traced[0]["layers"]
    for other in traced[1:]:
        changed = [n for n in first if tracer.is_count(n) and other["layers"][n] != first[n]]
        if changed:
            log(f"# counts differ between traced commands: {', '.join(changed)}")
    metrics = {}
    for name in first:
        if tracer.is_count(name):
            value = first[name]
        else:
            value = statistics.median(s["layers"][name] for s in traced)
        metrics[name] = metric(value, tracer.unit_of(name))
    if figure_grid_s is not None:
        metrics["perf.figure_grid.s"] = metric(figure_grid_s, "s")
    ratio = (statistics.median(s["wall_s"] for s in traced)
             / statistics.median(s["wall_s"] for s in samples))
    metrics["trace_overhead_ratio"] = metric(ratio, "ratio")
    for name, entry in metrics.items():
        log(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    return metrics


def write_spans(workload, seed, traced):
    spans_dir = WORK_ROOT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    path = spans_dir / f"{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump([span for s in traced for span in s["spans"]], fh)
    log(f"# spans written to {path.relative_to(ROOT)}")


def run(args):
    import workloads

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        wl = workloads.Workload(args.workload, workloads.SHAPES[args.workload],
                                args.seed, workdir)
        log("# context " + json.dumps(run_context(wl, args.seed, args.seconds, args.trace)))
        warmup_dir = os.path.join(workdir, "warmup")
        os.mkdir(warmup_dir)
        warmup = workloads.Workload(args.workload, workloads.SMOKE_SHAPES[args.workload],
                                    args.seed, warmup_dir)
        runner = Runner(workdir)
        samples, traced, figure_grid_s = measure(runner, wl, args.seconds, args.trace, warmup)
        ok = runner.failed == 0 and samples and (traced or not args.trace)
        metrics = {}
        if samples and (traced or not args.trace):
            if args.trace:
                metrics = per_layer_metrics(samples, traced, figure_grid_s)
                write_spans(args.workload, args.seed, traced)
            else:
                metrics = end_to_end_metrics(wl, samples)
        log(f"# fail_ratio [failed/attempted]: {runner.failed}/{runner.attempted}"
            f" = {runner.failed / runner.attempted:.6g}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": bool(ok), "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}), flush=True)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Self-test: tiny workloads, and corrupted outputs must be caught
# ---------------------------------------------------------------------------

def _corrupt_ciphertext(path):
    data = bytearray(Path(path).read_bytes())
    pos = data.index(b" ") + 1  # first hex digit of unit 0's first ciphertext
    data[pos:pos + 2] = b"%02x" % (int(data[pos:pos + 2], 16) ^ 0x01)
    Path(path).write_bytes(bytes(data))


def _corrupt_trace_row(path):
    lines = Path(path).read_text().split("\n")
    lines[1] = lines[1].replace(",IDLE,", ",DONE,", 1)
    Path(path).write_text("\n".join(lines))


def _corrupt_sweep_cell(path):
    lines = Path(path).read_text().split("\n")
    cells = lines[1].split(",")
    cells[5] = repr(float(cells[5]) + 0.001)
    lines[1] = ",".join(cells)
    Path(path).write_text("\n".join(lines))


def selftest():
    import workloads

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=WORK_ROOT)
    results = []

    def expect(label, passed):
        results.append(passed)
        log(f"{'PASS' if passed else 'FAIL'} {label}")

    try:
        runner = Runner(workdir)
        for name, shape in workloads.SMOKE_SHAPES.items():
            wl = workloads.Workload(name, shape, 1, workdir)
            failed_before = runner.failed
            runner.presets(wl, "presets")
            plain = runner.command(wl, "plain", keep=True)
            first = runner.command(wl, "traced1", trace=True)
            second = runner.command(wl, "traced2", trace=True)
            expect(f"{name}: smoke run passes its output checks",
                   runner.failed == failed_before and None not in (plain, first, second))
            if first and second:
                same = all(value == second["layers"][n]
                           for n, value in first["layers"].items() if tracer.is_count(n))
                expect(f"{name}: per-layer counts repeat exactly", same)
            paths = wl.output_paths("plain")
            corruptions = []
            if shape.kind == "simulate":
                corruptions.append(("flipped ciphertext byte", _corrupt_ciphertext, "output"))
                if shape.trace:
                    corruptions.append(("altered trace row", _corrupt_trace_row, "trace"))
            else:
                corruptions.append(("changed sweep cell", _corrupt_sweep_cell, "output"))
            report = (f"num_pims={shape.units} blocks_per_unit={shape.blocks} "
                      f"total_cycles={15 * shape.blocks} per_block_cycles=15")
            expect(f"{name}: untouched outputs pass the checks", not wl.check("plain", report))
            for label, corrupt, which in corruptions:
                shutil.copy(paths[which], paths[which] + ".orig")
                corrupt(paths[which])
                expect(f"{name}: {label} registers as a failure", bool(wl.check("plain", report)))
                shutil.move(paths[which] + ".orig", paths[which])
            if shape.kind == "simulate":
                late = report.replace("per_block_cycles=15", "per_block_cycles=16")
                expect(f"{name}: a wrong cycle count registers as a failure",
                       bool(wl.check("plain", late)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    log(f"selftest: {sum(results)}/{len(results)} passed")
    return 0 if all(results) else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["wide", "deep", "traced", "sweep"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run tiny workloads and show corrupted outputs are caught")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required unless --selftest is given")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "spime" / "cli.py").is_file():
        print(f"error: no spime sources at {SRC}", file=sys.stderr)
        return 2
    try:
        import cryptography  # noqa: F401  (the AES oracle the checks need)
    except ImportError:
        print("error: the cryptography package is required for the output checks",
              file=sys.stderr)
        return 2
    return selftest() if args.selftest else run(args)


if __name__ == "__main__":
    sys.exit(main())
