"""Timing wrappers installed around spime's public functions for the traced run.

The wrappers live here, in the benchmark, and are patched into the spime
modules from outside: nothing under ``src/`` knows it is being traced.
A function that another module imported by name (``array_sim.expand_key``,
the round functions in ``aes_core``) is wrapped in the namespace that
calls it, under the same metric name as everywhere else.

Two kinds of wrapper:

* ``coarse`` calls (parse, build, load, run, format, write, grid, sweep and
  the command bodies) happen a few times per command. Each one becomes a
  span (id, parent id, command id, name, start, end) kept in memory.
* ``fine`` calls happen per cycle or per step (``tick``, ``step``, the round
  functions). Storing each would cost millions of tuples on a long run, so
  they are only aggregated: a call count plus summed total and self time.

Self time is a call's duration minus the time its wrapped children took.
"""

import time

IDLE = "IDLE"


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list (0 for an empty list)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[min(len(sorted_values), int(rank)) - 1]


class Tracer:
    """Aggregated call statistics and coarse spans for one process."""

    def __init__(self):
        # name -> [calls, total_s, self_s]; wrappers hold these lists, so
        # they are reset in place between commands.
        self.stats = {}
        self.spans = []
        self.tick_durations = []
        self.busy_steps = [0]
        # One accumulator of child time per active call; the bottom entry
        # absorbs calls made outside any wrapped parent.
        self._child_time = [0.0]
        self._span_stack = [None]
        self._command = 0

    def begin_command(self, command_id):
        """Zero the aggregates; spans from here on carry ``command_id``."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.tick_durations.clear()
        self.busy_steps[0] = 0
        self._command = command_id

    def snapshot(self):
        """Everything recorded for the current command, as plain data."""
        ticks = sorted(self.tick_durations)
        return {
            "stats": {name: list(stat) for name, stat in self.stats.items()},
            "busy_steps": self.busy_steps[0],
            "tick_p50_s": percentile(ticks, 50),
            "tick_p99_s": percentile(ticks, 99),
        }

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def fine(self, name, fn, durations=None):
        """Wrap a per-cycle call: count plus total and self time, no span."""
        stat = self._stat(name)
        child_time = self._child_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child_time.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                child_time[-1] += dt
                if durations is not None:
                    durations.append(dt)

        return wrapper

    def coarse(self, name, fn):
        """Wrap a once-per-phase call: aggregate it and record a span."""
        stat = self._stat(name)
        child_time = self._child_time
        span_stack = self._span_stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = span_stack[-1]
            span_stack.append(span_id)
            child_time.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                inner = child_time.pop()
                span_stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                child_time[-1] += dt
                spans[span_id] = [span_id, parent, self._command, name, t0, t1]

        return wrapper


def _patch(owner, attr, wrap):
    """Replace ``owner.attr`` by ``wrap(original)``; skip it if it is gone."""
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is not None:
        setattr(owner, attr, wrap(original))


def install(tracer):
    """Patch the wrappers into the imported spime modules."""
    from spime import aes_core, array_sim, cli, controller, perf, primitives

    fine, coarse = tracer.fine, tracer.coarse

    def at(name, kind=None):
        kind = kind or fine
        return lambda fn: kind(name, fn)

    # primitives, wrapped in every namespace that calls them on the simulate path
    for module in (primitives, aes_core, controller, array_sim):
        _patch(module, "check_block", at("primitives.check_block"))
        _patch(module, "expand_key", at("primitives.expand_key"))
    for fn_name in ("sub_bytes", "shift_rows", "mix_columns", "add_round_key",
                    "block_to_state", "state_to_block"):
        _patch(aes_core, fn_name, at("primitives." + fn_name))

    # aes_core: count the steps that do work alongside every step
    busy = tracer.busy_steps

    def count_busy(step):
        def busy_step(self, *args, **kwargs):
            if self.current_state != IDLE:
                busy[0] += 1
            return step(self, *args, **kwargs)
        return fine("aes_core.step", busy_step)

    _patch(aes_core.AesCoreSim, "step", count_busy)
    _patch(aes_core.AesCoreInputs, "__init__", at("aes_core.inputs"))

    # controller
    _patch(controller.PimControllerSim, "step", at("controller.step"))
    _patch(controller.PimUnit, "tick", at("controller.unit_tick"))

    # array_sim
    sim = array_sim.SpimeArraySim
    _patch(sim, "tick", lambda fn: fine("array_sim.tick", fn, tracer.tick_durations))
    _patch(sim, "job_complete", at("array_sim.job_complete"))
    _patch(sim, "load_job", at("array_sim.load_job", coarse))
    _patch(sim, "run_job", at("array_sim.run_job", coarse))
    _patch(cli, "build_array", at("array_sim.build_array", coarse))
    _patch(cli, "parse_job_lines", at("array_sim.parse_job_lines", coarse))
    _patch(cli, "format_result_lines", at("array_sim.format_result_lines", coarse))

    # perf
    _patch(perf.PerfQuery, "__init__", at("perf.query"))
    _patch(perf, "evaluate", at("perf.evaluate"))
    _patch(perf, "sweep", at("perf.sweep", coarse))
    _patch(cli, "load_device_catalog", at("perf.load_device_catalog", coarse))
    _patch(cli, "figure_grid", at("perf.figure_grid", coarse))
    _patch(cli, "sweep_csv_rows", at("perf.sweep_csv_rows", coarse))

    # cli
    _patch(cli, "_write_lines", at("cli.write_lines", coarse))
    _patch(cli, "_write_csv", at("cli.write_csv", coarse))
    _patch(cli, "cmd_simulate", at("cli.cmd_simulate", coarse))
    _patch(cli, "cmd_sweep", at("cli.cmd_sweep", coarse))


def _get(stats, name, field):
    stat = stats.get(name)
    return stat[field] if stat else 0


def layer_metrics(record, blocks, trace_rows):
    """Per-layer metrics of one traced command.

    ``record`` is :meth:`Tracer.snapshot` output; ``blocks`` is N*B for a
    simulate command (0 for a sweep) and ``trace_rows`` the data rows of
    the trace CSV the command wrote.
    """
    stats = record["stats"]

    def calls(name):
        return _get(stats, name, 0)

    def total(name):
        return _get(stats, name, 1)

    def self_s(name):
        return _get(stats, name, 2)

    def per_block(count):
        return count / blocks if blocks else 0.0

    rounds = ("primitives.sub_bytes", "primitives.shift_rows",
              "primitives.mix_columns", "primitives.add_round_key")
    steps = calls("aes_core.step")
    ticks = calls("array_sim.tick")
    return {
        "primitives.expand_key.calls": calls("primitives.expand_key"),
        "primitives.expand_key.self_s": self_s("primitives.expand_key"),
        "primitives.round.calls_per_block": per_block(sum(calls(n) for n in rounds)),
        "primitives.round.self_s": sum(self_s(n) for n in rounds),
        "primitives.mix_columns.self_s": self_s("primitives.mix_columns"),
        "primitives.state_codec.self_s": (self_s("primitives.block_to_state")
                                          + self_s("primitives.state_to_block")),
        "primitives.check_block.calls_per_block": per_block(calls("primitives.check_block")),
        "aes_core.step.calls_per_block": per_block(steps),
        "aes_core.step.self_s": self_s("aes_core.step"),
        "aes_core.step.busy_ratio": record["busy_steps"] / steps if steps else 0.0,
        "aes_core.inputs.calls_per_block": per_block(calls("aes_core.inputs")),
        "controller.step.self_s": self_s("controller.step"),
        "controller.unit_tick.calls_per_block": per_block(calls("controller.unit_tick")),
        "controller.unit_tick.self_s": self_s("controller.unit_tick"),
        "array_sim.unit_ticks_per_cycle": calls("controller.unit_tick") / ticks if ticks else 0.0,
        "array_sim.tick.calls": ticks,
        "array_sim.tick.self_s": self_s("array_sim.tick"),
        "array_sim.tick.p50_us": record["tick_p50_s"] * 1e6,
        "array_sim.tick.p99_us": record["tick_p99_s"] * 1e6,
        "array_sim.job_complete.self_s": self_s("array_sim.job_complete"),
        "array_sim.build_array.s": total("array_sim.build_array"),
        "array_sim.load_job.s": total("array_sim.load_job"),
        "array_sim.run_job.s": total("array_sim.run_job"),
        "array_sim.parse_job_lines.s": total("array_sim.parse_job_lines"),
        "array_sim.format_result_lines.s": total("array_sim.format_result_lines"),
        "array_sim.trace_rows": trace_rows,
        "cli.write_lines.s": total("cli.write_lines"),
        "cli.write_csv.s": total("cli.write_csv"),
        "perf.load_device_catalog.s": total("perf.load_device_catalog"),
        "perf.figure_grid.s": total("perf.figure_grid"),
        "perf.query.calls": calls("perf.query"),
        "perf.evaluate.calls": calls("perf.evaluate"),
        "perf.evaluate.self_s": self_s("perf.evaluate"),
        "perf.sweep_csv_rows.s": total("perf.sweep_csv_rows"),
        "cli.cmd_simulate.self_s": self_s("cli.cmd_simulate"),
        "cli.cmd_sweep.self_s": self_s("cli.cmd_sweep"),
    }


# Units of the per-layer metrics, by name suffix.
_UNITS = {
    ".calls": "count", ".calls_per_block": "calls/block", "_per_cycle": "calls/cycle",
    ".busy_ratio": "ratio", "trace_rows": "count", "_us": "us", ".s": "s", "self_s": "s",
}
# Metrics that count work rather than time it; these must repeat exactly
# between runs of the same inputs.
_COUNT_SUFFIXES = (".calls", ".calls_per_block", "_per_cycle", ".busy_ratio", "trace_rows")


def unit_of(name):
    for suffix, unit in _UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def is_count(name):
    return name.endswith(_COUNT_SUFFIXES)
