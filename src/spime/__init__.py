"""SPiME: cycle-accurate simulator and analytical performance model for a
parallel array of AES-128 processing-in-memory units.

Layers, bottom up:
  * :mod:`spime.primitives` — pure AES-128 transformations and encodings.
  * :mod:`spime.aes_core` — the 11-cycle iterative encryption core FSM.
  * :mod:`spime.controller` — the per-unit control FSM and handshake.
  * :mod:`spime.array_sim` — N units stepped in lockstep on one clock.
  * :mod:`spime.perf` — latency / throughput / utilization equations.
  * :mod:`spime.cli` — the ``spime`` command.

The names below are re-exported lazily (PEP 562): ``from spime import X``
imports X's home module on first use, so ``import spime.cli`` loads only
the modules the simulator runs.
"""

import importlib

__version__ = "0.1.0"

# Read by spime.perf and named in the command's help, which must not load perf.
CATALOG_ENV_VAR = "SPIME_DEVICE_CATALOG"

_EXPORTS = {
    "aes_core": ["AesCoreInputs", "AesCoreSim", "CORE_CYCLES_PER_BLOCK", "encrypt_block"],
    "array_sim": ["ConfigError", "JobFormatError", "SpimeArraySim", "SpimeConfig", "SpimeJob",
                  "SpimeResult", "build_array", "format_result_lines", "parse_job_lines"],
    "cli": [],
    "controller": ["PimControllerSim", "PimUnit", "UNIT_CYCLES_PER_BLOCK", "run_block"],
    "perf": ["DeviceSpec", "PerfQuery", "PerfResult", "evaluate", "latency_us",
             "load_device_catalog", "sweep", "throughput_gbps", "utilization_pct"],
    "primitives": ["SubBytesPacket", "add_round_key", "block_from_hex", "block_to_hex",
                   "block_to_state", "expand_key", "flat_to_schedule", "mix_columns", "mul_by_2",
                   "mul_by_3", "reference_encrypt", "schedule_to_flat", "shift_rows",
                   "state_to_block", "sub_byte", "sub_bytes"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    """A submodule, or a re-exported name from its home module, imported on first use."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
