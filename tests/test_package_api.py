"""The package's public surface: lazy re-exports (PEP 562) and the plain
``__slots__`` classes, which keep the constructors, defaults, checks and
messages their dataclass forms had."""

import importlib
import re

import pytest

import spime
from spime.aes_core import AesCoreInputs
from spime.array_sim import ConfigError, SpimeConfig, SpimeResult
from spime.cli import EXIT_USAGE, main
from spime.perf import DeviceSpec, PerfQuery, PerfResult, SweepGrid, load_device_catalog
from spime.primitives import NUM_ROUND_KEYS, ZERO_BLOCK, expand_key

from oracles import FIPS_C1_KEY, FIPS_C1_PLAINTEXT

# Every name ``spime`` exported when its __init__ imported all modules eagerly.
EXPORTS = {
    "aes_core": ["AesCoreInputs", "AesCoreSim", "CORE_CYCLES_PER_BLOCK", "encrypt_block"],
    "array_sim": ["ConfigError", "JobFormatError", "SpimeArraySim", "SpimeConfig", "SpimeJob",
                  "SpimeResult", "build_array", "format_result_lines", "parse_job_lines"],
    "controller": ["PimControllerSim", "PimUnit", "UNIT_CYCLES_PER_BLOCK", "run_block"],
    "perf": ["DeviceSpec", "PerfQuery", "PerfResult", "evaluate", "latency_us",
             "load_device_catalog", "sweep", "throughput_gbps", "utilization_pct"],
    "primitives": ["SubBytesPacket", "add_round_key", "block_from_hex", "block_to_hex",
                   "block_to_state", "expand_key", "flat_to_schedule", "mix_columns", "mul_by_2",
                   "mul_by_3", "reference_encrypt", "schedule_to_flat", "shift_rows",
                   "state_to_block", "sub_byte", "sub_bytes"],
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]


# ---------------------------------------------------------------------------
# lazy re-exports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("module, name", EXPORTED, ids=[name for _, name in EXPORTED])
def test_every_export_is_its_home_modules_object(module, name):
    namespace = {}
    exec(f"from spime import {name}", namespace)
    home = importlib.import_module(f"spime.{module}")
    assert namespace[name] is getattr(spime, name) is getattr(home, name)


def test_a_star_import_binds_every_export():
    namespace = {}
    exec("from spime import *", namespace)
    assert {name for _, name in EXPORTED} <= set(namespace)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'spime' has no attribute 'no_such_name'"):
        spime.no_such_name
    with pytest.raises(ImportError):
        exec("from spime import no_such_name", {})


def test_submodules_import_by_name():
    from spime import aes_core, array_sim, cli, controller, perf, primitives

    for module in (aes_core, array_sim, cli, controller, perf, primitives):
        assert module is importlib.import_module(module.__name__)
        assert getattr(spime, module.__name__.rpartition(".")[2]) is module


def test_the_catalog_variable_has_one_definition():
    from spime import cli, perf

    assert spime.CATALOG_ENV_VAR == "SPIME_DEVICE_CATALOG"
    assert perf.CATALOG_ENV_VAR is cli.CATALOG_ENV_VAR is spime.CATALOG_ENV_VAR


# ---------------------------------------------------------------------------
# plain classes: constructor forms and defaults
# ---------------------------------------------------------------------------

FIELDS = {
    SpimeConfig: ("num_pims", "per_pim_block_bits", "trace_enabled"),
    SpimeResult: ("output_registers", "total_cycles", "done_flags"),
    PerfQuery: ("num_pims", "fmax_mhz", "block_bits", "cycles_per_task"),
    AesCoreInputs: ("start", "data_in", "round_keys", "key"),
}


def _fields(obj):
    return {name: getattr(obj, name) for name in FIELDS[type(obj)]}


def test_spime_config_forms_and_defaults():
    assert _fields(SpimeConfig(4)) == {"num_pims": 4, "per_pim_block_bits": 128,
                                       "trace_enabled": False}
    positional = SpimeConfig(4, 256, True)
    assert _fields(positional) == _fields(
        SpimeConfig(num_pims=4, per_pim_block_bits=256, trace_enabled=True))
    assert positional.blocks_per_unit == 2


def test_spime_result_forms():
    registers, flags = [bytes(32)], [True, True]
    assert _fields(SpimeResult(registers, 15, flags)) == _fields(
        SpimeResult(output_registers=registers, total_cycles=15, done_flags=flags))


def test_perf_query_forms_defaults_and_equality():
    query = PerfQuery(256, 100.0)
    assert _fields(query) == {"num_pims": 256, "fmax_mhz": 100.0, "block_bits": 1024,
                              "cycles_per_task": 11}
    assert PerfQuery(256, 100.0, 2048, 15) == PerfQuery(
        num_pims=256, fmax_mhz=100.0, block_bits=2048, cycles_per_task=15)
    assert query != PerfQuery(256, 100.0, cycles_per_task=15)
    assert query != (256, 100.0, 1024, 11)
    assert repr(query) == ("PerfQuery(num_pims=256, fmax_mhz=100.0, block_bits=1024, "
                           "cycles_per_task=11)")


def test_aes_core_inputs_forms_and_defaults():
    idle = AesCoreInputs()
    assert _fields(idle) == {"start": False, "data_in": ZERO_BLOCK,
                             "round_keys": [ZERO_BLOCK] * NUM_ROUND_KEYS, "key": ZERO_BLOCK}
    assert idle.round_keys is not AesCoreInputs().round_keys  # a fresh list each time
    schedule = expand_key(FIPS_C1_KEY)
    assert _fields(AesCoreInputs(True, FIPS_C1_PLAINTEXT, schedule, FIPS_C1_KEY)) == _fields(
        AesCoreInputs(start=True, data_in=FIPS_C1_PLAINTEXT, round_keys=schedule,
                      key=FIPS_C1_KEY))


def test_sweep_grid_forms_and_defaults():
    catalog = load_device_catalog()
    parts = (((catalog["U55C"],), (256,), (100.0,), (1024,)),)
    assert SweepGrid(parts).cycles_per_task == 11
    assert SweepGrid(parts, 15) == SweepGrid(parts=parts, cycles_per_task=15)
    assert list(SweepGrid(parts, 15)) == [(PerfQuery(256, 100.0, 1024, 15), catalog["U55C"])]


@pytest.mark.parametrize("make", [
    lambda: SpimeConfig(1),
    lambda: SpimeResult([], 0, []),
    lambda: AesCoreInputs(),
    lambda: PerfQuery(1, 1.0),
    lambda: PerfResult(1.0, 1.0, 1.0, 1.0),
    lambda: SweepGrid(()),
], ids=["SpimeConfig", "SpimeResult", "AesCoreInputs", "PerfQuery", "PerfResult", "SweepGrid"])
def test_a_misspelt_field_is_refused(make):
    with pytest.raises(AttributeError):
        make().no_such_field = 1


# ---------------------------------------------------------------------------
# plain classes: checks and messages
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make, error, message", [
    (lambda: SpimeConfig(0), ConfigError, "num_pims must be >= 1, got 0"),
    (lambda: SpimeConfig(1, 100), ConfigError,
     "per_pim_block_bits must be a positive multiple of 128, got 100"),
    (lambda: PerfQuery(0, 1.0), ValueError, "num_pims must be positive, got 0"),
    (lambda: PerfQuery(1, float("nan")), ValueError,
     "fmax_mhz must be positive and finite, got nan"),
    (lambda: PerfQuery(1, 1.0, 100), ValueError,
     "block_bits must be a positive multiple of 128, got 100"),
    (lambda: PerfQuery(1, 1.0, 128, 0), ValueError, "cycles_per_task must be positive, got 0"),
    (lambda: AesCoreInputs(data_in=bytes(15)), ValueError,
     "register must be a positive multiple of 16 bytes"),
    (lambda: AesCoreInputs(key=bytes(15)), ValueError, "block must be 16 bytes"),
    (lambda: AesCoreInputs(round_keys=[ZERO_BLOCK] * 10), ValueError,
     "round_keys must carry 11 keys as wide as data_in"),
    (lambda: DeviceSpec("X", "p", 1, 1, 1, 0, 1), ValueError, "X: uram must be positive"),
    (lambda: DeviceSpec("X", "p", int(1.7e308), 1, 1, 1, 1), OverflowError,
     "X: per-unit cost is not finite"),
], ids=["units", "block-bits", "query-units", "query-fmax", "query-block-bits", "query-cycles",
        "data-in", "key", "round-keys", "device-count", "device-cost"])
def test_invalid_arguments_keep_their_type_and_message(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("derived", ["family", "per_pim_lut_cost", "per_pim_ff_cost"])
def test_derived_device_fields_are_not_arguments(derived):
    with pytest.raises(TypeError):
        DeviceSpec("X", "p", 1, 1, 1, 1, 1, **{derived: None})


def test_a_refused_result_prints_as_the_dataclass_did(capsys):
    argv = ["sweep", "--device", "U55C", "--fmax-mhz", "100", "1e-320"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: query 1: operating point outside the model's range: PerfResult(latency_us=inf, "
        "throughput_gbps=0.0, lut_util_pct=0.228125, ff_util_pct=0.125)\n")
