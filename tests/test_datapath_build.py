"""The compiled datapath is built on first import, cached, and optional.

``spime.primitives`` compiles ``_datapath.c`` into its ``__pycache__`` the
first time it is imported and loads the cached build after that; without
the source or a compiler it runs the pure-Python datapath with the same
bytes. Each check but the first runs fresh interpreters on a copy of the
package, so the build they see is their own.
"""

import hashlib
import pathlib
import shutil
import subprocess
import sys
import sysconfig
import zlib
from concurrent.futures import ThreadPoolExecutor

import pytest

from spime import primitives

from oracles import FIPS_C1_CIPHERTEXT
from helpers import C1_KEY_HEX, C1_PT_HEX, CIPHERTEXT, PLAINTEXT, copy_package, fips_job, run_python

HAVE_COMPILER = shutil.which((sysconfig.get_config_var("LDSHARED") or "?").split()[0]) is not None
BUILD_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")

# Runs the command line after -c and prints, last, where spime came from and every module loaded.
RUN_MAIN = ("import sys, spime.cli; code = spime.cli.main(sys.argv[1:]); "
            "print(spime.cli.__file__, *sorted(sys.modules)); sys.exit(code)")
START_UP_MODULES = {"argparse", "gettext", "locale", "csv", "dataclasses", "inspect", "spime.perf"}
# The 4 x 2 trace digest that tests/test_cli.py pins: the trace depends only on the shape.
TRACE_4X2_SHA256 = "a70bcfadd007603e2a45018ab19e09cc5ceef0e8078e2bfc9ff28a5d7f71d458"
FIPS_REPORT = "num_pims=2 blocks_per_unit=1 total_cycles=15 per_block_cycles=15\n"


def _main(argv, *, env, cwd, dev=False):
    """Run ``spime.cli.main(argv)`` in a fresh interpreter on ``env``'s package copy.

    Returns the exit code, the lines it wrote to stdout, its stderr, the file
    ``spime.cli`` came from and the modules the interpreter had loaded.
    """
    options = ["-X", "dev", "-W", "error"] if dev else []
    proc = run_python(*options, "-c", RUN_MAIN, *argv, cwd=cwd, env=env)
    *lines, last = proc.stdout.splitlines(keepends=True)
    where, *modules = last.split()
    return proc.returncode, lines, proc.stderr, where, set(modules)


def _builds(package):
    """The names in the copy's ``__pycache__`` that a build of the datapath could leave."""
    return sorted(path.name for path in (package / "__pycache__").glob("_datapath.*"))


def _build_name(package):
    crc = zlib.crc32((package / "_datapath.c").read_bytes())
    return f"_datapath.{crc:08x}{BUILD_SUFFIX}"


@pytest.mark.skipif(not HAVE_COMPILER, reason="LDSHARED's compiler is not on PATH")
def test_the_compiled_datapath_loaded():
    assert primitives._datapath is not None
    assert sys.modules["spime._datapath"] is primitives._datapath
    assert primitives._datapath.__file__.endswith(BUILD_SUFFIX)


def test_a_copy_without_the_source_runs_the_pure_datapath(tmp_path):
    env = copy_package(tmp_path / "lib", without=["_datapath.c"])
    (tmp_path / "c1.job").write_text(f"{C1_KEY_HEX} {C1_PT_HEX},{C1_PT_HEX}\n" * 4)
    code, lines, err, where, modules = _main(
        ["simulate", "--job", "c1.job", "--output", "out.txt", "--trace", "trace.csv"],
        env=env, cwd=tmp_path)
    assert (code, lines, err) == (
        0, ["num_pims=4 blocks_per_unit=2 total_cycles=30 per_block_cycles=15\n"], "")
    assert where.startswith(str(tmp_path / "lib" / "spime"))
    assert "spime.primitives" in modules and "spime._datapath" not in modules
    ciphertext = FIPS_C1_CIPHERTEXT.hex()
    assert (tmp_path / "out.txt").read_text() == f"{C1_KEY_HEX} {ciphertext},{ciphertext}\n" * 4
    assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == TRACE_4X2_SHA256
    assert _builds(tmp_path / "lib" / "spime") == []


def test_a_first_run_under_dev_mode_builds_the_datapath_and_loads_nothing_more(tmp_path):
    env = copy_package(tmp_path / "lib")
    package = tmp_path / "lib" / "spime"
    assert _builds(package) == []
    (tmp_path / "fips.job").write_text(fips_job(PLAINTEXT))
    code, lines, err, where, modules = _main(["simulate", "--job", "fips.job"], env=env,
                                             cwd=tmp_path, dev=True)
    assert (code, lines, err) == (0, fips_job(CIPHERTEXT).splitlines(keepends=True), FIPS_REPORT)
    assert where.startswith(str(package))
    assert modules & START_UP_MODULES == set()
    assert ("spime._datapath" in modules) == HAVE_COMPILER
    assert _builds(package) == ([_build_name(package)] if HAVE_COMPILER else [])


def test_two_first_runs_at_once_give_the_same_bytes(tmp_path):
    env = copy_package(tmp_path / "lib")
    package = tmp_path / "lib" / "spime"
    (tmp_path / "fips.job").write_text(fips_job(PLAINTEXT))
    with ThreadPoolExecutor(2) as pool:
        runs = [pool.submit(_main, ["simulate", "--job", "fips.job"], env=env, cwd=tmp_path)
                for _ in range(2)]
        results = [run.result() for run in runs]
    want = fips_job(CIPHERTEXT).splitlines(keepends=True)
    assert [result[:3] for result in results] == [(0, want, FIPS_REPORT)] * 2
    assert [("spime._datapath" in result[4]) for result in results] == [HAVE_COMPILER] * 2
    assert _builds(package) == ([_build_name(package)] if HAVE_COMPILER else [])


@pytest.mark.skipif(not HAVE_COMPILER, reason="LDSHARED's compiler is not on PATH")
def test_the_datapath_source_builds_without_a_warning(tmp_path):
    ldshared, include = sysconfig.get_config_vars("LDSHARED", "INCLUDEPY")
    source = pathlib.Path(primitives.__file__).with_name("_datapath.c")
    argv = [*ldshared.split(), "-O2", "-fPIC", "-Wall", "-Wextra", "-Werror", "-I", include,
            str(source), "-o", str(tmp_path / f"_datapath{BUILD_SUFFIX}")]
    build = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert build.returncode == 0, build.stderr


@pytest.mark.skipif(not HAVE_COMPILER, reason="LDSHARED's compiler is not on PATH")
def test_the_static_analyzer_finds_nothing_in_the_datapath_source(tmp_path):
    ldshared, include = sysconfig.get_config_vars("LDSHARED", "INCLUDEPY")
    compiler = ldshared.split()[0]
    probe = subprocess.run([compiler, "-fanalyzer", "-fsyntax-only", "-x", "c", "-"],
                           input="", capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        pytest.skip(f"{compiler} refuses -fanalyzer: {probe.stderr.strip()}")
    source = pathlib.Path(primitives.__file__).with_name("_datapath.c")
    # Unoptimized, so the analyzer sees each allocation before -O2 could fold it away.
    argv = [*ldshared.split(), "-fPIC", "-fanalyzer", "-Wall", "-Wextra", "-Werror",
            "-I", include, str(source), "-o", str(tmp_path / f"_datapath{BUILD_SUFFIX}")]
    build = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert build.returncode == 0, build.stderr
