"""A plain command line runs without argparse; help and usage errors still come from it.

Each command runs in a fresh interpreter, because this process has imported
argparse already. ``COLUMNS`` is fixed on both sides, since argparse wraps
its help and usage text to the terminal width.
"""

import contextlib
import io

import pytest

from spime.cli import build_parser

from oracles import FIPS_C1_CIPHERTEXT, FIPS_C1_KEY, FIPS_C1_PLAINTEXT
from helpers import child_env, newly_loaded, run_python

PARSER_MODULES = {"argparse", "gettext", "locale"}
COLUMNS = "80"


def _python(*args, cwd):
    return run_python(*args, cwd=cwd, env=child_env(COLUMNS=COLUMNS))


def _argparse(argv, monkeypatch):
    """The exit code, stdout and stderr of ``build_parser().parse_args(argv)`` in this process."""
    monkeypatch.setenv("COLUMNS", COLUMNS)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def test_importing_the_cli_loads_neither_argparse_nor_gettext(tmp_path):
    assert newly_loaded("import spime.cli", tmp_path) & PARSER_MODULES == set()


@pytest.mark.parametrize("argv", [
    ["simulate", "--job", "c1.job", "--output", "r.out", "--trace", "t.csv"],
    ["encrypt", "--input", "c1.job", "--output", "r.out", "--verify"],
    ["sweep", "--figure", "3", "--output", "r.out"],
    ["devices"],
], ids=["simulate", "encrypt", "sweep", "devices"])
def test_a_plain_command_loads_no_argparse_gettext_or_locale(tmp_path, argv):
    (tmp_path / "c1.job").write_text(f"{FIPS_C1_KEY.hex()} {FIPS_C1_PLAINTEXT.hex()}\n")
    statement = f"import spime.cli; assert spime.cli.main({argv!r}) == 0"
    assert newly_loaded(statement, tmp_path) & PARSER_MODULES == set()
    if argv[0] == "encrypt":
        assert (tmp_path / "r.out").read_text() == FIPS_C1_CIPHERTEXT.hex() + "\n"


@pytest.mark.parametrize("argv", [["simulate", "--job"], ["simulate", "--jb", "c1.job"]],
                         ids=["missing-value", "misspelt"])
def test_a_usage_error_is_argparse_s(tmp_path, monkeypatch, argv):
    proc = _python("-m", "spime", *argv, cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == _argparse(argv, monkeypatch)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: spime simulate ")
    assert proc.stderr.splitlines()[-1].startswith("spime simulate: error: ")


@pytest.mark.parametrize("command", [[], ["encrypt"], ["simulate"], ["sweep"], ["devices"]],
                         ids=["spime", "encrypt", "simulate", "sweep", "devices"])
def test_help_is_argparse_s(tmp_path, monkeypatch, command):
    proc = _python("-m", "spime", *command, "--help", cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == _argparse([*command, "--help"],
                                                                    monkeypatch)
    if not command:
        assert proc.stdout == build_parser().format_help()
