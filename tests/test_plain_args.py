"""``cli._plain_args`` agrees with argparse wherever it reads a command line.

It reads a plain command line (a command name, then only its long options,
each given once and in full, with values that do not start with ``-``) and
returns None for anything else, which argparse then reads. The property
test draws command lines from a vocabulary of every declared flag, its
abbreviations and ``--flag=value`` spellings, help and ``--`` tokens, and
values that convert, fail to convert or look like options.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spime import cli
from spime.cli import _plain_args, build_parser

# Each command's long options and their add_argument keywords, from the one declaration.
OPTIONS = {name: {flag: keywords for flag, keywords in arguments if flag.startswith("--")}
           for name, _, _, arguments in cli._commands()}
COMMANDS = list(OPTIONS)
FLAGS = sorted({flag for options in OPTIONS.values() for flag in options})
OTHER_OPTIONS = ["--out", "--num", "--fig", "-h", "--help", "--", "--bogus"]
VALUES = ["0", "1", "4096", "-1", "-", "", " 7", "1_0", "1e3", "nan", "3", "9", "x",
          "jobs/j.job"]


def _fits(keywords, value):
    """Whether an option declared with ``keywords`` takes ``value`` in a plain command line."""
    try:
        converted = keywords.get("type", str)(value)
    except ValueError:
        return False
    return not value.startswith("-") and converted in keywords.get("choices", [converted])


@st.composite
def argvs(draw):
    """A plain command line, then up to two changes to it.

    The plain line is a command name and some of its options, each once with as many values as
    it takes, of a kind it takes. A change puts a value the option does not take in place of
    one, gives an option one value more or one fewer, or splices in another token anywhere: any
    flag again, an abbreviation, a ``--flag=value``, a help or ``--`` token, or an operand
    (spliced first, it stands where the command name goes)."""
    command = draw(st.sampled_from([*COMMANDS, "bogus"]))
    options = OPTIONS.get(command, dict.fromkeys(FLAGS, {}))
    groups = []
    for flag in draw(st.lists(st.sampled_from(sorted(options)), unique=True, max_size=5)
                     if options else st.just([])):
        keywords = options[flag]
        if keywords.get("action") == "store_true":
            count = 0
        else:
            count = draw(st.integers(1, 3)) if keywords.get("nargs") == "+" else 1
        fitting = [value for value in VALUES if _fits(keywords, value)]
        groups.append([flag, *draw(st.lists(st.sampled_from(fitting), min_size=count,
                                            max_size=count))])
    changes = draw(st.lists(st.sampled_from(["value", "count", "splice"]), max_size=2))
    for change in changes:
        if change == "splice" or not groups:
            continue
        group = groups[draw(st.integers(0, len(groups) - 1))]
        keywords = options[group[0]]
        if change == "value" and len(group) > 1:
            unfit = [value for value in VALUES if not _fits(keywords, value)]
            group[draw(st.integers(1, len(group) - 1))] = draw(st.sampled_from(unfit))
        elif len(group) > 1 and draw(st.booleans()):
            group.pop()
        else:
            group.append(draw(st.sampled_from(VALUES)))
    argv = [command, *(token for group in groups for token in group)]
    other = st.one_of(
        st.sampled_from(FLAGS + OTHER_OPTIONS + VALUES),
        st.builds("{}={}".format, st.sampled_from(FLAGS), st.sampled_from(VALUES)),
    )
    for _ in range(changes.count("splice")):
        argv.insert(draw(st.integers(0, len(argv))), draw(other))
    return argv


def _argparse(argv):
    """``build_parser().parse_args(argv)``, or None where argparse prints help or an error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


def _fields(namespace):
    """A namespace's fields by repr, so that a NaN equals itself and 10 differs from 10.0."""
    return {name: repr(value) for name, value in vars(namespace).items()}


@settings(max_examples=600, deadline=None)
@given(argvs())
def test_a_plain_reading_is_what_argparse_reads(argv):
    plain = _plain_args(argv)
    if plain is not None:
        expected = _argparse(argv)
        assert expected is not None, argv
        assert _fields(plain) == _fields(expected)


@pytest.mark.parametrize("argv", [
    ["simulate", "--job", "j.job", "--output", "r.out"],
    ["simulate", "--job", "j.job", "--output", "r.out", "--trace", "t.csv"],
    ["sweep", "--device", "U55C", "ZCU104", "--num-pims", "1", "4096", "--fmax-mhz", "100.0",
     "333.3", "--block-bits", "128", "1024", "--output", "s.csv"],
    ["sweep", "--figure", "3", "--output", "f.csv"],
    ["encrypt", "--input", "in.txt", "--output", "out.txt", "--verify"],
    ["devices"],
], ids=["deep-wide", "traced", "sweep-grid", "sweep-figure", "encrypt-input", "devices"])
def test_the_benchmark_and_plain_command_lines_are_read_plain(argv):
    plain = _plain_args(argv)
    assert plain is not None
    assert _fields(plain) == _fields(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["simulate", "--job", "j.job", "--job", "k.job"],
    ["simulate", "--job=j.job"],
    ["simulate", "--job", "j.job", "--out", "r.out"],
    ["simulate", "--job", "j.job", "--num-pims", "-1"],
    ["sweep", "--num-pims", "4", "-1"],
    ["simulate", "--job", "-"],
    ["encrypt", "000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff"],
    ["sweep", "--figure", "9"],
    ["simulate"],
    ["simulate", "--job", "j.job", "--help"],
], ids=["repeated", "equals", "abbreviated", "negative", "negative-in-list", "dash",
        "operands", "not-a-choice", "missing-required", "help"])
def test_every_other_command_line_goes_to_argparse(argv):
    assert _plain_args(argv) is None
