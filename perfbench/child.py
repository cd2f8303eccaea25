"""Run spime commands through ``spime.cli.main`` in this fresh interpreter.

    python child.py SPEC_JSON RESULT_JSON

SPEC_JSON holds ``{"argvs": [[...], ...], "trace": bool, "command_id": int}``.
RESULT_JSON receives the clock readings the parent needs: when the
interpreter started running this file, when ``spime.cli`` finished
importing, and the start, end and exit code of each ``main`` call. All
readings are ``time.perf_counter()``, the system-wide monotonic clock on
Linux, so they compare with the parent's readings.

Around each ``main`` call the child also times :func:`reference_s`, a fixed
loop of benchmark code that no change to spime can alter. Its duration
tracks how fast this host happens to be running Python at that moment,
which the parent uses to normalise the command's times.

Nothing but ``time`` and ``sys`` is imported before ``spime.cli``, so the
import reading measures the program's own start-up.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402

import spime.cli  # noqa: E402

IMPORTED = time.perf_counter()

_TABLE = tuple((b * 7 + 99) & 0xFF for b in range(256))


def _substitute(state, key):
    return [_TABLE[b ^ key] for b in state]


def reference_s(iterations=20000):
    """Seconds taken by a fixed table-lookup loop shaped like one AES round."""
    state = list(range(16))
    start = time.perf_counter()
    for i in range(iterations):
        state = _substitute(state, i & 0xFF)
    return time.perf_counter() - start


def run(spec):
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    commands = []
    for offset, argv in enumerate(spec["argvs"]):
        if tracer is not None:
            tracer.begin_command(spec["command_id"] + offset)
        before = reference_s()
        start = time.perf_counter()
        try:
            code = spime.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        end = time.perf_counter()
        sys.stdout.flush()
        record = {"rc": code, "start": start, "end": end,
                  "reference_s": [before, reference_s()]}
        if tracer is not None:
            record["layers"] = tracer.snapshot()
        commands.append(record)
    return {
        "started": STARTED,
        "imported": IMPORTED,
        "module": spime.cli.__file__,
        "commands": commands,
        "spans": tracer.spans if tracer is not None else [],
    }


def main():
    import json

    spec_path, result_path = sys.argv[1:3]
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
