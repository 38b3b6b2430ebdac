"""Run one ck-tomo command in this fresh process and report on it.

    python3 child.py RESULT_JSON TRACE_JSON|- CK_TOMO_ARGS...

The process imports `cktomo.cli` and calls `cli.main` as the `ck-tomo`
entry point does.  Set-up ends when argparse returns the parsed argv (the
one hook installed in every run, on `argparse.ArgumentParser.parse_args`);
the request ends when `main` has returned and stdout is flushed.  With a
trace path, the cktomo layers are wrapped first (see spans.py) and the
spans are written there after the request.  The result file gets the
monotonic command-start and end stamps, the exit code, peak RSS (VmHWM)
and, when traced, the per-layer summary.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback


def peak_rss_kb() -> int:
    """This process's resident high-water mark.  `ru_maxrss` will not do:
    after exec it keeps the spawning parent's peak."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    result_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from cktomo import cli

    tracer = None
    if trace_path != "-":
        import spans

        tracer = spans.install()

    marks: dict[str, float] = {}
    parse_args = argparse.ArgumentParser.parse_args

    def timed_parse_args(self, *args, **kwargs):
        namespace = parse_args(self, *args, **kwargs)
        marks.setdefault("command_start", time.monotonic())
        return namespace

    argparse.ArgumentParser.parse_args = timed_parse_args
    crashed = False
    try:
        code = cli.main(argv)
    except Exception:  # an uncaught error ends `ck-tomo` with exit 1; record it as such
        traceback.print_exc()
        code, crashed = 1, True
    sys.stdout.flush()
    end = time.monotonic()
    result = {
        "command_start": marks.get("command_start", end),
        "end": end,
        "exit": code,
        "crashed": crashed,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["counters"] = tracer.counters
        layers = sorted({span[0] for span in tracer.spans})
        slot = {layer: i for i, layer in enumerate(layers)}
        index = {id(span): i for i, span in enumerate(tracer.spans)}
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "layers": layers,
                    "spans": [
                        [slot[layer], start, stop, -1 if parent is None else index[id(parent)]]
                        for layer, start, stop, parent, _ in tracer.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
