"""Run one bmdlimits CLI call in this fresh interpreter, traced.

    python3 perfbench/cli_child.py TRACE_OUT ARGS...

Behaves like ``bmdlimits ARGS...`` (same stdout and exit code) and writes to
TRACE_OUT a JSON object with the spans and counts of the call, the time the
package import took, and this process's peak RSS and that of its children.
Run with ``src`` on PYTHONPATH.
"""

import json
import resource
import sys
import time

t0 = time.perf_counter()
import bmdlimits.cli  # noqa: E402

t1 = time.perf_counter()

import argparse  # noqa: E402

from tracer import Tracer, peak_rss_kb  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.spans.append(["bmdlimits.import", t0, t1, -1, 0, False])
    tracer.install()
    parse_args = argparse.ArgumentParser.parse_args
    argparse.ArgumentParser.parse_args = tracer.span("cli.parse_args", parse_args)
    code = 1
    try:
        code = bmdlimits.cli.run(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        payload = tracer.to_payload()
        payload["rss_mb"] = {
            "self": peak_rss_kb() / 1024,
            "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
