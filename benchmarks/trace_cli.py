"""Run the npconvex CLI with the benchmark's wrappers installed.

    python3 benchmarks/trace_cli.py TRACE_FILE solve --data ... [CLI args]

Behaves like `python -m npconvex ...` (same stdout, stderr and exit code)
and writes the spans and counts it recorded to TRACE_FILE as JSON.  The
spans hang under the span named by NPBENCH_TRACE_PARENT and carry the op
id in NPBENCH_TRACE_OP, so the caller can merge them into its own trace.
"""

import time

_start = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from npconvex import cli  # noqa: E402

_imported = time.perf_counter()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    parent = os.environ.get("NPBENCH_TRACE_PARENT")
    op = int(os.environ.get("NPBENCH_TRACE_OP", "0"))
    tr = tracing.Tracer(prefix=f"cli{os.getpid()}-", root_parent=parent, op=op)
    tr.spans.append((f"cli{os.getpid()}-0", "cli.import", _start, _imported, parent, op))
    tracing.install(tr)
    tracing.install_cli(tr)
    try:
        with tr.span("cli.main"):
            code = cli.main(argv)
    finally:
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"spans": tr.spans, "counts": dict(tr.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
