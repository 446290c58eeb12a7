"""Run ``larvaekit`` once with spans installed, then dump the trace.

Usage: ``python bench/traced_cli.py TRACE_JSON [larvaekit arguments...]``

This stands in for ``python -m larvaekit`` in traced passes. It times the
package import (``cli.import_s``), wraps the public functions listed in
``tracing.SPANS``, runs ``larvaekit.cli.main`` and writes the span
records and counters to TRACE_JSON, whatever the exit code.
"""

import json
import sys
import time

import tracing


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import larvaekit.cli  # noqa: F401 - loads every module the CLI binds

    import_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracer.install()
    code = 1
    try:
        code = larvaekit.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors and --version
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(trace_path, "w") as fh:
            json.dump(
                {
                    "import_s": import_s,
                    "records": tracer.records,
                    "counters": tracer.counters,
                    "missing": tracer.missing,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
