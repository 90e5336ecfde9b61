"""Run the rigid3d CLI with the benchmark's tracer installed.

Usage: python cli_launcher.py SPANS_FILE CLI_ARG...

Times ``import rigid3d.cli``, installs the tracer, calls
``rigid3d.cli.main()`` and, on exit, writes the spans and the import time
to SPANS_FILE. Standard output and the exit code are the CLI's own.
"""

import sys
import time


def main() -> None:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter_ns()
    import rigid3d.cli

    import_ns = time.perf_counter_ns() - t0
    import tracing  # after the timed import: it loads numpy itself

    tracer = tracing.Tracer()
    tracer.op = 0
    sys.argv = ["rigid3d", *argv]
    code = 0
    try:
        with tracer:
            rigid3d.cli.main()
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.spans().save(out, import_ns=import_ns)
    sys.exit(code)


if __name__ == "__main__":
    main()
