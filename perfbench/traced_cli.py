"""Run the maninforge CLI with spans recorded, then write them to a file.

    python3 perfbench/traced_cli.py --trace-out FILE --request ID -- ARGS...

ARGS are passed to `maninforge` unchanged; the exit code is the CLI's.
The time to import `maninforge.cli` is recorded as the count `cli.import_s`.
Run from the root of a checkout: the program is imported from `src/`.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def main(argv):
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    trace_out = opts[opts.index("--trace-out") + 1]
    request = opts[opts.index("--request") + 1]

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    t0 = time.perf_counter()
    import maninforge.cli as cli
    import_s = time.perf_counter() - t0

    import tracer as tracing

    tracer = tracing.Tracer().install()
    tracer.counts["cli.import_s"] = import_s
    tracer.request = request
    code = 0
    try:
        cli.main.main(args=cli_args, prog_name="maninforge")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.uninstall()
        tracing.write(trace_out, tracer.spans, tracer.counts)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
