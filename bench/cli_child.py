"""One `mrb` call in a fresh interpreter, timed from inside.

    python3 bench/cli_child.py <trace-path or -> <mrb argv...>

The report goes to stdout exactly as `mrb` writes it and the exit code is
mrb's.  The last line of stderr is a JSON object with the job time (from just
before ``import mrb.cli`` to the return of ``cli.main``), the import time, and
with a trace path, the raw per-layer sums; the spans go to that path.
"""

import sys
import time

T0 = time.perf_counter()
from mrb import cli  # noqa: E402

T_IMPORT = time.perf_counter()


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    sys.argv = ["mrb", *argv]
    tracer = None
    if trace_path != "-":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.job = 0
        tracer.enabled = True
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    t_end = time.perf_counter()
    import json

    info = {"job_s": t_end - T0, "import_s": T_IMPORT - T0}
    if tracer is not None:
        tracer.enabled = False
        raw = tracer.totals()
        raw["cli.import_s"] = info["import_s"]
        info["trace"] = raw
        tracer.write(trace_path)
    sys.stderr.write(json.dumps(info) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
