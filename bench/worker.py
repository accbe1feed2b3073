"""One workload in one fresh, single-threaded process.

    python3 bench/worker.py <workload> <seed> <seconds> <trace 0|1> <run|setup|prime> <out-dir>

Set-up runs from the first ``import mrb`` to the first timed job: the import,
then building and verifying the inputs.  ``setup`` mode stops there and
reports its time; ``prime`` only imports what a run imports, so that the
bytecode cache holds it.  ``run`` mode then runs whole rounds of jobs in a
closed loop with one caller, as many as fit in ``seconds`` and at least the
workload's minimum number, checks every output outside the timed call, and
prints one JSON line with the raw results.
"""

import sys
import time

T0 = time.perf_counter()
import mrb.cli  # noqa: E402,F401  (the import is part of set-up)

T_IMPORT = time.perf_counter() - T0

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    name, seed, seconds, trace, mode, out_dir = sys.argv[1:7]
    seed, seconds, trace, out_dir = int(seed), float(seconds), trace == "1", Path(out_dir)
    if mode == "prime":
        import spans  # noqa: F401
        import workloads  # noqa: F401

        return 0
    trace = trace and mode == "run"
    tracer = None
    if trace and name != "cli":
        # installed before the workload binds any mrb name
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    import workloads

    cls = workloads.WORKLOADS[name]
    if name == "cli":
        trace_dir = out_dir / f"trace-cli-seed{seed}" if trace else None
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
        workload = cls(seed, trace_dir)
    else:
        workload = cls(seed)
    setup_s = time.perf_counter() - T0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    self_timed = getattr(workload, "self_timed", False)
    times, labels, failures, errors, child_traces = [], [], [], [], []
    attempted = failed = rounds = 0
    clock = time.perf_counter
    start = clock()
    # whole rounds only; stop before a round that would end past `seconds`
    while rounds < workload.min_rounds or (clock() - start) * (rounds + 1) / rounds <= seconds:
        for label, run, check in workload.round():
            attempted += 1
            if tracer is not None:
                tracer.job = attempted
                tracer.enabled = True
            t = clock()
            try:
                out = run()
            except Exception:
                failed += 1
                errors.append(f"{label}: {traceback.format_exc(limit=3)}")
                continue
            finally:
                dt = clock() - t
                if tracer is not None:
                    tracer.enabled = False
            if self_timed:
                dt = out[2]["job_s"]
                if "trace" in out[2]:
                    child_traces.append(out[2]["trace"])
            times.append(dt)
            labels.append(label)
            try:
                fails = check(out)
            except Exception:
                fails = [f"checker raised: {traceback.format_exc(limit=3)}"]
            if fails:
                failures.append(f"{label}: {'; '.join(fails[:3])}")
        rounds += 1
    wall_s = clock() - start

    who = resource.RUSAGE_CHILDREN if self_timed else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "import_s": T_IMPORT,
        "times": times,
        "labels": labels,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "failures": failures[:20],
        "errors": errors[:5],
    }
    if trace:
        import spans

        if tracer is not None:
            raw = tracer.totals()
            raw["cli.import_s"] = T_IMPORT
            tracer.write(out_dir / f"trace-{name}-seed{seed}.trace")
            child_traces.append(raw)
        result["trace"] = spans.merge(child_traces)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
