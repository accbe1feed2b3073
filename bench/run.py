"""Run one benchmark workload and print its metrics as the last line.

    python3 bench/run.py --workload rewrite --seed 1 --seconds 25 --trace 0

Workloads: rewrite, axioms, tensor, cli (see bench/README.md).  With
``--trace 0`` the line holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The exit code is 1 when any job raises or
any output check fails, and 2 when the program's sources are missing.

Every workload process and every `mrb` child reads mrb's bytecode from a
cache under bench/_out/pycache, filled before anything is timed, as an
installed mrb would.  Set-up is measured in several fresh processes and the
median is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
WORKER = BENCH / "worker.py"
SETUP_SAMPLES = 5
TAIL_PCT = {"rewrite": 85, "axioms": 95, "tensor": 91, "cli": 85}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args, mode: str, seconds: float = 0) -> dict:
    cmd = [sys.executable, str(WORKER), args.workload, str(args.seed), str(seconds),
           str(args.trace), mode, str(OUT)]
    # a run ends at most one round past `seconds`; set-up and checks add little
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=3 * seconds + 120)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or (mode != "prime" and not lines):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process failed in {mode} mode (exit {proc.returncode})")
    return json.loads(lines[-1]) if lines else {}


def end_to_end(res: dict, setups: list[float], tail_pct: int) -> dict:
    times = res["times"]
    tail = statistics.quantiles(times, n=100, method="inclusive")[tail_pct - 1]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "jobs_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "job_p50_ms": {"value": statistics.median(times) * 1000, "unit": "ms"},
        "job_tail_ms": {"value": tail * 1000, "unit": "ms"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL_PCT))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in (ROOT / "src" / "mrb" / "cli.py", ROOT / "tests" / "golden" / "manifest.json")
               if not p.is_file()]
    if missing:
        print(f"benchmark needs the mrb sources; missing {missing[0]}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    worker(args, "prime")

    # a traced run reports no set-up time, so it takes no extra samples
    samples = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [worker(args, "setup")["setup_s"] for _ in range(samples)]
    res = worker(args, "run", args.seconds)
    setups.append(res["setup_s"])
    if not res["times"]:
        print("no job completed", file=sys.stderr)
        return 1

    e2e = end_to_end(res, setups, TAIL_PCT[args.workload])
    if args.trace:
        import spans

        metrics = {k: {"value": v, "unit": spans.UNITS[k]} for k, v in spans.per_layer(res["trace"]).items()}
    else:
        metrics = e2e
    # correct only when no job raised and no output check failed
    correct = not res["failed"] and not res["failures"]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_samples": setups, "end_to_end": e2e, **res}
    runs = OUT / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    for msg in res["failures"] + res["errors"]:
        print(f"{args.workload}: {msg}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
