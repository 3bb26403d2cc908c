#!/usr/bin/env python3
"""Benchmark of proddecomp: three closed-loop workloads with end-to-end and per-layer metrics.

Run every workload, each in a fresh process, untraced and then traced, and
print a table of the metrics:

    python3 perfbench/run.py [--seed 1] [--seconds 25]

Run one workload in this process and print its result as the last line, one
JSON object; ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a traced run:

    python3 perfbench/run.py --workload battery --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout this file sits in; no
install is needed.  BLAS is pinned to one thread.  Result and trace files are
written under ``.perfbench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("battery", "dense", "cli")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def import_program():
    """Import proddecomp from this checkout's ``src/``, never from elsewhere."""
    package = ROOT / "src" / "proddecomp"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import proddecomp

    if Path(proddecomp.__file__).resolve().parent != package:
        sys.exit(f"error: imported proddecomp from {proddecomp.__file__}, not from {package}")
    return proddecomp


def _result_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"result-{workload}-seed{seed}-trace{trace}.json"


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    pd = import_program()
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install(pd)
    try:
        run = workloads.run_workload(workload, pd, seed, seconds, str(OUT), tracer)
    finally:
        if tracer:
            tracer.uninstall()
    tally = run["tally"]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cases": tally.cases_run,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "errors": tally.errors,
        "pool": len(tally.times["case"]),
        "extract_tail": workloads.tail_ms(tally.per_case("extract")),
        "end_to_end": workloads.end_to_end(run),
    }
    metrics = record["end_to_end"]
    if tracer:
        metrics = record["per_layer"] = workloads.per_layer(run, tracer)
        tracer.write(str(OUT / f"trace-{workload}-seed{seed}.tsv"))
    _result_path(workload, seed, trace).write_text(json.dumps(record, indent=1) + "\n")
    for message in tally.errors:
        print(f"failed: {message}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.wrong == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, untraced then traced; print one table."""
    summary = {}
    for workload in WORKLOADS:
        records = []
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed)]
            argv += ["--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} (trace {trace}) exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode
            records.append(json.loads(_result_path(workload, seed, trace).read_text()))
        summary[workload] = records
        plain, traced = records
        print(f"\n== {workload}: {plain['cases']} cases, {plain['attempted']} operations attempted, "
              f"{plain['failed']} failed, outputs {'correct' if plain['wrong'] == 0 else 'WRONG'}")
        for name, (value, unit) in plain["end_to_end"].items():
            print(f"  {name:<20} {value:12.4f} {unit}")
        if plain["extract_tail"]:
            pct, value = plain["extract_tail"]
            print(f"  {'extract_ms_tail':<20} {value:12.4f} ms  (p{pct:.2f} over {plain['pool']} cases)")
        ratio = plain["end_to_end"]["cases_per_s"][0] / traced["end_to_end"]["cases_per_s"][0] - 1.0
        print(f"  tracing overhead     {100 * ratio:+11.2f} % of case time (traced minus untraced)")
        for name, (value, unit) in traced["per_layer"].items():
            print(f"  {name:<36} {value:12.4f} {unit}")
    (OUT / f"summary-seed{seed}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the benchmark's input generator")
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, report per-layer metrics")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
