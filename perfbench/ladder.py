#!/usr/bin/env python3
"""Reference per-layer ladder: one both-independent instance per N = d*d with n = d/2 terms.

Times operator assembly (``rho_matrix``), operator validation
(``StateOperator`` construction), ``extract_decomposition``,
``match_bidecomposition`` against a twin and ``match_tridecomposition`` of
the purification against its twin; median of ``REPEATS`` calls (one for
N > 1024).  Prints a table with the numpy and BLAS versions and the core
count, and writes it to ``.perfbench_out/ladder.json``.  BLAS is pinned to
one thread as in the workloads.  N = 4096 needs about 1.5 GB of memory.

    python3 perfbench/ladder.py
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from time import perf_counter

import run

#: Ambient dimensions N = d*d of the ladder.
SIZES = (64, 256, 1024, 2304, 4096)
#: Calls per cell for N <= 1024; larger sizes are called once.
REPEATS = 3


def _time(call, repeats: int):
    times, out = [], None
    for _ in range(repeats):
        start = perf_counter()
        out = call()
        times.append(perf_counter() - start)
    return statistics.median(times), out


def main() -> int:
    os.environ.update(run.BLAS_ENV)
    pd = run.import_program()
    import numpy as np

    import checks

    rng = np.random.default_rng(0)
    rows = []
    print("| N = d1*d2 (n terms) | rho_matrix | validate | extract | match_bi | match_tri |")
    print("| --- | --- | --- | --- | --- | --- |")
    for size in SIZES:
        d = int(round(size**0.5))
        n = d // 2
        repeats = REPEATS if size <= 1024 else 1
        dec = pd.generate_instance(n, d, d, seed=size)
        twin, _ = checks.twin(pd, dec, rng)
        tri = pd.purify(dec, n)
        tri_twin, _ = checks.twin(pd, tri, rng)
        row = {"N": size, "n": n}
        row["rho_matrix"], matrix = _time(lambda: pd.rho_matrix(dec), repeats)
        row["validate"], rho = _time(lambda: pd.StateOperator(dec.dims, matrix), repeats)
        del matrix
        row["extract"], _ = _time(lambda: pd.extract_decomposition(rho, seed=1), repeats)
        del rho
        row["match_bi"], _ = _time(lambda: pd.match_bidecomposition(dec, twin), repeats)
        row["match_tri"], _ = _time(lambda: pd.match_tridecomposition(tri, tri_twin), repeats)
        rows.append(row)
        cells = " | ".join(f"{row[k] * 1e3:.1f} ms" for k in ("rho_matrix", "validate", "extract", "match_bi", "match_tri"))
        print(f"| {size} ({n}) | {cells} |", flush=True)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "cores": os.cpu_count(),
        "blas_threads": run.BLAS_ENV["OPENBLAS_NUM_THREADS"],
    }
    print(json.dumps(env))
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "ladder.json").write_text(json.dumps({"env": env, "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
