#!/usr/bin/env python3
"""Same-answers harness for blind extraction: dump every answer of fixed
case lists, then compare two dumps field by field.

``dump OUT.npz`` runs three extraction lists and stores, per case, the side,
probes used, term count, reconstruction error, the a and b stacks and the
weights (keys ``<case>/<field>``):
  * ``bi/<master>/<k>/<form>``: the criterion-2 and criterion-4 case lists
    (``bi_cases(--count)`` at master seeds 20000 and 40000), each operator in
    factored and dense form, extraction seed = instance seed + 1;
  * ``bench/<seed>/<k>``: the benchmark's N = 1024 ``dense`` instances for each
    of ``--bench-seeds``, factored, with the benchmark's extraction seeds;
  * ``ill/<spread>/<i>/<form>``: ``generate_instance(6, 8, 8, seed=i)`` for
    i < ``--seeds``, the bipartite profiles in rotation, restacked with
    weights ``geomspace(1, spread, 6)`` for spreads 1e-5, 1e-6 and 1e-7,
    extraction seed i, plus ``certified``: 1 when the extraction matches its
    source under ``match_bidecomposition``.
A refused extraction stores ``refused`` (the error message) in place of the
extraction's fields.

``compare A B`` prints, per case list and field, "identical" or the largest
entrywise and relative deviation, and names the cases that only one dump
holds or whose shapes differ.  It exits 0 when everything is identical and
1 otherwise.

Example:
    python scripts/same_answers.py dump before.npz
    python scripts/same_answers.py dump after.npz
    python scripts/same_answers.py compare before.npz after.npz
"""

import argparse
import importlib.util
import sys
from pathlib import Path

import numpy as np

import proddecomp as pd

ROOT = Path(__file__).resolve().parent.parent
MASTER_SEEDS = (20_000, 40_000)
SPREADS = (1e-5, 1e-6, 1e-7)


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dense(dec: pd.ProductDecomposition) -> pd.StateOperator:
    return pd.StateOperator(dec.dims, pd.build_rho(dec).matrix)


def _forms(dec: pd.ProductDecomposition):
    return (("factored", pd.build_rho(dec)), ("dense", _dense(dec)))


def _extract(out: dict, key: str, rho: pd.StateOperator, seed: int):
    try:
        report = pd.extract_decomposition(rho, seed=seed)
    except pd.NotExtractable as exc:
        out[f"{key}/refused"] = np.array(str(exc))
        return None
    dec = report.decomposition
    fields = {
        "side": report.side,
        "probes": report.probes_used,
        "n": dec.n,
        "error": report.reconstruction_error,
        "a": dec.stacks[0],
        "b": dec.stacks[1],
        "values": dec.values,
    }
    out.update({f"{key}/{name}": np.asarray(value) for name, value in fields.items()})
    return report


def dump(path: str, count: int, seeds: int, bench_seeds: list[int]) -> None:
    bi_cases = _load(ROOT / "scripts" / "uniqueness_battery.py").bi_cases
    out: dict = {}
    errors = []
    for master in MASTER_SEEDS:
        for k, (n, d1, d2, profile, seed) in enumerate(bi_cases(count, master)):
            for form, rho in _forms(pd.generate_instance(n, d1, d2, seed=seed, profile=profile)):
                report = _extract(out, f"bi/{master}/{k}/{form}", rho, seed + 1)
                errors.append(np.inf if report is None else report.reconstruction_error)
    if bench_seeds:
        sys.path.append(str(ROOT / "perfbench"))
        import workloads

        for bench_seed in bench_seeds:
            for k, case in enumerate(workloads.dense_cases(pd, bench_seed)):
                report = _extract(out, f"bench/{bench_seed}/{k}", pd.build_rho(case.bi), case.extract_seed)
                errors.append(np.inf if report is None else report.reconstruction_error)
    print(f"{len(errors)} extractions, largest reconstruction error {max(errors, default=0.0):.3g}")

    certified = {}
    for spread in SPREADS:
        for i in range(seeds):
            base = pd.generate_instance(6, 8, 8, seed=i, profile=pd.BI_PROFILES[i % 3])
            source = pd.ProductDecomposition._from_stacks(base.dims, base.stacks, np.geomspace(1, spread, 6))
            for form, rho in _forms(source):
                key = f"ill/{spread:g}/{i}/{form}"
                report = _extract(out, key, rho, i)
                ok = False
                if report is not None:
                    try:
                        pd.match_bidecomposition(source, report.decomposition)
                        ok = True
                    except pd.ProddecompError:
                        pass
                out[f"{key}/certified"] = np.array(ok)
                certified[form, spread] = certified.get((form, spread), 0) + ok
    spreads = "/".join(f"{s:g}" for s in SPREADS)
    for form in ("factored", "dense"):
        counts = "/".join(str(certified.get((form, s), 0)) for s in SPREADS)
        print(f"ill-conditioned, {form}: {counts} of {seeds} certified at spreads {spreads}")
    np.savez_compressed(path, **out)


def _deviation(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Largest entrywise |a - b|, and that over the largest |a| entry."""
    diff = float(np.max(np.abs(a - b), initial=0.0))
    scale = float(np.max(np.abs(a), initial=0.0))
    return diff, diff / scale if scale else np.inf


def compare(first: str, second: str) -> int:
    with np.load(first) as fa, np.load(second) as fb:
        a, b = dict(fa), dict(fb)
    same = True
    # one line per case list (the key's first part: bi, bench, ill) and field
    groups: dict[tuple[str, str], list[str]] = {}
    for key in sorted(a.keys() | b.keys()):
        case, field = key.rsplit("/", 1)
        groups.setdefault((case.split("/")[0], field), []).append(case)
    for (group, field), cases in groups.items():
        worst, worst_rel, differ, apart = 0.0, 0.0, 0, []
        for case in cases:
            x, y = a.get(f"{case}/{field}"), b.get(f"{case}/{field}")
            if x is None or y is None or x.shape != y.shape:
                apart.append(case)  # refused by one, or a different term count
            elif not np.array_equal(x, y):
                differ += 1
                if x.dtype.kind != "U":
                    diff, rel = _deviation(x, y)
                    worst, worst_rel = max(worst, diff), max(worst_rel, rel)
        if not differ and not apart:
            print(f"{group} {field}: identical ({len(cases)} cases)")
            continue
        same = False
        line = f"{group} {field}: {differ} of {len(cases)} cases differ"
        if worst:
            line += f", largest deviation {worst:.3g}, relative {worst_rel:.3g}"
        if apart:
            line += f"; in one dump only or shaped differently: {', '.join(apart[:5])}"
            line += f" and {len(apart) - 5} more" if len(apart) > 5 else ""
        print(line)
    return 0 if same else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="run the case lists and write their answers")
    d.add_argument("out", help="output .npz file")
    d.add_argument("--count", type=int, default=200, help="cases per bi_cases list")
    d.add_argument("--seeds", type=int, default=400, help="seeds per spread of the ill-conditioned grid")
    d.add_argument(
        "--bench-seeds", default="1,3,7", help="comma-separated seeds of the benchmark's dense instances ('' for none)"
    )
    c = sub.add_parser("compare", help="compare two dumps field by field")
    c.add_argument("first")
    c.add_argument("second")
    args = parser.parse_args()
    if args.command == "compare":
        return compare(args.first, args.second)
    dump(args.out, args.count, args.seeds, [int(s) for s in args.bench_seeds.split(",") if s])
    return 0


if __name__ == "__main__":
    sys.exit(main())
