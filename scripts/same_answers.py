#!/usr/bin/env python3
"""Same-answers harness: dump every answer of fixed case lists (blind
extraction, twin matching and a grid of CLI commands), then compare two dumps
field by field.

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
    weights ``geomspace(1, spread, 6)`` for spreads 1e-5, 1e-6, 1e-7, 3e-8,
    1e-8, 5e-9, 3e-9 and 1e-9 (where extraction refuses, or returns
    five-term reports that the match refuses), extraction seed i, plus
    ``certified``: 1 when the extraction
    matches its source under ``match_bidecomposition``, and ``refusal``
    ("Class: message") when that match is refused;
  * ``loose/<tol>/<s>/<form>``: ``generate_instance(4, 5, 5, seed=s)`` for
    s < 20, extracted with seed s and matched against its source at
    ``ToleranceConfig(t)`` for t = 1e-4, 1e-3 and 1e-2, plus
    ``certified`` and ``refusal`` as above.
A refused extraction stores ``refused`` (the error message) in place of the
extraction's fields.  It then runs three twin lists and stores, per case, the
permutation, the residual, the per-slot |overlap|s (n x slots) and both
weights of each matched pair:
  * ``twin-bi/<k>``: the criterion-2 list (``bi_cases(--count)`` at master
    seed 20000), each instance matched against its twin of seed + 1;
  * ``twin-tri/<k>``: the criterion-3 list (``tri_cases(--count)`` at master
    seed 30000), likewise;
  * ``bench-tri/<seed>/<k>``: ``purify`` of the benchmark's N = 1024 ``dense``
    instances for each of ``--bench-seeds``, matched against the benchmark's
    twins of them, likewise.
A refused twin match stores ``refused`` (the error message) in their place.
``reject-tri/<k>`` matches each instance of the criterion-3 list against a
copy with coefficient k % n times 1 + 10^-(2 + k % 7) (1e-2 down to 1e-8,
around the default ``eps``), and stores ``certified`` and, for a refused
match, ``refusal`` ("Class: message").
Last, ``cli/<k>`` runs ``cli.main`` in-process on a grid of commands over
every subcommand and profile, ``--twin-of``, ``--json``, the refusals and
``--tol`` on every subcommand (and on the ``check`` file kinds that read
none), for ``--cli-seeds`` seeds.  The commands run in
a fresh temporary directory with relative paths, so the paths they print are
the same in every dump.  Each stores its argv, exit code, stdout, stderr and
``files``: every file the command wrote or changed, as "name" and its text.

``compare A B`` prints, per case list and field, "identical" or the largest
entrywise and relative deviation, and names the cases that only one dump
holds or whose shapes differ.  It exits 0 when everything is identical and
1 otherwise.  It reads the dumps with numpy alone, so it runs without the
package on the path; ``dump`` imports it.

Run as a script, it pins BLAS to one thread before numpy is imported, since
the last bits of the N = 1024 extractions depend on the thread count.

Example:
    python scripts/same_answers.py dump before.npz
    python scripts/same_answers.py dump after.npz
    python scripts/same_answers.py compare before.npz after.npz
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import numpy as np  # noqa: E402 -- after the thread pin

ROOT = Path(__file__).resolve().parent.parent
MASTER_SEEDS = (20_000, 40_000)
SPREADS = (1e-5, 1e-6, 1e-7, 3e-8, 1e-8, 5e-9, 3e-9, 1e-9)
LOOSE_TOLS = (1e-4, 1e-3, 1e-2)
LOOSE_SEEDS = 20


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dense(dec):
    import proddecomp as pd

    return pd.StateOperator(dec.dims, pd.build_rho(dec).matrix)


def _forms(dec):
    import proddecomp as pd

    return (("factored", pd.build_rho(dec)), ("dense", _dense(dec)))


def _extract(out: dict, key: str, rho, seed: int, tol=None):
    import proddecomp as pd

    tol = tol or pd.DEFAULT_TOL
    try:
        report = pd.extract_decomposition(rho, tol, seed=seed)
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


def _certified(out: dict, key: str, source, rho, seed: int, tol=None):
    """Extract ``rho`` and store whether the result matches ``source`` at ``tol`` (the default
    tolerance if None) as ``certified``, and a refused match as ``refusal``, "Class: message"."""
    import proddecomp as pd

    tol = tol or pd.DEFAULT_TOL
    report = _extract(out, key, rho, seed, tol)
    ok = False
    if report is not None:
        try:
            pd.match_bidecomposition(source, report.decomposition, tol)
            ok = True
        except pd.ProddecompError as exc:
            out[f"{key}/refusal"] = np.array(f"{type(exc).__name__}: {exc}")
    out[f"{key}/certified"] = np.array(ok)
    return ok


def _store_match(out: dict, key: str, match, first, second) -> bool:
    """Match ``second`` against ``first`` and store the certificate's fields, or the refusal."""
    import proddecomp as pd

    try:
        result = match(first, second)
    except pd.ProddecompError as exc:
        out[f"{key}/refused"] = np.array(str(exc))
        return False
    overlaps = [[c.overlap_a, c.overlap_b, c.overlap_c][: len(first.stacks)] for c in result.per_term]
    fields = {
        "perm": result.permutation,
        "residual": result.residual,
        "overlaps": np.abs(np.array(overlaps)),
        "weight_first": [c.weight_first for c in result.per_term],
        "weight_second": [c.weight_second for c in result.per_term],
    }
    out.update({f"{key}/{name}": np.asarray(value) for name, value in fields.items()})
    return True


def _twins(out: dict, count: int, battery) -> int:
    """Match each instance of the criterion-2 and criterion-3 lists against its twin."""
    import proddecomp as pd

    lists = {
        "twin-bi": (
            pd.match_bidecomposition,
            [
                (pd.generate_instance(n, d1, d2, seed=seed, profile=profile), seed)
                for n, d1, d2, profile, seed in battery.bi_cases(count, 20_000)
            ],
        ),
        "twin-tri": (
            pd.match_tridecomposition,
            [
                (pd.generate_tri_instance(n, *dims, seed=seed, profile=profile), seed)
                for n, dims, profile, seed in battery.tri_cases(count, 30_000)
            ],
        ),
    }
    done = 0
    for group, (match, cases) in lists.items():
        for k, (dec, seed) in enumerate(cases):
            twin, _ = pd.phase_permuted_twin(dec, seed=seed + 1)
            done += _store_match(out, f"{group}/{k}", match, dec, twin)
    return done


def _rejections(out: dict, count: int, battery) -> int:
    """Match each instance of the criterion-3 list against a copy with one coefficient
    shifted; returns the count of refused matches."""
    import proddecomp as pd

    refused = 0
    for k, (n, dims, profile, seed) in enumerate(battery.tri_cases(count, 30_000)):
        tri = pd.generate_tri_instance(n, *dims, seed=seed, profile=profile)
        values = tri.values.copy()
        values[k % n] *= 1.0 + 10.0 ** -(2 + k % 7)
        shifted = pd.TriDecomposition._from_stacks(tri.dims, tri.stacks, values)
        key = f"reject-tri/{k}"
        try:
            pd.match_tridecomposition(tri, shifted)
            ok = True
        except pd.ProddecompError as exc:
            out[f"{key}/refusal"] = np.array(f"{type(exc).__name__}: {exc}")
            ok, refused = False, refused + 1
        out[f"{key}/certified"] = np.array(ok)
    return refused


def _ket(*amplitudes: complex) -> dict:
    return {"re": [z.real for z in map(complex, amplitudes)], "im": [z.imag for z in map(complex, amplitudes)]}


def _term(value: float | complex, kets: tuple) -> dict:
    """A file term: a float value as a weight "w", a complex one as a coefficient "coeff"."""
    if isinstance(value, complex):
        return {"coeff": {"re": value.real, "im": value.imag}, "kets": list(kets)}
    return {"w": value, "kets": list(kets)}


def _decomposition(dims: list[int], terms: list[tuple]) -> dict:
    return {"format_version": "1", "kind": "decomposition", "dims": dims, "terms": [_term(*t) for t in terms]}


#: Fixed input files of the CLI grid, written before its first command.
_E0, _E1 = _ket(1, 0), _ket(0, 1)
GRID_FILES = {
    # 0.6|00> + 0.8|11>: not factorable
    "ent.json": _decomposition([2, 2], [(0.6 + 0j, (_E0, _E0)), (0.8 + 0j, (_E1, _E1))]),
    # one product term with a complex coefficient: factorable
    "prod.json": _decomposition([1, 2], [(0.6 + 0.8j, (_ket(1), _ket(0.6, 0.8j)))]),
    # 0.6|000> + 0.8|111>, and its 2-factor recasts: product pair kets, and an entangled one
    "tri3.json": _decomposition([2, 2, 2], [(0.6 + 0j, (_E0, _E0, _E0)), (0.8 + 0j, (_E1, _E1, _E1))]),
    "pair4.json": _decomposition([4, 2], [(0.6 + 0j, (_ket(1, 0, 0, 0), _E0)), (0.8 + 0j, (_ket(0, 0, 0, 1), _E1))]),
    "ent4.json": _decomposition(
        [4, 2], [(0.6 + 0j, (_ket(0.5**0.5, 0, 0, 0.5**0.5), _E0)), (0.8 + 0j, (_ket(0, 0, 0, 1), _E1))]
    ),
    # a collinear a-set: the hypotheses fail
    "collinear.json": _decomposition([2, 2], [(0.5, (_E0, _E0)), (0.5, (_E0, _E1))]),
    # the maximally mixed operator on 2 x 2: not extractable
    "mixed.json": {
        "format_version": "1",
        "kind": "operator",
        "dims": [2, 2],
        "matrix": {"re": (np.eye(4) / 4).ravel().tolist(), "im": [0.0] * 16},
    },
}

#: (n, dims) of the generated instances, per profile
GRID_SIZES = {
    "both-independent": (3, "4,3"),
    "a-independent-only": (3, "4,2"),
    "b-independent-only": (3, "2,4"),
    "all-independent": (3, "4,3,4"),
    "a-dependent": (3, "2,4,4"),
    "b-dependent": (3, "4,2,4"),
    "c-dependent": (3, "4,4,2"),
}


def cli_grid(cli_seeds: int) -> list[str]:
    """The CLI commands, one string each; every path is relative to the work directory."""
    import proddecomp as pd

    grid = []
    for seed in range(cli_seeds):
        for profile, (n, dims) in GRID_SIZES.items():
            dec, mode = f"{profile}-{seed}.json", "bi" if profile in pd.BI_PROFILES else "tri"
            grid += [
                f"generate --n {n} --dims {dims} --profile {profile} --seed {seed} --out {dec}",
                f"generate --n {n} --dims {dims} --profile {profile} --seed {seed} --out {dec} --json",
                f"build {dec} --out op-{dec}",
                f"generate --twin-of {dec} --seed {seed + 1} --out twin-{dec}",
                f"match {dec} twin-{dec} --mode {mode}",
                f"match {dec} twin-{dec} --mode {mode} --json",
                f"check {dec}",
                f"check op-{dec} --json",
            ]
            if mode == "bi":
                grid += [
                    f"build {dec} --normalize --out op-{dec}",
                    f"extract op-{dec} --seed {seed + 2} --out ext-{dec}",
                    f"extract op-{dec} --seed {seed + 2} --out ext-{dec} --json",
                    f"match {dec} ext-{dec} --mode bi",
                    f"purify {dec} --out pur-{dec}",
                    f"purify {dec} --dim3 {n + 1} --out pur-{dec} --json",
                    f"check pur-{dec}",
                ]
    grid += [
        "generate --n 3 --dims 4,3 --seed 99 --out other.json",
        "match both-independent-0.json other.json --mode bi",
        "match both-independent-0.json a-independent-only-0.json --mode bi",
        "demo",
        "demo --json",
        "factorable ent.json",
        "factorable prod.json --json",
        "match pair4.json tri3.json --mode tri",
        "match ent4.json tri3.json --mode tri",
        "build tri3.json --out op-tri3.json",
        "check collinear.json",
        "match collinear.json collinear.json --mode bi",
        "extract mixed.json --out mixed-ext.json",
        "check missing.json",
        # refusals: sizes, profiles and seeds
        "generate --n 0 --dims 2,2 --out x.json",
        "generate --n 5 --dims 2,2 --out x.json",
        "generate --n 4 --dims 3,4,4 --out x.json",
        "generate --n 2 --dims 2,2 --profile c-dependent --out x.json",
        "generate --n 2 --dims 2,2,2 --profile both-independent --out x.json",
        "generate --n 2 --dims 2,2 --seed -1 --out x.json",
        "generate --twin-of both-independent-0.json --seed -1 --out x.json",
        "extract op-both-independent-0.json --seed -1 --out x.json",
        # --tol on every subcommand
        "generate --n 2 --dims 2,2 --out tol-dec.json --tol 1e-6",
        "build both-independent-0.json --out tol-op.json --tol 1e-6",
        "extract op-both-independent-0.json --out tol-ext.json --tol 1e-6",
        "match both-independent-0.json twin-both-independent-0.json --mode bi --tol 1e-6",
        "purify both-independent-0.json --out tol-pur.json --tol 1e-6",
        "factorable ent.json --tol 1e-6",
        "demo --tol 1e-6",
        "check both-independent-0.json --tol 1e-6",
        # --tol where check reads none: an operator file and a 2-factor coefficient file
        "check op-both-independent-0.json --tol 1e-6",
        "check ent.json --tol 1e-6",
    ]
    return grid


def _snapshot() -> dict[str, tuple[int, bytes]]:
    return {name: (os.stat(name).st_mtime_ns, Path(name).read_bytes()) for name in sorted(os.listdir("."))}


def _cli(out: dict, cli_seeds: int) -> dict[int, int]:
    """Run the CLI grid in a fresh work directory; returns the count of each exit code."""
    from proddecomp import cli

    codes: dict[int, int] = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, payload in GRID_FILES.items():
                Path(name).write_text(json.dumps(payload) + "\n")
            for k, command in enumerate(cli_grid(cli_seeds)):
                before = _snapshot()
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(command.split())
                written = [
                    f"{name}\n{data.decode('latin-1')}"
                    for name, (stamp, data) in _snapshot().items()
                    if before.get(name) != (stamp, data)
                ]
                fields = {"argv": command, "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
                out.update({f"cli/{k}/{name}": np.asarray(value) for name, value in fields.items()})
                out[f"cli/{k}/files"] = np.array(written, dtype=str)
                codes[code] = codes.get(code, 0) + 1
        finally:
            os.chdir(home)
    return codes


def dump(path: str, count: int, seeds: int, bench_seeds: list[int], cli_seeds: int) -> None:
    import proddecomp as pd

    battery = _load(ROOT / "scripts" / "uniqueness_battery.py")
    bi_cases = battery.bi_cases
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
                ok = _certified(out, f"ill/{spread:g}/{i}/{form}", source, rho, i)
                certified[form, spread] = certified.get((form, spread), 0) + ok
    spreads = "/".join(f"{s:g}" for s in SPREADS)
    for form in ("factored", "dense"):
        counts = "/".join(str(certified.get((form, s), 0)) for s in SPREADS)
        print(f"ill-conditioned, {form}: {counts} of {seeds} certified at spreads {spreads}")

    loose = {}
    for t in LOOSE_TOLS:
        tol = pd.ToleranceConfig(t)
        for s in range(LOOSE_SEEDS):
            source = pd.generate_instance(4, 5, 5, seed=s)
            for form, rho in _forms(source):
                ok = _certified(out, f"loose/{t:g}/{s}/{form}", source, rho, s, tol)
                loose[form, t] = loose.get((form, t), 0) + ok
    tols = "/".join(f"{t:g}" for t in LOOSE_TOLS)
    for form in ("factored", "dense"):
        counts = "/".join(str(loose.get((form, t), 0)) for t in LOOSE_TOLS)
        print(f"loose tolerances, {form}: {counts} of {LOOSE_SEEDS} certified at tolerances {tols}")
    print(f"{_twins(out, count, battery)} of {2 * count} twins matched")
    print(f"{_rejections(out, count, battery)} of {count} shifted tripartite copies refused")
    if bench_seeds:
        matched = total = 0
        for bench_seed in bench_seeds:
            for k, case in enumerate(workloads.dense_cases(pd, bench_seed)):
                key = f"bench-tri/{bench_seed}/{k}"
                matched += _store_match(out, key, pd.match_tridecomposition, case.tri, case.tri_twin)
                total += 1
        print(f"{matched} of {total} purified dense twins matched")
    codes = _cli(out, cli_seeds)
    tally = ", ".join(f"{codes[c]} exit {c}" for c in sorted(codes))
    print(f"{sum(codes.values())} CLI commands: {tally}")
    np.savez_compressed(path, **out)


def _deviation(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Largest entrywise |a - b|, and that over the largest |a| entry; booleans count as 0 and 1."""
    if a.dtype == bool:
        a, b = a.astype(int), b.astype(int)
    diff = float(np.max(np.abs(a - b), initial=0.0))
    scale = float(np.max(np.abs(a), initial=0.0))
    return diff, diff / scale if scale else np.inf


def _few(cases: list[str]) -> str:
    return ", ".join(cases[:5]) + (f" and {len(cases) - 5} more" if len(cases) > 5 else "")


def compare(first: str, second: str) -> int:
    with np.load(first) as fa, np.load(second) as fb:
        a, b = dict(fa), dict(fb)
    same = True
    # one line per case list (the key's first part: bi, bench, ill, loose, twin-bi, twin-tri, reject-tri,
    # bench-tri, cli) and field
    groups: dict[tuple[str, str], list[str]] = {}
    for key in sorted(a.keys() | b.keys()):
        case, field = key.rsplit("/", 1)
        groups.setdefault((case.split("/")[0], field), []).append(case)
    for (group, field), cases in groups.items():
        worst, worst_rel, differ, texts, apart = 0.0, 0.0, 0, [], []
        for case in cases:
            x, y = a.get(f"{case}/{field}"), b.get(f"{case}/{field}")
            if x is None or y is None or x.shape != y.shape:
                apart.append(case)  # refused by one, or a different term count
            elif not np.array_equal(x, y):
                differ += 1
                if x.dtype.kind == "U":
                    texts.append(case)
                else:
                    diff, rel = _deviation(x, y)
                    worst, worst_rel = max(worst, diff), max(worst_rel, rel)
        if not differ and not apart:
            print(f"{group} {field}: identical ({len(cases)} cases)")
            continue
        same = False
        line = f"{group} {field}: {differ} of {len(cases)} cases differ"
        if worst:
            line += f", largest deviation {worst:.3g}, relative {worst_rel:.3g}"
        if texts:
            line += f"; text differs in {_few(texts)}"
        if apart:
            line += f"; in one dump only or shaped differently: {_few(apart)}"
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
    d.add_argument("--cli-seeds", type=int, default=3, help="seeds of the CLI grid's generated instances")
    c = sub.add_parser("compare", help="compare two dumps field by field")
    c.add_argument("first")
    c.add_argument("second")
    args = parser.parse_args()
    if args.command == "compare":
        return compare(args.first, args.second)
    dump(args.out, args.count, args.seeds, [int(s) for s in args.bench_seeds.split(",") if s], args.cli_seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
