#!/usr/bin/env python3
"""Seeded uniqueness batteries over random instances.

Runs three experiments and prints per-battery statistics:
  * bipartite matching of permuted/phased twins,
  * tripartite matching across independence profiles,
  * blind extraction checked against the planted ground truth.

The case lists come from bi_cases and tri_cases, which the acceptance
suite (tests/test_acceptance.py) also draws its batteries from.

Exits 1, naming the battery, when any battery matches fewer than --count
instances, and 0 otherwise.

Example:
    python scripts/uniqueness_battery.py --count 500 --seed 1
"""

import argparse
import sys
import time

import numpy as np

import proddecomp as pd


def bi_cases(count: int, master_seed: int) -> list[tuple[int, int, int, str, int]]:
    """Deterministic (n, d1, d2, profile, seed) cases with n <= 6 and dims <= 8,
    cycling the bipartite profiles; the slot that must hold n independent
    kets draws its dim first."""
    rng = np.random.default_rng(master_seed)
    cases = []
    for i in range(count):
        profile = pd.BI_PROFILES[i % 3]
        n = int(rng.integers(2 if profile == "both-independent" else 3, 7))
        first = int(rng.integers(n, 9))
        second = int(rng.integers(n if profile == "both-independent" else 2, 9))
        d1, d2 = (second, first) if profile == "b-independent-only" else (first, second)
        cases.append((n, d1, d2, profile, int(rng.integers(0, 2**31))))
    return cases


def tri_cases(count: int, master_seed: int) -> list[tuple[int, tuple[int, int, int], str, int]]:
    """Deterministic (n, dims, profile, seed) cases with n <= 6 and dims <= 8,
    cycling the tripartite profiles."""
    rng = np.random.default_rng(master_seed)
    cases = []
    for i in range(count):
        profile = pd.TRI_PROFILES[i % 4]
        dep = {"all-independent": None, "a-dependent": 0, "b-dependent": 1, "c-dependent": 2}[profile]
        n = int(rng.integers(2 if dep is None else 3, 7))
        dims = tuple(int(rng.integers(2 if s == dep else n, 9)) for s in range(3))
        cases.append((n, dims, profile, int(rng.integers(0, 2**31))))
    return cases


def bi_battery(count: int, master_seed: int) -> tuple[int, float]:
    worst = 0.0
    ok = 0
    for n, d1, d2, profile, seed in bi_cases(count, master_seed):
        dec = pd.generate_instance(n, d1, d2, seed=seed, profile=profile)
        twin, perm = pd.phase_permuted_twin(dec, seed=seed + 1)
        result = pd.match_bidecomposition(dec, twin)
        if result.permutation == perm:
            ok += 1
            worst = max(worst, result.residual)
    return ok, worst


def tri_battery(count: int, master_seed: int) -> tuple[int, float]:
    worst = 0.0
    ok = 0
    for n, dims, profile, seed in tri_cases(count, master_seed):
        tri = pd.generate_tri_instance(n, *dims, seed=seed, profile=profile)
        twin, perm = pd.phase_permuted_twin(tri, seed=seed + 1)
        result = pd.match_tridecomposition(tri, twin)
        if result.permutation == perm:
            ok += 1
            worst = max(worst, result.residual)
    return ok, worst


def extraction_battery(count: int, master_seed: int) -> tuple[int, float]:
    worst = 0.0
    ok = 0
    for n, d1, d2, profile, seed in bi_cases(count, master_seed):
        dec = pd.generate_instance(n, d1, d2, seed=seed, profile=profile)
        report = pd.extract_decomposition(pd.build_rho(dec), seed=seed + 1)
        result = pd.match_bidecomposition(dec, report.decomposition)
        if result.n == n:
            ok += 1
            worst = max(worst, max(report.reconstruction_error, result.residual))
    return ok, worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200, help="instances per battery")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    args = parser.parse_args()

    start = time.perf_counter()
    matched = {}
    ok, worst = bi_battery(args.count, args.seed)
    matched["bipartite twins"] = ok
    print(f"bipartite twins:   {ok}/{args.count} matched, worst residual {worst:.3e}")
    ok, worst = tri_battery(args.count, args.seed + 1)
    matched["tripartite twins"] = ok
    print(f"tripartite twins:  {ok}/{args.count} matched, worst residual {worst:.3e}")
    ok, worst = extraction_battery(args.count, args.seed + 2)
    matched["blind extraction"] = ok
    print(f"blind extraction:  {ok}/{args.count} certified, worst error {worst:.3e}")
    print(f"elapsed: {time.perf_counter() - start:.2f}s")
    short = [name for name, ok in matched.items() if ok < args.count]
    for name in short:
        print(f"FAILED: {name}: {matched[name]}/{args.count} instances")
    return 1 if short else 0


if __name__ == "__main__":
    sys.exit(main())
