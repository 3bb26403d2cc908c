"""The three closed-loop workloads: battery, dense and cli.

Every workload runs the same four operation kinds back to back, one caller,
each case after the previous one completes:

* ``certify_bi``: match a bipartite decomposition against a permuted, phased twin;
* ``certify_tri``: match a tripartite decomposition against its twin;
* ``extract``: build the operator, extract a decomposition blindly and match
  it against the planted one;
* ``reject``: match against a non-equivalent copy, which must raise
  ``OperatorMismatch`` (exit 5 on the command line).

The workloads differ in size and in the path they take: ``battery`` runs many
small instances through the library, ``dense`` runs N = 1024 operators through
the library, and ``cli`` runs N = 256 operators through ``cli.main`` with
files.  A run makes whole passes over a fixed pool of cases until
``seconds`` have elapsed, so the mix of cases, and every count per case,
is the same whatever the run length.  Only the program's calls are timed;
the checks in :mod:`checks` run outside the timers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import tempfile
from collections import defaultdict
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import checks
import spans
from checks import CheckFailed
from speed import Speed

OPS = ("certify_bi", "certify_tri", "extract", "reject")

#: Set-up (input generation plus warm-up) is repeated this often; its median is reported.
SETUP_REPEATS = 5
#: A run makes at least this many passes, so each case's median has three samples
#: (a dense pass takes about 10 s).
MIN_PASSES = 3

#: Cases in the battery pool: a multiple of 12, so both profile rotations are whole.
BATTERY_CASES = 96
#: Seed of the fixed stream that battery sizes are drawn from (see :func:`battery_cases`).
BATTERY_SIZE_SEED = 2001
#: Dense operators: 32 x 32 factors (N = 1024) with 16 terms.
DENSE_DIMS, DENSE_N = (32, 32), 16
#: Command-line operators: 16 x 16 factors (N = 256) with 8 terms; two cases per profile.
CLI_DIMS, CLI_N, CLI_CASES = (16, 16), 8, 6

_DEP_SLOT = {"all-independent": None, "a-dependent": 0, "b-dependent": 1, "c-dependent": 2}


class Tally:
    """Operations attempted and failed, and the time of each that succeeded, per case.

    A case's time is the sum of its operations' times; a case with a failed
    operation is left out of the case times, so that an operation failing
    fast cannot make cases look faster.  With a ``speed``, times are scaled
    to reference-machine time, measured before each operation and, for one
    that ran longer than the calibration interval, after it too; the two
    scales are averaged.  Without one (for warm-up and tests) times stay as
    measured.
    """

    def __init__(self, speed: Speed | None = None) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.cases_run = 0
        self.errors: list[str] = []
        self.times: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.speed = speed
        self._case, self._elapsed, self._case_failed = 0, 0.0, False

    def begin(self, case: int) -> None:
        self._case, self._elapsed, self._case_failed = case, 0.0, False

    def end(self) -> None:
        self.cases_run += 1
        if not self._case_failed:
            self.times["case"][self._case].append(self._elapsed)

    def _fail(self, kind: str, message: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += wrong
        self._case_failed = True
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {message}")

    def op(self, kind: str, call, check=None, reject=None):
        """Time ``call``; then check its output, or for a rejection its exception.

        ``reject`` is the exception type a rejection must raise; any other
        exception is a failed operation, and a rejection that returns (a
        certificate for a non-equivalent pair) is a wrong output.  A wrong
        output is a failed operation too, and marks the run incorrect.
        """
        self.attempted += 1
        scale = self.speed.update() if self.speed else 1.0
        start = perf_counter()
        try:
            out = call()
        except Exception as exc:  # a raised error fails the operation, not the run
            elapsed = perf_counter() - start
            if reject is None or not isinstance(exc, reject):
                self._fail(kind, repr(exc))
                return None
            out = None
        else:
            elapsed = perf_counter() - start
            if reject is not None:
                self._fail(kind, f"expected {reject.__name__}, got {out!r}", wrong=True)
                return None
        if self.speed:
            elapsed *= (scale + self.speed.update()) / 2
        try:
            if check is not None:
                check(out)
        except CheckFailed as exc:
            self._fail(kind, str(exc), wrong=True)
            return None
        self._elapsed += elapsed
        self.times[kind][self._case].append(elapsed)
        return out

    def per_case(self, kind: str) -> list[float]:
        """Per case of the pool, the median time of ``kind`` over the passes."""
        return [statistics.median(v) for v in self.times[kind].values()]


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(workload.encode())])


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3


def tail_ms(values: list[float]) -> tuple[float, float] | None:
    """(percentile, ms) of the highest percentile with ten samples beyond it; None below 40 samples."""
    if len(values) < 40:
        return None
    ordered = sorted(values)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11] * 1e3


# ---------------------------------------------------------------------------
# library cases: battery and dense


def _bi_size(rng, profile: str) -> tuple[int, int, int]:
    """Acceptance-battery mix: n <= 6, factor dims <= 8, feasible for the profile."""
    n = int(rng.integers(2 if profile == "both-independent" else 3, 7))
    lo1 = 2 if profile == "b-independent-only" else n
    lo2 = 2 if profile == "a-independent-only" else n
    return n, int(rng.integers(lo1, 9)), int(rng.integers(lo2, 9))


def _tri_size(rng, profile: str) -> tuple[int, tuple[int, int, int]]:
    dep = _DEP_SLOT[profile]
    n = int(rng.integers(2 if dep is None else 3, 7))
    return n, tuple(int(rng.integers(2 if s == dep else n, 9)) for s in range(3))


class LibraryCase:
    """One case's inputs for the library workloads, with their expected answers."""

    def __init__(self, pd, rng, bi, tri, reject_tri: bool) -> None:
        self.bi, self.tri = bi, tri
        self.bi_arrays = checks.arrays(bi)
        self.tri_arrays = checks.arrays(tri)
        self.bi_twin, self.bi_perm = checks.twin(pd, bi, rng)
        self.tri_twin, self.tri_perm = checks.twin(pd, tri, rng)
        self.bi_twin_arrays = checks.arrays(self.bi_twin)
        self.tri_twin_arrays = checks.arrays(self.tri_twin)
        source = tri if reject_tri else bi
        self.reject_pair = (source, checks.shifted(pd, source, rng))
        self.reject_matcher = "match_tridecomposition" if reject_tri else "match_bidecomposition"
        self.extract_seed = int(rng.integers(2**31))

    def run(self, pd, tally: Tally) -> None:
        tally.op(
            "certify_bi",
            lambda: pd.match_bidecomposition(self.bi, self.bi_twin),
            lambda r: checks.check_certificate(r, self.bi_arrays, self.bi_twin_arrays, self.bi_perm),
        )
        tally.op(
            "certify_tri",
            lambda: pd.match_tridecomposition(self.tri, self.tri_twin),
            lambda r: checks.check_certificate(r, self.tri_arrays, self.tri_twin_arrays, self.tri_perm),
        )

        def extract():
            report = pd.extract_decomposition(pd.build_rho(self.bi), seed=self.extract_seed)
            return report, pd.match_bidecomposition(self.bi, report.decomposition)

        def check_extract(out):
            report, result = out
            extracted = checks.arrays(report.decomposition)
            perm = checks.check_extraction(self.bi_arrays, extracted)
            checks.check_certificate(result, self.bi_arrays, extracted, perm)

        tally.op("extract", extract, check_extract)
        matcher = getattr(pd, self.reject_matcher)
        tally.op("reject", lambda: matcher(*self.reject_pair), reject=pd.OperatorMismatch)


def battery_cases(pd, seed: int, count: int = BATTERY_CASES) -> list[LibraryCase]:
    """Small instances, bipartite profiles in rotation of 3 and tripartite in rotation of 4.

    Sizes come from a fixed stream, so every seed runs the same size mix
    and the seed draws only the instances: otherwise the median over 96
    random sizes moves by several per cent from seed to seed.
    """
    sizes = np.random.default_rng(BATTERY_SIZE_SEED)
    rng = _rng(seed, "battery")
    cases = []
    for i in range(count):
        bi_profile = pd.BI_PROFILES[i % 3]
        n, d1, d2 = _bi_size(sizes, bi_profile)
        bi = pd.generate_instance(n, d1, d2, seed=int(rng.integers(2**31)), profile=bi_profile)
        tri_profile = pd.TRI_PROFILES[i % 4]
        m, dims = _tri_size(sizes, tri_profile)
        tri = pd.generate_tri_instance(m, *dims, seed=int(rng.integers(2**31)), profile=tri_profile)
        cases.append(LibraryCase(pd, rng, bi, tri, reject_tri=bool(i % 2)))
    return cases


def dense_cases(pd, seed: int, dims=DENSE_DIMS, n: int = DENSE_N) -> list[LibraryCase]:
    """One operator per bipartite profile; the tripartite operand is its purification."""
    rng = _rng(seed, "dense")
    cases = []
    for profile in pd.BI_PROFILES:
        bi = pd.generate_instance(n, *dims, seed=int(rng.integers(2**31)), profile=profile)
        cases.append(LibraryCase(pd, rng, bi, pd.purify(bi, n), reject_tri=False))
    return cases


# ---------------------------------------------------------------------------
# command-line cases


class CliExit(Exception):
    """``cli.main`` returned a nonzero exit code."""


class CliMismatch(CliExit):
    """``cli.main`` exited with code 5, operator mismatch."""


def _cli(cli, *argv: str) -> str:
    """Run one command in-process; return its standard output or raise on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        raise (CliMismatch if code == 5 else CliExit)(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _certificate(text: str):
    """Permutation and per-term weights of a ``match`` output, JSON or text."""
    if text.startswith("{"):
        data = json.loads(text)
        weights = [(t["weight_first"], t["weight_second"]) for t in data["per_term"]]
        perm = data["permutation"]
    else:
        lines = text.splitlines()
        perm = json.loads(lines[1].split(":", 1)[1])
        weights = [(float(row.split()[-2]), float(row.split()[-1])) for row in lines[3:]]
    return SimpleNamespace(
        permutation=tuple(perm),
        per_term=[SimpleNamespace(weight_first=a, weight_second=b) for a, b in weights],
    )


class CliCase:
    """One pass of the file cycle through ``cli.main`` in a work directory.

    generate -> build -> extract -> match --json (planted vs extracted) ->
    generate --twin-of -> match (twin) -> match (weight-shifted copy, exit 5)
    -> purify -> generate --twin-of -> match --mode tri.
    """

    def __init__(self, rng, profile: str, workdir: str) -> None:
        dims = ",".join(map(str, CLI_DIMS))
        self.generate = ["generate", "--n", str(CLI_N), "--dims", dims, "--profile", profile]
        self.seeds = [str(int(s)) for s in rng.integers(2**31, size=4)]
        self.shift_rng = np.random.default_rng(int(rng.integers(2**31)))
        self.workdir = workdir

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def run(self, cli, tally: Tally) -> None:
        p = self._path
        gen_seed, extract_seed, twin_seed, tri_twin_seed = self.seeds
        planted = []
        tally.op(
            "generate",
            lambda: _cli(cli, *self.generate, "--seed", gen_seed, "--out", p("planted.json")),
            lambda _: planted.append(checks.file_arrays(p("planted.json"))),
        )
        if not planted:
            return
        planted = planted[0]

        def extract():
            _cli(cli, "build", p("planted.json"), "--out", p("rho.json"))
            _cli(cli, "extract", p("rho.json"), "--seed", extract_seed, "--out", p("extracted.json"))
            return _cli(cli, "match", p("planted.json"), p("extracted.json"), "--mode", "bi", "--json")

        def check_extract(out):
            extracted = checks.file_arrays(p("extracted.json"))
            perm = checks.check_extraction(planted, extracted)
            checks.check_certificate(_certificate(out), planted, extracted, perm)

        tally.op("extract", extract, check_extract)

        def certify(source: str, seed: str, mode: str):
            _cli(cli, "generate", "--twin-of", p(source), "--seed", seed, "--out", p("twin.json"))
            return _cli(cli, "match", p(source), p("twin.json"), "--mode", mode)

        def check_twin(source, out):
            twin = checks.file_arrays(p("twin.json"))
            checks.check_certificate(_certificate(out), source, twin, checks.pairing(source, twin))

        tally.op("certify_bi", lambda: certify("planted.json", twin_seed, "bi"), lambda out: check_twin(planted, out))
        _write_shifted(p("planted.json"), p("shifted.json"), self.shift_rng)
        tally.op("reject", lambda: _cli(cli, "match", p("planted.json"), p("shifted.json"), "--mode", "bi"), reject=CliMismatch)

        def certify_tri():
            _cli(cli, "purify", p("planted.json"), "--out", p("tri.json"))
            return certify("tri.json", tri_twin_seed, "tri")

        def check_tri(out):
            tri = checks.file_arrays(p("tri.json"))
            w, (a, b) = planted
            purified = (np.sqrt(w), [a, b, np.eye(tri[1][2].shape[0])[:, : len(w)]])
            checks.check_pairing(purified, tri, tuple(range(len(w))))
            check_twin(tri, out)

        tally.op("certify_tri", certify_tri, check_tri)


def _write_shifted(source: str, dest: str, rng) -> None:
    """Copy a weight-form decomposition file with one weight scaled (not equivalent)."""
    with open(source, encoding="utf-8") as fh:
        data = json.load(fh)
    data["terms"][int(rng.integers(len(data["terms"])))]["w"] *= checks.SHIFT
    with open(dest, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def cli_cases(pd, seed: int, workdir: str) -> list[CliCase]:
    """Profiles in rotation, two cases each."""
    rng = _rng(seed, "cli")
    return [CliCase(rng, pd.BI_PROFILES[i % 3], workdir) for i in range(CLI_CASES)]


# ---------------------------------------------------------------------------
# runs

def _library(pd, make_pool, make_warm):
    def setup():
        pool = make_pool()
        make_warm().run(pd, Tally())
        return pool

    return setup, lambda case, tally: case.run(pd, tally)


def _plan(name: str, pd, seed: int, workdir: str):
    """(set-up, run one case) for a workload."""
    if name == "battery":
        return _library(pd, lambda: battery_cases(pd, seed), lambda: battery_cases(pd, seed + 1, count=1)[0])
    if name == "dense":
        # warm up on a smaller operator: a dense case takes seconds
        return _library(pd, lambda: dense_cases(pd, seed), lambda: dense_cases(pd, seed + 1, dims=(16, 16), n=8)[0])
    if name == "cli":
        from proddecomp import cli

        def setup():
            pool = cli_cases(pd, seed, workdir)
            pool[0].run(cli, Tally())
            return pool

        return setup, lambda case, tally: case.run(cli, tally)
    raise ValueError(f"unknown workload {name!r}")


def run_workload(name: str, pd, seed: int, seconds: float, workroot: str, tracer=None) -> dict:
    """Set up, then run whole passes over the pool until ``seconds`` have elapsed
    and at least ``MIN_PASSES`` passes are done.

    The calibration operand stays resident all run and is left out of
    ``peak_rss_mb``.  Set-up is timed ``SETUP_REPEATS`` times: once before the first pass and
    then between passes, spread over the run, so that one slow stretch of
    the machine does not move every sample; the first set-up's pool is the
    one run.  ``passes`` lists the span-index range of each pass, so that a
    traced run's per-layer figures leave set-up out.
    """
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=workroot)
    nspans = (lambda: len(tracer.spans)) if tracer else (lambda: 0)
    try:
        setup, run_case = _plan(name, pd, seed, workdir)
        tally = Tally(Speed(large=name == "dense"))
        # set-up is Python and small-array work on every workload, so the kernel
        # without the large operand calibrates it; on dense that halves its spread
        setup_speed = Speed()
        pool, first_setup = _timed(setup, setup_speed)
        setup_times = [first_setup]
        passes = []
        start = perf_counter()
        while True:
            first = nspans()
            for i, case in enumerate(pool):
                tally.begin(i)
                run_case(case, tally)
                tally.end()
            passes.append((first, nspans()))
            elapsed = perf_counter() - start
            if elapsed >= seconds and len(passes) >= MIN_PASSES:
                break
            if len(setup_times) < SETUP_REPEATS and elapsed >= len(setup_times) * seconds / SETUP_REPEATS:
                setup_times.append(_timed(setup, setup_speed)[1])
        setup_times += [_timed(setup, setup_speed)[1] for _ in range(SETUP_REPEATS - len(setup_times))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "setup_s": statistics.median(setup_times),
        "tally": tally,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - tally.speed.operand_mb(),
    }


def _timed(call, speed: Speed):
    """``call()`` and its time in reference-machine seconds."""
    scale = speed.update(force=True)
    start = perf_counter()
    out = call()
    elapsed = perf_counter() - start
    return out, elapsed * (scale + speed.update()) / 2


def end_to_end(run: dict) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric as (value, unit).

    Times are in reference-machine time (see :mod:`speed`), taken per case
    of the pool as the median over the passes.
    """
    tally = run["tally"]
    case_s = tally.per_case("case")
    out = {
        "setup_s": (run["setup_s"], "s"),
        "cases_per_s": (len(case_s) / sum(case_s), "1/s"),
        "case_ms_p50": (_median_ms(case_s), "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    for kind in OPS:
        out[f"{kind}_ms_p50"] = (_median_ms(tally.per_case(kind)), "ms")
    return out


def per_layer(run: dict, tracer) -> dict[str, tuple[float, str]]:
    """Self time per case of each traced layer over the timed passes, and per-case counts.

    ``decomp.generate.ms`` is per generated instance over the whole run,
    set-up included, since the library workloads generate only in set-up.
    """
    cases = run["tally"].cases_run
    timed = tracer.summary(run["passes"])
    zero = {"self_s": 0.0, "calls": 0, "value": 0, "returned": 0}

    def row(name: str) -> dict:
        return timed.get(name, zero)

    out = {f"{name}.ms": (row(name)["self_s"] * 1e3 / cases, "ms") for name in spans.LAYER_NAMES}
    generate = tracer.summary().get("decomp.generate", zero)
    out["decomp.generate.ms"] = (generate["self_s"] * 1e3 / max(generate["calls"], 1), "ms")
    extract = row("decomp.extract")
    out["tensor.validate.calls"] = (row("tensor.validate")["calls"] / cases, "count")
    out["decomp.extract.probes"] = (extract["value"] / cases, "count")
    out["decomp.extract.success_per_probe"] = (2 * extract["returned"] / extract["value"] if extract["value"] else 0.0, "ratio")
    out["fileio.bytes_written"] = (row("fileio.save")["value"] / cases, "B")
    return out

