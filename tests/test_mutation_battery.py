"""Mutation battery at the file doors.

Four valid files (a bipartite weight file, a 3 x 3 x 3 coefficient file, a
``purify`` output and an N = 9 operator file) are mutated, by replacing,
deleting or duplicating one to three JSON nodes or by scaling one number, and
scaled whole by 10^k for k across [-320, 308].  Every applicable subcommand
then runs in-process through ``cli.main`` with warnings as errors.  Every run
must end in an exit code of 0, 2, 3, 4 or 5 with no escaping exception; a
refusal prints exactly one ``error:`` line and writes no output file; and a
file whose numbers are all finite is never called "non-finite entries".
"""

import contextlib
import copy
import io
import json
import math
import random
import warnings

import proddecomp as pd
from proddecomp import fileio
from proddecomp.cli import main

#: The subcommands that read each kind of file; {f} is the file under test,
#: {src} its valid source and {out} a fresh output path.
_COMMANDS = {
    "weight": (
        ["check", "{f}"],
        ["build", "{f}", "--out", "{out}"],
        ["build", "{f}", "--normalize", "--out", "{out}"],
        ["purify", "{f}", "--out", "{out}"],
        ["match", "{src}", "{f}", "--mode", "bi"],
        ["generate", "--twin-of", "{f}", "--out", "{out}"],
    ),
    "coeff": (
        ["check", "{f}"],
        ["build", "{f}", "--out", "{out}"],
        ["match", "{src}", "{f}", "--mode", "tri"],
        ["generate", "--twin-of", "{f}", "--out", "{out}"],
    ),
    "operator": (
        ["check", "{f}"],
        ["extract", "{f}", "--out", "{out}"],
    ),
}

#: Replacement values: wrong types, edge numbers and non-finite literals.
_POOL = (
    None, True, False, "x", "1", 0, -1, 1, 2, 2.5, -0.0, 1e308, -1e308, 5e-324, 1e-320,
    10**400, math.inf, -math.inf, math.nan, [], {}, [1, 2], {"re": 1, "im": 0},
)

_SCALES = (0.0, -1.0, 0.5, 2.0, 1.0 + 1e-9, 1e-300, 1e300, 1e154, 1e-154)

_MUTANTS_PER_FILE = 60
_SCALE_EXPONENTS = range(-320, 309, 8)


def _sources(tmp_path):
    """The four valid files as (kind, path)."""
    dec = pd.generate_instance(3, 3, 3, seed=1)
    paths = {name: str(tmp_path / f"{name}.json") for name in ("weight", "coeff", "purified", "operator")}
    fileio.save_decomposition(paths["weight"], dec)
    fileio.save_decomposition(paths["coeff"], pd.generate_tri_instance(3, 3, 3, 3, seed=2))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["purify", paths["weight"], "--out", paths["purified"]]) == 0
    fileio.save_operator(paths["operator"], pd.build_rho(dec))
    return [("weight", paths["weight"]), ("coeff", paths["coeff"]), ("coeff", paths["purified"]), ("operator", paths["operator"])]


def _nodes(obj, path=()):
    """Every node path below the root, depth first."""
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield path + (key,)
        yield from _nodes(value, path + (key,))


def _parent(obj, path):
    for key in path[:-1]:
        obj = obj[key]
    return obj


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _mutate(payload, rng):
    """A copy of ``payload`` with one to three nodes replaced, deleted or duplicated, or one number scaled."""
    out = copy.deepcopy(payload)
    for _ in range(rng.randint(1, 3)):
        paths = list(_nodes(out))
        if not paths:
            break
        path = rng.choice(paths)
        parent, key = _parent(out, path), path[-1]
        op = rng.choice(("replace", "delete", "duplicate", "scale"))
        if op == "scale":
            numbers = [p for p in paths if _is_number(x := _parent(out, p)[p[-1]]) and fileio._finite(x)]
            if numbers:
                path = rng.choice(numbers)
                parent, key = _parent(out, path), path[-1]
                parent[key] = parent[key] * rng.choice(_SCALES)
        elif op == "replace":
            parent[key] = copy.deepcopy(rng.choice(_POOL))
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[rng.choice(list(parent))] = copy.deepcopy(parent[key])
    return out


def _scaled(payload, kind, factor):
    """A copy of ``payload`` with its weights, coefficients or matrix times ``factor``."""
    out = copy.deepcopy(payload)
    if kind == "operator":
        for part in ("re", "im"):
            out["matrix"][part] = [x * factor for x in out["matrix"][part]]
        return out
    for term in out["terms"]:
        if kind == "weight":
            term["w"] *= factor
        elif isinstance(term["coeff"], dict):
            term["coeff"] = {part: x * factor for part, x in term["coeff"].items()}
        else:
            term["coeff"] *= factor
    return out


def _all_finite(obj):
    """Whether every number in ``obj`` is finite as a float."""
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return not _is_number(obj) or fileio._finite(obj)


def _problem(argv, out, finite):
    """What is wrong with one in-process run, or None."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 -- an escaping exception is the finding
            return f"escaped {type(exc).__name__}: {exc}"
    err = stderr.getvalue()
    if code not in (0, 2, 3, 4, 5):
        return f"exit code {code}"
    if code == 0:
        return None if err == "" else f"exit 0 with stderr {err!r}"
    if err.count("\n") != 1 or not err.startswith("error: "):
        return f"exit {code} with stderr {err!r}"
    if out is not None and out.exists():
        return f"exit {code} but {out.name} was written"
    if finite and "non-finite entries" in err:
        return f"finite numbers called non-finite: {err!r}"
    return None


def test_every_mutant_and_scaling_ends_in_an_exit_code_and_one_error_line(tmp_path):
    rng = random.Random(20240)
    cases = []
    for kind, source in _sources(tmp_path):
        with open(source) as f:
            payload = json.load(f)
        cases += [(kind, source, f"mutant {i} of {source}", _mutate(payload, rng)) for i in range(_MUTANTS_PER_FILE)]
        cases += [(kind, source, f"{source} x 1e{k}", _scaled(payload, kind, 10.0**k)) for k in _SCALE_EXPONENTS]
    findings, runs = [], 0
    for i, (kind, source, label, payload) in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(payload))
        finite = _all_finite(payload)
        for template in _COMMANDS[kind]:
            out = tmp_path / f"out{i}.json" if "{out}" in template else None
            argv = [part.format(f=path, src=source, out=out) for part in template]
            runs += 1
            if problem := _problem(argv, out, finite):
                findings.append(f"{label}: {argv[0]}: {problem}")
            if out is not None and out.exists():
                out.unlink()
    assert runs > 2000
    assert not findings, f"{len(findings)} of {runs} runs: " + "\n".join(findings[:10])
