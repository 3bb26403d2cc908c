"""Output checks that do not rely on the program's own answers.

The benchmark builds twins and non-equivalent pairs here with its own numpy
code, so it knows each expected permutation.  Certificates and extractions
are then checked against quantities recomputed from the kets and weights:
paired overlaps, weights, and the Gram-form distance between two weighted
sums of product projectors.  A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: A paired overlap must lie this close to unit magnitude.
OVERLAP_TOL = 1e-8
#: Extracted and planted operators may differ by this relative Frobenius distance.
EXTRACTION_TOL = 1e-6
#: Paired weights (or coefficient magnitudes) may differ by this share of the larger scale.
WEIGHT_TOL = 1e-6
#: Factor by which a non-equivalent copy scales one weight or coefficient.
SHIFT = 1.5


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


# ---------------------------------------------------------------------------
# array views: (values, kets per slot as columns)


def arrays(dec) -> tuple[np.ndarray, list[np.ndarray]]:
    """Weights (bi) or coefficients (tri) and one column matrix per factor slot."""
    terms = dec.terms
    if hasattr(terms[0], "weight"):
        values = np.array([t.weight for t in terms])
    else:
        values = np.array([t.coeff for t in terms])
    slots = [np.column_stack([t.kets[s].amplitudes for t in terms]) for s in range(len(terms[0].kets))]
    return values, slots


def file_arrays(path: str) -> tuple[np.ndarray, list[np.ndarray]]:
    """The same view read from a decomposition file with the json module alone."""
    with open(path, encoding="utf-8") as fh:
        terms = json.load(fh)["terms"]
    if "w" in terms[0]:
        values = np.array([t["w"] for t in terms], dtype=float)
    else:
        values = np.array([complex(t["coeff"]["re"], t["coeff"]["im"]) for t in terms])
    nslots = len(terms[0]["kets"])
    slots = [
        np.column_stack([np.array(t["kets"][s]["re"]) + 1j * np.array(t["kets"][s]["im"]) for t in terms])
        for s in range(nslots)
    ]
    return values, slots


# ---------------------------------------------------------------------------
# equivalent twins and non-equivalent copies


def _phased_copy(pd, dec, rng, shift_term: int | None):
    """Permuted copy with random per-ket phases; optionally scale one term's value."""
    n = dec.n
    perm = tuple(int(i) for i in rng.permutation(n))
    terms = []
    for j in range(n):
        src = dec.terms[perm[j]]
        phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, len(src.kets)))
        kets = [pd.Ket(k.amplitudes * p) for k, p in zip(src.kets, phases)]
        scale = SHIFT if j == shift_term else 1.0
        if isinstance(dec, pd.ProductDecomposition):
            terms.append(pd.ProductTerm(src.weight * scale, *kets))
        else:
            terms.append(pd.TriTerm(src.coeff * scale / np.prod(phases), *kets))
    return type(dec)(dec.dims, tuple(terms)), perm


def twin(pd, dec, rng):
    """Equivalent twin and the permutation a matcher must report for it."""
    return _phased_copy(pd, dec, rng, None)


def shifted(pd, dec, rng):
    """A permuted, phased copy with one weight or coefficient scaled: not equivalent."""
    return _phased_copy(pd, dec, rng, int(rng.integers(dec.n)))[0]


# ---------------------------------------------------------------------------
# checks


def check_certificate(result, first, second, expected_perm) -> None:
    """A match certificate pairs the terms the benchmark expects, with unit overlaps.

    ``first`` and ``second`` are :func:`arrays` views of the two matched
    decompositions; ``result.permutation[k]`` names the term of ``first``
    paired with term ``k`` of ``second``.
    """
    perm = tuple(result.permutation)
    if perm != tuple(expected_perm):
        raise CheckFailed(f"permutation {perm} differs from expected {tuple(expected_perm)}")
    check_pairing(first, second, perm)
    v1, v2 = np.abs(first[0]), np.abs(second[0])
    for k, cert in enumerate(result.per_term):
        j = perm[k]
        if abs(cert.weight_first - v1[j]) > WEIGHT_TOL * v1[j] or abs(cert.weight_second - v2[k]) > WEIGHT_TOL * v2[k]:
            raise CheckFailed(
                f"certificate weights ({cert.weight_first!r}, {cert.weight_second!r}) for pair ({j}, {k}) "
                f"differ from the decompositions' ({v1[j]!r}, {v2[k]!r})"
            )


def check_pairing(first, second, perm) -> None:
    """Every paired overlap has unit magnitude and paired weights agree."""
    v1, s1 = first
    v2, s2 = second
    n = len(perm)
    if len(v1) != n or len(v2) != n:
        raise CheckFailed(f"term counts {len(v1)}, {len(v2)} do not match a {n}-term pairing")
    scale = max(1.0, float(np.abs(v1).sum()), float(np.abs(v2).sum()))
    for k, j in enumerate(perm):
        for slot, (x, y) in enumerate(zip(s1, s2)):
            ov = abs(np.vdot(x[:, j], y[:, k]))
            if abs(ov - 1.0) > OVERLAP_TOL:
                raise CheckFailed(f"slot {slot} overlap of pair ({j}, {k}) is {ov!r}, not 1")
        if abs(abs(v1[j]) - abs(v2[k])) > WEIGHT_TOL * scale:
            raise CheckFailed(f"pair ({j}, {k}) weights differ: {abs(v1[j])!r} vs {abs(v2[k])!r}")


def gram_distance(first, second) -> float:
    """Relative Frobenius distance of two weighted sums of product projectors.

    ``||rho1 - rho2||^2 = sum_ij s_i s_j w_i w_j |<a_i|a_j>|^2 |<b_i|b_j>|^2``
    over the combined term list, with s = +1 for the first and -1 for the
    second; divided by ``||rho1||``.
    """
    n1 = len(first[0])
    w = np.concatenate([first[0], -second[0]]).real
    g = np.ones((len(w), len(w)))
    for x, y in zip(first[1], second[1]):
        stacked = np.hstack([x, y])
        g *= np.abs(stacked.conj().T @ stacked) ** 2
    dist2 = float(w @ g @ w)
    norm2 = float(w[:n1] @ g[:n1, :n1] @ w[:n1])
    return math.sqrt(max(dist2, 0.0) / norm2)


def check_extraction(planted, extracted) -> tuple[int, ...]:
    """An extraction reproduces the planted operator term by term.

    Returns the permutation pairing each extracted term with the planted
    term it is collinear with (the one a matcher must report).
    """
    n = len(planted[0])
    if len(extracted[0]) != n:
        raise CheckFailed(f"extracted {len(extracted[0])} terms, planted {n}")
    dist = gram_distance(planted, extracted)
    if not dist <= EXTRACTION_TOL:
        raise CheckFailed(f"extracted operator differs from the planted one by {dist:.3e}")
    return pairing(planted, extracted)


def pairing(first, second) -> tuple[int, ...]:
    """For each term of ``second``, the single term of ``first`` collinear with it in every slot."""
    collinear = np.ones((len(first[0]), len(second[0])), dtype=bool)
    for x, y in zip(first[1], second[1]):
        collinear &= np.abs(x.conj().T @ y) >= 1.0 - OVERLAP_TOL
    perm = []
    for k in range(collinear.shape[1]):
        hits = np.flatnonzero(collinear[:, k])
        if hits.size != 1:
            raise CheckFailed(f"term {k} is collinear with {hits.size} terms, expected exactly 1")
        perm.append(int(hits[0]))
    if len(set(perm)) != len(perm):
        raise CheckFailed(f"pairing {perm} is not a bijection")
    return tuple(perm)
