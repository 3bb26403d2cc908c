"""Collinearity, rank, support/null-space, and dual-basis predicates."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import proddecomp as pd
from proddecomp import decomp, subspace
from proddecomp.subspace import ORTHO_ATOL, column_stack


def _random_ket(rng, dim):
    return pd.Ket.normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def _random_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _span_projector(kets):
    # independent oracle: orthogonal projector onto the column space via pinv
    a = np.column_stack([k.amplitudes for k in kets])
    return a @ np.linalg.pinv(a)


@st.composite
def unit_vectors(draw, dim=3):
    parts = st.lists(
        st.floats(-1, 1, allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim
    )
    v = np.asarray(draw(parts)) + 1j * np.asarray(draw(parts))
    assume(np.linalg.norm(v) > 1e-2)
    return v / np.linalg.norm(v)


class TestToleranceConfig:
    def test_defaults(self):
        tol = pd.ToleranceConfig()
        assert tol == pd.ToleranceConfig(1e-8) and tol.eps == 1e-8

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1e-8, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(pd.DegenerateInput):
            pd.ToleranceConfig(bad)

    def test_rejects_rank_cutoff_below_machine_noise(self):
        with pytest.raises(pd.DegenerateInput):
            pd.ToleranceConfig(1e-15)


def _reference_fix_phase(v, eps=1e-8):
    # the one-vector rule, entry by entry: the first entry above eps in
    # magnitude, rotated by its conjugate phase, is set to its magnitude
    v = np.asarray(v, dtype=complex)
    nz = np.nonzero(np.abs(v) > eps)[0]
    if nz.size == 0:
        return v.copy()
    pivot = v[nz[0]]
    out = v * (abs(pivot) / pivot)
    out[nz[0]] = abs(pivot)
    return out


class TestFixPhase:
    @staticmethod
    def _stack(rng, d, n):
        a = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
        a[:, 0] = 0.0  # no significant entry: left as it is
        a[:2, -1] *= 1e-12  # leading entries below eps at any scale below: the pivot is the third
        return a * 10.0 ** rng.uniform(-3, 3, n)

    def test_a_stack_is_phased_column_by_column_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for d, n in [(3, 2), (5, 4), (8, 6), (32, 16), (17, 33)]:
            for eps in (1e-8, 1e-4):
                a = self._stack(rng, d, n)
                out = pd.fix_phase(a, eps)
                assert out.shape == a.shape
                for j in range(n):
                    column = pd.fix_phase(a[:, j], eps)
                    assert out[:, j].tobytes() == column.tobytes()
                    assert column.tobytes() == _reference_fix_phase(a[:, j], eps).tobytes()

    def test_a_one_entry_column_is_phased_as_the_entry_alone(self):
        a = self._stack(np.random.default_rng(2), 1, 64)
        out = pd.fix_phase(a)
        for j in range(a.shape[1]):
            assert out[:, j].tobytes() == pd.fix_phase(a[:, j]).tobytes()
        found = np.abs(a[0]) > 1e-8
        assert np.array_equal(out[0, found], np.hypot(a[0].real, a[0].imag)[found])

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    def test_empty_input_is_returned_as_it_is(self, shape):
        assert pd.fix_phase(np.zeros(shape)).shape == shape

    def test_pivot_is_real_positive_and_zero_column_unchanged(self):
        a = self._stack(np.random.default_rng(1), 6, 4)
        out = pd.fix_phase(a)
        assert out[:, 0].tobytes() == a[:, 0].tobytes()
        assert not np.shares_memory(out, a)
        for j, pivot in ((1, 0), (2, 0), (3, 2)):
            assert out[pivot, j].real > 0.0 and out[pivot, j].imag == 0.0
            assert np.abs(out[:, j]).tolist() == pytest.approx(np.abs(a[:, j]).tolist(), rel=1e-15)


class TestIsCollinear:
    def test_pure_phase_is_collinear(self):
        x = pd.Ket((1, 0))
        y = pd.Ket((np.exp(1j * np.pi / 3), 0))
        assert pd.is_collinear(x, y)

    def test_orthogonal_is_not(self):
        assert not pd.is_collinear(pd.Ket((1, 0)), pd.Ket((0, 1)))

    def test_overlap_at_twice_threshold_is_not_collinear(self):
        # derived from the threshold definition: choose delta so that
        # |<x|y>| = sqrt(1 - delta^2) = 1 - 2 eps, below the 1 - eps cut
        eps = pd.DEFAULT_TOL.eps
        delta = np.sqrt(1.0 - (1.0 - 2.0 * eps) ** 2)
        x = pd.Ket((1, 0))
        y = pd.Ket((np.sqrt(1.0 - delta**2), delta))
        assert abs(abs(x.overlap(y)) - (1.0 - 2.0 * eps)) < 1e-12
        assert not pd.is_collinear(x, y)

    def test_overlap_at_half_threshold_is_collinear(self):
        eps = pd.DEFAULT_TOL.eps
        delta = np.sqrt(1.0 - (1.0 - 0.5 * eps) ** 2)
        x = pd.Ket((1, 0))
        y = pd.Ket((np.sqrt(1.0 - delta**2), delta))
        assert pd.is_collinear(x, y)

    def test_dimension_mismatch(self):
        with pytest.raises(pd.DimensionMismatch):
            pd.is_collinear(pd.Ket.basis(2, 0), pd.Ket.basis(3, 0))

    @settings(deadline=None)
    @given(unit_vectors(), st.floats(0, 2 * np.pi, allow_nan=False))
    def test_phase_invariant_and_reflexive(self, v, alpha):
        x = pd.Ket(v)
        y = pd.Ket(v * np.exp(1j * alpha))
        assert pd.is_collinear(x, x)
        assert pd.is_collinear(x, y)
        assert pd.is_collinear(y, x)  # symmetry

    @settings(deadline=None)
    @given(unit_vectors(), unit_vectors())
    def test_symmetric(self, u, v):
        x, y = pd.Ket(u), pd.Ket(v)
        assert pd.is_collinear(x, y) == pd.is_collinear(y, x)

    def test_distance_form_of_threshold(self):
        # |<x|y>| >= 1 - eps  iff  min_alpha ||x - e^{i alpha} y|| <= sqrt(2 eps)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x, y = _random_ket(rng, 3), _random_ket(rng, 3)
            ov = x.overlap(y)
            dist = np.sqrt(max(0.0, 2.0 - 2.0 * abs(ov)))
            eps = pd.DEFAULT_TOL.eps
            assert pd.is_collinear(x, y) == (dist <= np.sqrt(2.0 * eps) + 1e-15)

    def test_agrees_with_the_set_verdict_at_the_threshold(self):
        # y = c x + sqrt(1 - c^2) z, z a unit ket orthogonal to x, and c within
        # 4 ulps of 1 - eps: pair and set verdicts come from one core
        rng = np.random.default_rng(26)
        eps = pd.DEFAULT_TOL.eps
        split = []
        for d in (2, 3, 8, 64):
            for k in range(-4, 5):
                c = (1.0 - eps) * (1.0 + k * 2.0**-52)
                for _ in range(40):
                    x = _random_ket(rng, d)
                    z = _random_ket(rng, d)
                    z = pd.Ket.normalize(z.amplitudes - x.overlap(z) * x.amplitudes).amplitudes
                    y = pd.Ket(c * x.amplitudes + np.sqrt(1.0 - c * c) * z)
                    if pd.is_collinear(x, y) != (not pd.is_noncollinear_set([x, y])):
                        split.append((d, k))
        assert not split


class TestNoncollinearSet:
    def test_orthonormal_pair(self):
        assert pd.is_noncollinear_set([pd.Ket((1, 0)), pd.Ket((0, 1))])

    def test_phase_pair_fails(self):
        assert not pd.is_noncollinear_set([pd.Ket((1, 0)), pd.Ket((1j, 0))])

    def test_overlapping_but_distinct_triple(self):
        s = 1 / np.sqrt(2)
        assert pd.is_noncollinear_set([pd.Ket((1, 0)), pd.Ket((0, 1)), pd.Ket((s, s))])


class TestRankAndIndependence:
    def test_orthonormal_pair(self):
        assert pd.rank_and_independence([pd.Ket((1, 0)), pd.Ket((0, 1))]) == (2, True)

    def test_duplicate(self):
        assert pd.rank_and_independence([pd.Ket((1, 0)), pd.Ket((1, 0))]) == (1, False)

    def test_linear_combination(self):
        s = 1 / np.sqrt(2)
        kets = [pd.Ket((1, 0, 0)), pd.Ket((0, 1, 0)), pd.Ket((s, s, 0))]
        assert pd.rank_and_independence(kets) == (2, False)

    def test_rank_invariant_under_phases_and_unitaries(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            kets = [_random_ket(rng, 4) for _ in range(3)]
            rank, ind = pd.rank_and_independence(kets)
            phased = [k.phased(np.exp(2j * np.pi * rng.uniform())) for k in kets]
            assert pd.rank_and_independence(phased) == (rank, ind)
            u = _random_unitary(rng, 4)
            rotated = [pd.Ket.normalize(u @ k.amplitudes) for k in kets]
            assert pd.rank_and_independence(rotated) == (rank, ind)


class TestSupportAndNull:
    @pytest.mark.parametrize("subsystem", [True, 0.5, "0"])
    def test_subsystem_must_be_an_integer(self, subsystem):
        rho = pd.build_rho(pd.generate_instance(2, 2, 3, seed=1))
        with pytest.raises(pd.DimensionMismatch, match="subsystem must be an integer"):
            pd.support_and_null(rho, subsystem)

    def test_half_half_operator_has_full_support(self):
        e = [pd.Ket.basis(2, 0), pd.Ket.basis(2, 1)]
        dec = pd.ProductDecomposition(
            pd.FactoredDims((2, 2)),
            (pd.ProductTerm(0.5, e[0], e[0]), pd.ProductTerm(0.5, e[1], e[1])),
        )
        rho = pd.build_rho(dec)
        for factor in (0, 1):
            support, null = pd.support_and_null(rho, factor)
            assert support.dim == 2 and null.dim == 0

    def test_two_terms_in_dim_three_leave_one_null_direction(self):
        # a-set confined to a known 2-plane of C^3; oracle projector from pinv
        rng = np.random.default_rng(13)
        plane = np.eye(3, dtype=complex)[:, :2]
        a1 = pd.Ket.normalize(plane @ _random_ket(rng, 2).amplitudes)
        a2 = pd.Ket.normalize(plane @ _random_ket(rng, 2).amplitudes)
        assert not pd.is_collinear(a1, a2)
        b1, b2 = _random_ket(rng, 2), _random_ket(rng, 2)
        dec = pd.ProductDecomposition(
            pd.FactoredDims((3, 2)),
            (pd.ProductTerm(0.6, a1, b1), pd.ProductTerm(0.4, a2, b2)),
        )
        rho = pd.build_rho(dec)
        support, null = pd.support_and_null(rho, 0)
        assert support.dim == 2 and null.dim == 1
        assert pd.frobenius(support.projector() - _span_projector([a1, a2])) < 1e-8

    def test_rank_one_product_projector(self):
        rng = np.random.default_rng(17)
        a, b = _random_ket(rng, 3), _random_ket(rng, 4)
        rho = pd.StateOperator(
            pd.FactoredDims((3, 4)), pd.tensor_product(a, b).projector()
        )
        for factor in (0, 1):
            support, _ = pd.support_and_null(rho, factor)
            assert support.dim == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_support_matches_planted_span(self, seed):
        profile = pd.BI_PROFILES[seed % 3]
        n = 3 if profile != "both-independent" else 2 + seed % 2
        dec = pd.generate_instance(n, 4, 3, seed=seed, profile=profile)
        rho = pd.build_rho(dec)
        support, _ = pd.support_and_null(rho, 0)
        oracle = _span_projector([t.a for t in dec.terms])
        assert pd.frobenius(support.projector() - oracle) < 1e-8

    def test_null_vectors_are_annihilated(self):
        dec = pd.generate_instance(2, 4, 3, seed=23)
        rho = pd.build_rho(dec)
        _, null = pd.support_and_null(rho, 0)
        assert null.dim == 2
        for v in null.vectors:
            for w in range(3):
                probe = np.kron(v.amplitudes, pd.Ket.basis(3, w).amplitudes)
                assert np.linalg.norm(rho.matrix @ probe) < 1e-8

    def test_dims_add_up(self):
        dec = pd.generate_instance(2, 5, 4, seed=29)
        rho = pd.build_rho(dec)
        for factor, dim in ((0, 5), (1, 4)):
            support, null = pd.support_and_null(rho, factor)
            assert support.dim + null.dim == dim

    def test_invalid_subsystem(self):
        rho = pd.StateOperator(pd.FactoredDims((2, 2)), np.eye(4, dtype=complex) / 4)
        with pytest.raises(pd.DimensionMismatch):
            pd.support_and_null(rho, 2)

    def test_a_degenerate_spectrum_keeps_the_support_in_index_order(self):
        # I/4 reduces to I/2: equal eigenvalues, so the support runs e0 then e1
        rho = pd.StateOperator(pd.FactoredDims((2, 2)), np.eye(4, dtype=complex) / 4)
        support, null = pd.support_and_null(rho, 0)
        assert null.dim == 0
        assert np.array_equal(np.abs(support.columns()), np.eye(2))

    @pytest.mark.parametrize("form", ["factored", "dense"])
    def test_one_eigh_and_no_eigvalsh(self, monkeypatch, form):
        # the support rank is counted on the eigenvalues that give the vectors
        rho = pd.build_rho(pd.generate_instance(3, 4, 3, seed=5, profile="b-independent-only"))
        if form == "dense":
            rho = pd.StateOperator(rho.dims, rho.matrix)
        calls, eigh = [], np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("eigvalsh in support_and_null")

        monkeypatch.setattr(np.linalg, "eigh", counted)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        for factor, rank in ((0, 2), (1, 3)):
            calls.clear()
            assert pd.support_and_null(rho, factor)[0].dim == rank
            assert len(calls) == 1

    def test_one_factor_reads_the_hermitian_part(self):
        # the stored entries differ across the diagonal by 6e-11; with c tuned, the smaller eigenvalue
        # of the Hermitian part lies 3e-13 above eps * lambda_max, and that of the lower triangle
        # 3e-13 below it, so a support read off one triangle has dim 1
        m = np.array([[1.0, 0.01], [0.01 + 6e-11, 1.000100029e-4]], dtype=complex)
        support, null = pd.support_and_null(pd.StateOperator(pd.FactoredDims((2,)), m), 0)
        assert (support.dim, null.dim) == (2, 0)

    def test_zero_operator_has_empty_support(self):
        rho = pd.StateOperator(pd.FactoredDims((2, 3)), np.zeros((6, 6), dtype=complex))
        for factor, dim in ((0, 2), (1, 3)):
            support, null = pd.support_and_null(rho, factor)
            assert (support.dim, null.dim) == (0, dim)


class TestSubspaceBasis:
    def test_rejects_non_orthogonal(self):
        s = 1 / np.sqrt(2)
        with pytest.raises(pd.DegenerateInput):
            pd.SubspaceBasis(2, (pd.Ket((1, 0)), pd.Ket((s, s))))

    def test_names_first_non_orthogonal_pair(self):
        # pairs (1, 2) and (0, 3) both fail; the check reports by the later index first
        s = 1 / np.sqrt(2)
        e = np.eye(4)
        vecs = (e[0], e[1], s * (e[1] + e[2]), s * (e[0] + e[3]))
        with pytest.raises(pd.DegenerateInput, match=r"basis vectors \(1, 2\) are not orthogonal"):
            pd.SubspaceBasis(4, tuple(pd.Ket(v) for v in vecs))

    def test_rejects_overfull(self):
        with pytest.raises(pd.DimensionMismatch):
            pd.SubspaceBasis(1, (pd.Ket((1,)), pd.Ket((1,))))

    def test_projector_of_empty_basis_is_zero(self):
        basis = pd.SubspaceBasis(3, ())
        assert np.array_equal(basis.projector(), np.zeros((3, 3), dtype=complex))

    def test_stores_its_column_matrix_once(self):
        e = np.eye(3, dtype=complex)
        basis = pd.SubspaceBasis(3, (pd.Ket(e[2]), pd.Ket(e[0])))
        m = basis.columns()
        assert m is basis.columns() and not m.flags.writeable
        assert np.array_equal(m, np.column_stack([e[2], e[0]]))
        assert np.array_equal(basis.projector(), np.diag([1.0, 0.0, 1.0]))

    def test_orthonormality_tolerance_matches_contract(self):
        assert ORTHO_ATOL == 1e-10

    def test_column_stack_requires_common_dim(self):
        with pytest.raises(pd.DimensionMismatch):
            column_stack([pd.Ket.basis(2, 0), pd.Ket.basis(3, 0)])


# ---------------------------------------------------------------------------
# the array cores against a per-Ket reference


def _near_collinear_pair(rng, dim, factor, eps):
    """Two unit kets with |<x|y>| = 1 - factor * eps, in a random frame and phase."""
    u = _random_unitary(rng, dim)
    c = 1.0 - factor * eps
    y = (c * u[:, 0] + np.sqrt(1.0 - c * c) * u[:, 1]) * np.exp(2j * np.pi * rng.uniform())
    return [pd.Ket(u[:, 0]), pd.Ket(y)]


def _near_rank_set(rng, dim, factor, eps):
    """Three unit kets whose smallest relative singular value is factor * eps
    to first order: u0, u1 and cos(phi) (u0 + u1)/sqrt2 + sin(phi) u2 with
    sin(phi) = 2 factor eps, in a random frame (dim >= 3)."""
    u = _random_unitary(rng, dim)
    phi = np.arcsin(2.0 * factor * eps)
    third = np.cos(phi) * (u[:, 0] + u[:, 1]) / np.sqrt(2.0) + np.sin(phi) * u[:, 2]
    return [pd.Ket(v * np.exp(2j * np.pi * rng.uniform())) for v in (u[:, 0], u[:, 1], third)]


def _with_slot(dec, slot, kets):
    """``dec`` with the first len(kets) terms' kets in ``slot`` replaced by ``kets``."""
    terms = list(dec.terms)
    for j, ket in enumerate(kets):
        parts = list(terms[j].kets)
        parts[slot] = ket
        if isinstance(dec, pd.ProductDecomposition):
            terms[j] = pd.ProductTerm(terms[j].weight, *parts)
        else:
            terms[j] = pd.TriTerm(terms[j].coeff, *parts)
    return type(dec)(dec.dims, tuple(terms))


def random_decompositions(seed=0):
    """Bipartite and tripartite decompositions of every profile, several sizes each."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(24):
        profile = pd.BI_PROFILES[i % 3]
        n = int(rng.integers(3 if profile != "both-independent" else 1, 7))
        dims = [int(rng.integers(n, 9)), int(rng.integers(n, 9))]
        if profile != "both-independent":  # the dependent slot may be smaller than n
            dims[1 if profile == "a-independent-only" else 0] = int(rng.integers(2, 9))
        out.append(pd.generate_instance(n, *dims, seed=i, profile=profile))
    for i in range(24):
        profile = pd.TRI_PROFILES[i % 4]
        dep = pd.TRI_PROFILES.index(profile) - 1  # the dependent slot, -1 for "all-independent"
        n = int(rng.integers(3 if dep >= 0 else 1, 7))
        dims = [int(rng.integers(2 if s == dep else n, 9)) for s in range(3)]
        out.append(pd.generate_tri_instance(n, *dims, seed=i, profile=profile))
    return out


def near_threshold_decompositions(seed=0, tol=pd.DEFAULT_TOL):
    """Decompositions with one slot near a threshold: a pair at |<x|y>| =
    1 - eps (1 -/+ 0.5), or a set whose smallest relative singular value
    is eps (1 -/+ 0.5), in every slot of a bipartite and a tripartite
    instance.  Returns (decomposition, slot, kind, factor) tuples."""
    rng = np.random.default_rng(seed)
    bases = [pd.generate_instance(4, 5, 6, seed=seed), pd.generate_tri_instance(4, 5, 6, 4, seed=seed)]
    out = []
    for base in bases:
        for slot, dim in enumerate(base.dims):
            for factor in (0.5, 1.5):
                pair = _near_collinear_pair(rng, dim, factor, tol.eps)
                out.append((_with_slot(base, slot, pair), slot, "pair", factor))
                kets = _near_rank_set(rng, dim, factor, tol.eps)
                out.append((_with_slot(base, slot, kets), slot, "rank", factor))
    return out


def reference_slot_independence(terms, tol, label):
    """The per-Ket hypothesis check: pairwise overlaps of every slot, then
    each slot's rank from the SVD of its kets stacked anew."""
    slots = len(terms[0].kets)
    for s in range(slots):
        kets = [t.kets[s] for t in terms]
        for i in range(len(kets)):
            for j in range(i + 1, len(kets)):
                if abs(kets[i].overlap(kets[j])) >= 1.0 - tol.eps:
                    raise pd.HypothesisViolation(f"{label}: {'abc'[s]}-set collinear pair {(i, j)}")
    return tuple(_reference_rank([t.kets[s] for t in terms], tol) == len(terms) for s in range(slots))


def _reference_rank(kets, tol):
    sv = np.linalg.svd(np.column_stack([k.amplitudes for k in kets]), compute_uv=False)
    return int(np.count_nonzero(sv >= tol.eps * sv[0])) if sv[0] > 0.0 else 0


def _outcome(fn, *args):
    try:
        return fn(*args)
    except pd.HypothesisViolation as exc:
        return str(exc)


def _core(stacks, tol):
    """The verdict core's pairs and ranks, one list of (i, j) pairs per stack."""
    pairs, ranks = subspace._slot_verdicts(stacks, tol)
    return [[(i, j) for t, i, j in pairs if t == s] for s in range(len(stacks))], ranks


def _reference_hypotheses(checked, tol):
    """``reference_slot_independence`` for each (decomposition, label) in order,
    then its rank verdict: one independent set of two, or two of three."""
    verdicts = []
    for dec, label in checked:
        flags = reference_slot_independence(dec.terms, tol, label)
        if len(flags) == 2 and not any(flags):
            raise pd.HypothesisViolation(f"{label}: neither ket set is linearly independent")
        if len(flags) == 3 and sum(flags) < 2:
            independent = [s for s, f in zip("abc", flags) if f]
            raise pd.HypothesisViolation(
                f"{label}: fewer than two linearly independent ket sets (independent: {independent})"
            )
        verdicts.append(flags)
    return verdicts


class TestArrayCores:
    """The Ket-list helpers and the hypothesis checks read one verdict core, which
    takes one Gram pass and one SVD per canonical shape (rows zero-padded to a multiple
    of ``_BLOCK``); a per-Ket loop is the oracle."""

    CASES = random_decompositions() + [case[0] for case in near_threshold_decompositions()]

    @pytest.mark.parametrize("eps", [1e-8, 1e-4])
    def test_wrappers_and_cores_match_the_per_ket_reference(self, eps):
        tol = pd.ToleranceConfig(eps)
        for dec in self.CASES:
            for s, stack in enumerate(dec.stacks):
                kets = [t.kets[s] for t in dec.terms]
                pairs = [
                    (i, j)
                    for i in range(len(kets))
                    for j in range(i + 1, len(kets))
                    if abs(kets[i].overlap(kets[j])) >= 1.0 - tol.eps
                ]
                assert subspace.collinear_pairs(kets, tol) == pairs
                assert pd.is_noncollinear_set(kets, tol) == (not pairs)
                rank = _reference_rank(kets, tol)
                assert _core([stack], tol) == ([pairs], [rank])
                assert pd.rank_and_independence(kets, tol) == (rank, rank == len(kets))

    @pytest.mark.parametrize("eps", [1e-8, 1e-4])
    def test_hypothesis_check_matches_the_per_ket_reference(self, eps):
        # consecutive cases differ in type, term count and slot dims, so most
        # batches hold stacks of more than one canonical shape
        tol = pd.ToleranceConfig(eps)
        for d1, d2 in zip(self.CASES, self.CASES[1:] + self.CASES[:1]):
            stacks = [*d1.stacks, *d2.stacks]
            kets = [[t.kets[s] for t in d.terms] for d in (d1, d2) for s in range(len(d.dims))]
            pairs = [
                [(i, j) for i, j in itertools.combinations(range(len(k)), 2) if pd.is_collinear(k[i], k[j], tol)]
                for k in kets
            ]
            assert _core(stacks, tol) == (pairs, [_reference_rank(k, tol) for k in kets])
            checked = ((d1, "first"), (d2, "second"))
            want = _outcome(_reference_hypotheses, checked, tol)
            assert _outcome(decomp._hypotheses, checked, tol) == want

    def test_inputs_are_judged_in_order_collinearity_before_rank(self):
        rng = np.random.default_rng(4)
        base = pd.generate_instance(3, 4, 4, seed=1, profile="a-independent-only")
        collinear = _with_slot(base, 1, _near_collinear_pair(rng, 4, 0.5, pd.DEFAULT_TOL.eps))
        dependent = _with_slot(base, 0, _near_rank_set(rng, 4, 0.5, pd.DEFAULT_TOL.eps))
        tri = pd.generate_tri_instance(3, 4, 4, 4, seed=1)
        tri_collinear = _with_slot(tri, 2, _near_collinear_pair(rng, 4, 0.5, pd.DEFAULT_TOL.eps))
        cases = [
            ((base, dependent), "second: neither ket set is linearly independent"),
            ((dependent, collinear), "first: neither ket set is linearly independent"),
            ((collinear, dependent), "first: b-set collinear pair (0, 1)"),
            ((base, collinear), "second: b-set collinear pair (0, 1)"),
            ((tri, tri_collinear), "second: c-set collinear pair (0, 1)"),
            ((tri_collinear, dependent), "first: c-set collinear pair (0, 1)"),
        ]
        for (d1, d2), message in cases:
            checked = ((d1, "first"), (d2, "second"))
            assert _outcome(decomp._hypotheses, checked, pd.DEFAULT_TOL) == message
            assert _outcome(_reference_hypotheses, checked, pd.DEFAULT_TOL) == message

    def test_near_threshold_cases_fall_on_the_expected_side(self):
        tol = pd.DEFAULT_TOL
        for dec, slot, kind, factor in near_threshold_decompositions():
            kets = [t.kets[slot] for t in dec.terms]
            if kind == "pair":
                assert (subspace.collinear_pairs(kets, tol) == [(0, 1)]) == (factor < 1.0)
            else:
                sv = np.linalg.svd(dec.stacks[slot][:, :3], compute_uv=False)
                assert sv[-1] / sv[0] == pytest.approx(factor * tol.eps, rel=1e-3)
                assert (_core([dec.stacks[slot][:, :3]], tol)[1] == [3]) == (factor > 1.0)
            outcome = _outcome(decomp._hypotheses, ((dec, "near"),), tol)
            if kind == "pair" and factor < 1.0:
                assert outcome == f"near: {'abc'[slot]}-set collinear pair (0, 1)"


def _threshold_pair(seed, tol=pd.DEFAULT_TOL):
    """Two unit columns in dim 2 + seed % 15 with |<x|y>| within 4 ulps of 1 - eps."""
    rng = np.random.default_rng(seed)
    d = 2 + seed % 15
    c = (1.0 - tol.eps) + (seed % 9 - 4) * 2.0**-53
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    x /= np.linalg.norm(x)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    z -= (x.conj() @ z) * x
    z /= np.linalg.norm(z)
    y = (c * x + np.sqrt(1.0 - c * c) * z) * np.exp(2j * np.pi * rng.uniform())
    return np.column_stack([x, y])


class TestBatchIndependentVerdicts:
    """A stack's verdicts do not depend on what it is batched with: each stack is
    decided in its canonical shape (rows padded to a multiple of ``_BLOCK``), and the
    stacks of one shape take one stacked pass whose matrices numpy decides one by one."""

    @staticmethod
    def _other():
        # 20 x 6: a canonical shape (24 x 6) that no stack below shares
        rng = np.random.default_rng(99)
        other = rng.standard_normal((20, 6)) + 1j * rng.standard_normal((20, 6))
        return other / np.linalg.norm(other, axis=0)

    @staticmethod
    def _same_shape(stack, seed):
        """Two companions of ``stack``'s canonical shape: one with its full padded row
        count, one with the fewest rows that still pad to it."""
        d, n = stack.shape
        rows = -(-d // subspace._BLOCK) * subspace._BLOCK
        rng = np.random.default_rng(seed)
        companions = []
        for r in (rows, rows - subspace._BLOCK + 1):
            m = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
            companions.append(m / np.linalg.norm(m, axis=0))
        return companions

    @staticmethod
    def _alone_and_batched(stack, others, tol=pd.DEFAULT_TOL):
        """The stack's verdicts alone, and batched second among ``others``, as a batch of one."""
        pairs, ranks = subspace._slot_verdicts([others[0], stack, *others[1:]], tol)
        return subspace._slot_verdicts([stack], tol), ([(0, i, j) for s, i, j in pairs if s == 1], ranks[1:2])

    def _pair_splits(self, companions):
        split, verdicts = [], set()
        for seed in range(3000):
            stack = _threshold_pair(seed)
            alone, batched = self._alone_and_batched(stack, companions(stack, seed))
            verdicts.add(bool(alone[0]))
            if alone != batched:
                split.append(seed)
        return split, verdicts

    def _set_splits(self, companions):
        # sets whose smallest relative singular value is eps (1 + k 1e-8), k = -4..4
        rng, split = np.random.default_rng(5), []
        for i in range(1500):
            stack = column_stack(_near_rank_set(rng, 3 + i % 14, 1.0 + (i % 9 - 4) * 1e-8, pd.DEFAULT_TOL.eps))
            alone, batched = self._alone_and_batched(stack, companions(stack, i))
            if alone != batched:
                split.append(i)
        return split

    def test_a_pair_at_the_collinear_threshold(self):
        # padded together into one 20 x 6 array, 261 of these 3000 pairs would read differently
        other = self._other()
        split, verdicts = self._pair_splits(lambda stack, seed: [other])
        assert split == [] and verdicts == {True, False}

    def test_a_set_at_the_rank_threshold(self):
        # padded together into one 20 x 6 array, 5 of these 1500 would read differently
        other = self._other()
        assert self._set_splits(lambda stack, i: [other]) == []

    def test_a_pair_at_the_collinear_threshold_among_its_own_shape(self):
        split, verdicts = self._pair_splits(self._same_shape)
        assert split == [] and verdicts == {True, False}

    def test_a_set_at_the_rank_threshold_among_its_own_shape(self):
        assert self._set_splits(self._same_shape) == []

    def test_one_pass_per_canonical_shape(self, monkeypatch):
        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        stacks = [_threshold_pair(seed) for seed in range(0, 45, 15)]  # all 2 x 2: one 8 x 2 shape
        subspace._slot_verdicts(stacks, pd.DEFAULT_TOL)
        assert len(calls) == 1
        subspace._slot_verdicts(stacks + [self._other()], pd.DEFAULT_TOL)  # and one 24 x 6
        assert len(calls) == 1 + 2
