"""Known dimensions: the structure check is J^2 = -1 with eta-orthogonality,
and every subspace whose dimension the mathematics fixes is read at that
dimension.  Checked against ``naive_linear``, which still decides the
implied facts at RANK_TOL (dim L = m, L cap conj(L) = 0, the dimensions
of V_c, W-hat and C+-, and on a deformation the span of L_eps and the rank
of [u, conj u] again): on every input of the seeded generators, accepted
or rejected, and on 4 sampled rows of every catalog case, the two accept
the same inputs and fail the others with the same first error; and every
known-dimension basis is a nullspace at RANK_TOL with the next singular
value above that cut."""
import re

import numpy as np
import pytest

from gkw import linear
from gkw.catalog import build_case, catalog_names
from gkw.linear import (RANK_TOL, ComplexSubspace, ValidationError, contraction_operator,
                        deform_gcs, eta, extract_bihermitian, reduce_gcs, reduce_pair)
from gkw.pipeline import DeformedKahlerRecipe, _standard_pair, sample_level_set

from generators import (IndeterminateRankError, ReductionTally, from_columns, from_eigenbundle,
                        rand_compatible_kahler, rand_gc, rand_gc_with_admissible_q,
                        rand_pair_with_admissible_q)
import naive_linear as naive


def _outcome(f, *args):
    """f(*args), or the ValidationError or IndeterminateRankError it raises."""
    try:
        return f(*args)
    except (ValidationError, IndeterminateRankError) as exc:
        return exc


def _extract_one(pair):
    """The bi-Hermitian data of one pair, extracted as a stack of one."""
    return extract_bihermitian([pair])


class _Record:
    """Every structure row ``linear._check_structures`` decides, with its
    outcome (None or the error), every ``linear.nullspace`` call, and the
    outcomes of each input's reduction, extraction or deformation under
    ``linear`` and under ``naive_linear``."""

    def __init__(self):
        self.structures = []
        self.nullspaces = []
        self.compared = []

    def compare(self, new, old, *args, same_frame=True):
        """Record both outcomes and return the new one; ``same_frame`` when
        both build the result in one frame, so that an error quotes the
        same residuals."""
        self.compared.append((_outcome(new, *args), _outcome(old, *args), same_frame))
        return self.compared[-1][0]

    def reductions(self, pair, Q):
        reduced = self.compare(reduce_pair, naive.reduce_pair, pair, Q, same_frame=False)
        self.compare(_extract_one, naive.extract_bihermitian, pair)
        if not isinstance(reduced, Exception):
            self.compare(_extract_one, naive.extract_bihermitian, reduced[0])


def _isotropic_operator(rng, J2, count):
    """A contraction operator of ``count`` random decomposables a ^ b with
    a, b in conj L2, so that L_eps stays isotropic."""
    Lbar = J2.eigenbundle().basis.conj()
    m = J2.m

    def vec():
        return Lbar @ (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return contraction_operator([(vec(), vec()) for _ in range(count)], m)


def _seeded_generators(rec):
    rng = np.random.default_rng(2027)
    tally = ReductionTally(60)
    for _ in range(40):
        tally.generate(rand_gc, rng, int(rng.choice([2, 4, 6, 8])))
    for _ in range(60):
        m = int(rng.choice([4, 6, 8]))
        qdim = int(rng.integers(1, max(2, m // 2)))
        generated = tally.generate(rand_pair_with_admissible_q, rng, m, qdim, True)
        if generated is not None:
            rec.reductions(*generated)
        J, Q = rand_gc_with_admissible_q(rng, m, int(rng.integers(1, m // 2)))
        rec.compare(reduce_gcs, naive.reduce_gcs, J, Q, same_frame=False)
    for _ in range(20):
        J2 = rand_compatible_kahler(rng, int(rng.choice([2, 4, 6]))).J2
        n = J2.m
        K = _isotropic_operator(rng, J2, int(rng.integers(1, 3)))
        generic = 0.05 * (rng.standard_normal((2 * n, 2 * n))
                          + 1j * rng.standard_normal((2 * n, 2 * n)))
        L2 = J2.eigenbundle().basis
        real_leps = (L2.real - L2) @ np.linalg.pinv(eta(n) @ L2)
        for t in (0.1, 1.0, 10.0):
            rec.compare(deform_gcs, naive.deform_gcs, J2, K, t)
        rec.compare(deform_gcs, naive.deform_gcs, J2, generic, 1.0)
        rec.compare(deform_gcs, naive.deform_gcs, J2, real_leps, 1.0)


def _catalog_rows(rec):
    for name in catalog_names():
        scenario = build_case(name).scenario
        recipe = scenario.recipe
        batch = sample_level_set(scenario, 4, 7)
        for z, Q in zip(batch.points, batch.Q):
            rec.reductions(recipe.pair_at(z), Q)
            if isinstance(recipe, DeformedKahlerRecipe):
                K = recipe.contractions_at([z])[0]
                rec.compare(deform_gcs, naive.deform_gcs, _standard_pair(scenario.n).J2,
                            K, float(recipe.t))


@pytest.fixture(scope="module")
def record():
    rec = _Record()
    check, null = linear._check_structures, linear.nullspace

    def recording_check(J, out, *carry):
        alive = out.alive.copy()
        result = check(J, out, *carry)
        rec.structures.extend((J[k].copy(), out.results[i]) for k, i in enumerate(alive))
        return result

    def recording_null(A, dim):
        N = null(A, dim)
        rec.nullspaces.append((np.asarray(A).copy(), dim, N.copy()))
        return N
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linear, "_check_structures", recording_check)
        mp.setattr(linear, "nullspace", recording_null)
        _seeded_generators(rec)
        _catalog_rows(rec)
    return rec


def _error_text(exc, same_frame):
    """The message of an error; for quotients built in two frames (the
    detour's frame differs from the real one by an orthogonal change) with
    the residuals it quotes masked, as they differ in their last digits."""
    return str(exc) if same_frame else re.sub(r"-?\d\.\d+e[-+]\d+", "#", str(exc))


def _same_outcome(new, old, same_frame=True):
    """Both raise the same error, or both pass; True when both pass."""
    if isinstance(new, Exception) or isinstance(old, Exception):
        assert type(new) is type(old)
        assert _error_text(new, same_frame) == _error_text(old, same_frame)
        return False
    return True


def test_structure_check_accepts_what_the_implied_checks_accept(record):
    accepted = 0
    for J, result in record.structures:
        accepted += _same_outcome(result, _outcome(naive.structure, J))
    assert 0 < accepted < len(record.structures)


def test_known_dimensions_accept_what_the_thresholded_dimensions_accept(record):
    accepted = sum(_same_outcome(*outcomes) for outcomes in record.compared)
    rejected = len(record.compared) - accepted
    assert accepted > 200 and rejected > 20
    for new, old, _ in record.compared:
        if isinstance(new, linear.LinearGC):
            assert np.array_equal(new.J, old.J)


def test_a_deformed_structure_keeps_the_orthonormal_eigenbundle_it_was_built_from(record):
    deformed = [new for new, _, _ in record.compared if isinstance(new, linear.LinearGC)]
    assert len(deformed) > 50
    for J in deformed:
        L = J.eigenbundle().basis
        assert np.abs(L.conj().T @ L - np.eye(J.m)).max() < 1e-12
        assert np.abs(J.J @ L - 1j * L).max() < 1e-9 * max(1.0, np.abs(J.J).max())


def test_each_known_dimension_basis_is_a_nullspace_at_the_rank_threshold(record):
    assert len(record.nullspaces) > 500
    for A, dim, N in record.nullspaces:
        n = A.shape[-1]
        for a, basis in zip(A.reshape(-1, *A.shape[-2:]), N.reshape(-1, n, dim)):
            if not len(a) or not dim:
                continue
            s = np.linalg.svd(a, compute_uv=False)
            cut = RANK_TOL * max(1.0, s[0])
            assert np.linalg.norm(a @ basis, 2) <= cut
            assert s[n - dim - 1] > cut


def test_from_eigenbundle_keeps_its_input_checks():
    # from_eigenbundle takes a subspace from its caller, so it still decides
    # that it is maximal and meets its conjugate only in 0, at a clear gap
    L = _standard_pair(1).J2.eigenbundle().basis
    with pytest.raises(ValidationError, match="^eigenbundle must be maximal$"):
        from_eigenbundle(ComplexSubspace(L[:, :1]))
    with pytest.raises(ValidationError, match=r"^L cap conj\(L\) != 0: no real structure$"):
        from_eigenbundle(from_columns(np.eye(4)[:, :2]))
    # [L, conj L] has singular values 7.1e-10 here, within the gap window
    near = np.column_stack([L[:, 0], L[:, 0].conj() + 1e-9 * L[:, 1]])
    with pytest.raises(IndeterminateRankError, match="^rank indeterminate"):
        from_eigenbundle(from_columns(near))
