"""Float kernels and projector ranges: the numpy SVD rules of ``linalg``
on empty, zero, rank-deficient and badly scaled input, and float
representations that ``endo_type`` must reject as reducible."""

import numpy as np
import pytest

from equitrans import linalg, reps
from equitrans.errors import InvalidInputError


def assert_orthonormal(q):
    assert np.max(np.abs(q.T @ q - np.eye(q.shape[1])), initial=0.0) <= 1e-12


@pytest.mark.parametrize("shape, width", [((0, 3), 3), ((3, 0), 0), ((0, 0), 0)])
def test_nullspace_of_empty_matrix(shape, width):
    kern = linalg.nullspace(np.zeros(shape))
    assert kern.shape == (shape[1], width)
    assert_orthonormal(kern)


def test_nullspace_of_zero_matrix_is_everything():
    kern = linalg.nullspace(np.zeros((2, 4)))
    assert kern.shape == (4, 4)
    assert_orthonormal(kern)


@pytest.mark.parametrize("norm", [1e-3, 1e3])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_nullspace_rank_deficient_is_scale_free(norm, rank):
    # a relative cutoff: the kernel dimension does not depend on the scale
    rng = np.random.default_rng(17 * rank)
    a = rng.normal(size=(4, rank)) @ rng.normal(size=(rank, 5))
    a *= norm / np.linalg.norm(a, 2)
    kern = linalg.nullspace(a)
    assert kern.shape == (5, 5 - rank)
    assert_orthonormal(kern)
    assert np.linalg.norm(a @ kern, 2) <= 1e-12 * norm


def test_projector_range_of_roundoff_is_empty():
    # a vanishing projector known only up to roundoff has rank 0 (its trace);
    # a cutoff relative to its largest singular value would keep the noise
    noise = 1e-17 * np.random.default_rng(4).normal(size=(3, 3))
    assert linalg.projector_range(noise).shape == (3, 0)
    assert linalg.projector_range(np.eye(3) + noise).shape == (3, 3)


def test_float_natural_rep_is_reducible():
    group = reps.symmetric_group(3)
    rep = reps.rep_from_matrices(
        group, linalg.as_float(reps._block_catalog(group)["natural"].matrices))
    with pytest.raises(InvalidInputError,
                       match="reducible: isotypic component 'fixed' is proper"):
        reps.endo_type(rep)


def test_float_trivial_plus_trivial_is_isotypic_with_multiplicity():
    rep = reps.rep_from_matrices(reps.cyclic_group(2), [np.eye(2), np.eye(2)])
    with pytest.raises(InvalidInputError, match="multiplicity"):
        reps.endo_type(rep)
