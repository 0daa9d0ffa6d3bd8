"""Dense d**n x d**n operators of a built protocol, formed from its factors.

The library keeps every side operator as a low-rank factor; the tests check
the construction's invariants on these dense forms.  ``permute_registers``
builds the interleaved (AB)^n ordering of a dense A^n (x) B^n operator, and
``svd_cut_directions`` is the SVD form of the pruning's cut, which the
library takes from the Gram of Y.
"""

import numpy as np

from povmsim.linalg import hermitian_part
from povmsim.protocol import PRUNE_TOL, _gram, _hstack, _sigma_factor


def svd_cut_directions(y) -> np.ndarray:
    """The left singular vectors of Y with squared singular value above 1 + PRUNE_TOL."""
    vecs, s, _ = np.linalg.svd(y, full_matrices=False)
    return vecs[:, s ** 2 > 1.0 + PRUNE_TOL]


def sigma(side) -> np.ndarray:
    """sum_w gamma_w Abar_w of one side's code."""
    return _gram(_sigma_factor(side.factors, side.gamma, side.typical.shape[0]))


def pi_mu(side) -> np.ndarray:
    """The pruning projector Pi_rho - V_cut V_cut^dagger, a subprojector of Pi_rho."""
    return _gram(side.typical) - _gram(side.v_cut)


def bin_ops(side) -> list:
    """The bin operators Gamma_i = G_i G_i^dagger."""
    return [_gram(g) for g in side.bin_factors]


def completion(side) -> np.ndarray:
    """I - sum_i Gamma_i."""
    dim = side.typical.shape[0]
    return hermitian_part(np.eye(dim) - _gram(_hstack(side.bin_factors, dim)))


def pi_rho(instance) -> np.ndarray:
    """The typical projector Pi_rho = U U^dagger of a point-to-point instance."""
    return _gram(instance.typical)


def permute_registers(mat, dims, order) -> np.ndarray:
    """Reorder tensor registers of a square operator: new register j is old ``order[j]``."""
    m = np.asarray(mat, dtype=complex)
    dims = list(dims)
    n = len(dims)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of {n} registers")
    t = m.reshape(dims + dims)
    perm = list(order) + [n + i for i in order]
    d = int(np.prod(dims))
    return t.transpose(perm).reshape(d, d)
