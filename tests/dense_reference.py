"""Dense d**n x d**n operators of a built protocol, formed from its factors.

The library keeps every side operator as a low-rank factor; the tests check
the construction's invariants on these dense forms.  ``permute_registers``
builds the interleaved (AB)^n ordering of a dense A^n (x) B^n operator, and
``svd_cut_directions`` is the SVD form of the pruning's cut, which the
library takes from the Gram of Y.  ``faithfulness`` is the dense oracle of
K, on the dense T_z of ``target_ops`` and C_z of ``candidate_ops``.
"""

import itertools

import numpy as np

from povmsim.linalg import hermitian_part, kron_all, psd_sqrt, trace_norm
from povmsim.protocol import PRUNE_TOL, _digits, _gram, _hstack


def svd_cut_directions(y) -> np.ndarray:
    """The left singular vectors of Y with squared singular value above 1 + PRUNE_TOL."""
    vecs, s, _ = np.linalg.svd(y, full_matrices=False)
    return vecs[:, s ** 2 > 1.0 + PRUNE_TOL]


def sigma(side) -> np.ndarray:
    """sum_w gamma_w Abar_w of one side's code, as Y Y^dagger with Y = [sqrt(gamma_w) X_w]."""
    y = [np.sqrt(side.gamma[w]) * x for w, x in side.factors.items()]
    return _gram(_hstack(y, side.typical.shape[0]))


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
    return _gram(instance.mus[0].typical)


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


def faithfulness(rho_n, target, candidate) -> float:
    """Reference K with the dense square root of rho_n and SVD trace norms.

    ``target`` and ``candidate`` map each output z to its dense operator; a z
    missing from either counts as the null operator there.
    """
    root = psd_sqrt(rho_n)
    k = sum(trace_norm(root @ (target.get(z, 0) - candidate.get(z, 0)) @ root)
            for z in set(target) | set(candidate))
    total = sum(candidate.values(), np.zeros_like(rho_n))
    return k + np.trace(rho_n).real - np.vdot(rho_n, total).real


def target_ops(target) -> dict:
    """z tuple -> T_z, the Kronecker product of a ``ProductTarget``'s singles along z."""
    return {z: kron_all([target.singles[zj] for zj in z])
            for z in itertools.product(range(len(target.singles)), repeat=target.n)}


def candidate_ops(candidate) -> dict:
    """z tuple -> the dense C_z of a ``FactoredCandidate``, for each of its outputs.

    C_z = c[w0] I + sum_(word != w0) (c[word] - c[w0]) C_word with
    c = P^n_{Z|W}(z | .), each C_word a scaled Gram of its rows of F^dagger.
    """
    eye = np.eye(candidate.dim)
    q = candidate._projections(eye)
    zs = _digits(candidate.outputs, candidate.output_size, candidate.n)
    ops = {}
    for z, c in zip(map(tuple, zs.tolist()), candidate.probs.T):
        v = np.repeat(candidate.weight * (c[1:] - c[0]), np.diff(candidate.bounds))
        ops[z] = hermitian_part(c[0] * eye + (q.conj().T * v) @ q)
    return ops
