"""Desk-scale construction of the structured approximating POVMs.

Builds, for small block lengths, the full pipeline: canonical ensembles,
typical and conditional typical projectors, cut post-states, the coset-coded
operator tables with pruning, binning, decoding, and the end-to-end
faithfulness figure K of the resulting sub-POVM against the tensor-power
target measurement.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .codes import (
    UccCode,
    _over_cap,
    all_vectors,
    codeword_indices,
    digit_dtype,
    require_prime,
    word_counts,
)
from .cq import StochasticMap
from .linalg import (
    EIG_CUTOFF,
    DensityOperator,
    Povm,
    hermitian_part,
    kron_all,
    kron_power,
    partial_trace,
    psd_sqrt,
)

SEQUENCE_CAP = 2 ** 20   # cap on p**n (sequence enumeration)
DIM_CAP = 4200           # cap on dim(H)**n (dense operators)
PRUNE_TOL = 1e-10


# ---------------------------------------------------------------------------
# Canonical ensemble and typicality.

@dataclass(frozen=True)
class CanonicalEnsemble:
    """Measurement-induced ensemble: weights and unit-trace post-states.

    Outcomes with zero weight carry the null operator.
    """

    weights: np.ndarray
    post_states: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if len(self.post_states) != w.size:
            raise ValueError("weights/post_states length mismatch")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "post_states", tuple(np.asarray(s, dtype=complex)
                                                      for s in self.post_states))

    @property
    def num_letters(self) -> int:
        return self.weights.size

    def weight_of(self, seq) -> float:
        out = 1.0
        for w in seq:
            out *= self.weights[w]
        return out

    def post_state_of(self, seq) -> np.ndarray:
        return kron_all([self.post_states[w] for w in seq])


def canonical_ensemble(m: Povm, rho: DensityOperator) -> CanonicalEnsemble:
    """lambda_w = Tr{Lambda_w rho}; rho_hat_w = sqrt(rho) Lambda_w sqrt(rho) / lambda_w."""
    if m.dim != rho.dim:
        raise ValueError("POVM and state dimensions differ")
    root = psd_sqrt(rho.mat)
    weights, posts = [], []
    for lam in m.elements:
        w = float(np.trace(lam @ rho.mat).real)
        core = hermitian_part(root @ lam @ root)
        if w > 1e-14:
            weights.append(w)
            posts.append(core / w)
        else:
            weights.append(0.0)
            posts.append(np.zeros_like(core))
    return CanonicalEnsemble(np.array(weights), tuple(posts))


def pad_ensemble(ens: CanonicalEnsemble, p: int) -> CanonicalEnsemble:
    """Extend the letter alphabet to F_p with zero-weight null letters."""
    if ens.num_letters > p:
        raise ValueError(f"alphabet of size {ens.num_letters} does not embed in F_{p}")
    if ens.num_letters == p:
        return ens
    d = ens.post_states[0].shape[0]
    pad = p - ens.num_letters
    return CanonicalEnsemble(
        np.concatenate([ens.weights, np.zeros(pad)]),
        ens.post_states + tuple(np.zeros((d, d), dtype=complex) for _ in range(pad)),
    )


def sequence_counts(seq, num_letters: int) -> np.ndarray:
    return np.bincount(np.asarray(seq, dtype=np.int64), minlength=num_letters)


def _group_counts(labels: np.ndarray, num_groups: int) -> np.ndarray:
    """Per row of ``labels``, how often each label 0..num_groups-1 occurs."""
    return (labels[..., None] == np.arange(num_groups)).sum(axis=-2)


def counts_are_typical(counts, probs, n: int, delta: float):
    """Strong typicality: |count/n - p| <= delta * p per letter, zero stays zero.

    ``counts`` is one count vector (giving a bool) or a stack of them along
    the leading axes (giving a bool array).
    """
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    zero = probs <= 1e-14
    pos = ~zero
    ok = (np.all(counts[..., zero] == 0, axis=-1)
          & np.all(np.abs(counts[..., pos] / n - probs[pos]) <= delta * probs[pos] + 1e-12,
                   axis=-1))
    return ok if ok.ndim else bool(ok)


@dataclass(frozen=True)
class TypicalSet:
    probs: np.ndarray
    n: int
    delta: float
    members: tuple        # tuple of sequence tuples
    mass: float

    def is_member(self, seq) -> bool:
        counts = sequence_counts(seq, len(self.probs))
        return counts_are_typical(counts, self.probs, self.n, self.delta)


def typical_set(dist, n: int, delta: float) -> TypicalSet:
    """Enumerate the strong delta-typical sequences of an i.i.d. distribution."""
    probs = np.asarray(dist, dtype=float)
    q = probs.size
    if q ** n > SEQUENCE_CAP:
        raise ValueError(f"{q}**{n} sequences exceed the desk-scale cap")
    seqs = all_vectors(n, q)
    typical = seqs[counts_are_typical(_group_counts(seqs, q), probs, n, delta)]
    mass = float(np.prod(probs[typical], axis=1).sum())
    return TypicalSet(probs, n, delta, tuple(map(tuple, typical.tolist())), mass)


def _eigen_groups(vals, rel_tol: float = 1e-8):
    """Cluster eigenvalues equal within tolerance; returns (group_ids, group_probs)."""
    vals = np.asarray(vals, dtype=float)
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    order = np.argsort(vals)
    ranked = vals[order]
    ids = np.zeros(vals.size, dtype=np.int64)
    ids[order[1:]] = np.cumsum(np.diff(ranked) > rel_tol * scale)
    # Each group's probability sums its clipped values in ascending order.
    return ids, np.bincount(ids[order], weights=np.maximum(ranked, 0.0))


@dataclass(frozen=True)
class _Spectrum:
    """Eigen-decomposition of one Hermitian operator, with its eigenvalue groups."""

    vals: np.ndarray
    vecs: np.ndarray
    group_ids: np.ndarray
    group_probs: np.ndarray


def _real_if_exact(mat) -> np.ndarray:
    """``mat`` as a real array when its imaginary part is exactly 0, else as it is.

    Applied where eigenbases and target blocks are taken, so a real problem
    runs in real arithmetic throughout and a complex one as before.
    """
    mat = np.asarray(mat)
    if np.iscomplexobj(mat) and not mat.imag.any():
        return np.ascontiguousarray(mat.real)
    return mat


def _spectrum(mat) -> _Spectrum:
    vals, vecs = np.linalg.eigh(_real_if_exact(hermitian_part(mat)))
    return _Spectrum(vals, vecs, *_eigen_groups(vals))


def _kron_columns(mats, cols: np.ndarray) -> np.ndarray:
    """The columns of kron_all(mats) indexed by the rows of ``cols`` (one index per factor)."""
    out = np.ones((1, cols.shape[0]), dtype=np.result_type(*mats))
    for j, m in enumerate(mats):
        out = (out[:, None, :] * m[:, cols[:, j]][None, :, :]).reshape(
            out.shape[0] * m.shape[0], cols.shape[0])
    return out


def _check_dim(dim: int, n: int) -> None:
    if dim ** n > DIM_CAP:
        raise ValueError(f"dim**n = {dim ** n} exceeds the dense-operator cap")


def _typical_factor(mat: np.ndarray, n: int, delta: float):
    """(U, inv) with Pi_rho = U U^dagger and (rho^{-1/2})^{(x) n} Pi_rho = U diag(inv) U^dagger.

    U holds the typical tensor eigenvectors of ``mat``: eigenvalues equal within
    tolerance are grouped, so degenerate spectra (e.g. the maximally mixed
    state) behave like single letters.  ``inv`` is the product of the
    single-copy inverse square roots, zero off the support as in
    ``psd_pinv_sqrt``.
    """
    _check_dim(mat.shape[0], n)
    spec = _spectrum(mat)
    idx = all_vectors(n, mat.shape[0])
    keep = idx[counts_are_typical(_group_counts(spec.group_ids[idx], spec.group_probs.size),
                                  spec.group_probs, n, delta)]
    cutoff = EIG_CUTOFF * max(float(spec.vals[-1]), 0.0)
    inv = np.where(spec.vals > cutoff, 1.0 / np.sqrt(np.clip(spec.vals, cutoff, None)), 0.0)
    return _kron_columns([spec.vecs] * n, keep), np.prod(inv[keep], axis=1)


def typical_projector(rho, n: int, delta: float) -> np.ndarray:
    """Projector onto tensor eigenvector sequences typical for the eigenvalue law.

    Eigenvalues equal within tolerance are grouped, so degenerate spectra
    (e.g. the maximally mixed state) behave like single letters.
    """
    mat = rho.mat if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    u, _ = _typical_factor(mat, n, delta)
    return hermitian_part(u @ u.conj().T)


def _cond_typical_columns(spectra, w_seq, delta: float, idx: np.ndarray):
    """Conditional typical eigenvectors along ``w_seq`` and their rho_hat_{w^n} eigenvalues.

    Within the positions carrying letter w, the eigenvalue-group counts of
    rho_hat_w must be strong-typical with the block length n_w.  ``idx`` is
    ``all_vectors(n, dim)``; returns the kept columns of the tensor eigenbasis
    and the matching eigenvalue products.
    """
    w_seq = np.asarray(w_seq, dtype=np.int64)
    ok = np.ones(idx.shape[0], dtype=bool)
    for w in np.unique(w_seq):
        at = w_seq == w
        s = spectra[w]
        counts = _group_counts(s.group_ids[idx[:, at]], s.group_probs.size)
        ok &= counts_are_typical(counts, s.group_probs, int(at.sum()), delta)
    keep = idx[ok]
    eig = np.ones(keep.shape[0])
    for j, w in enumerate(w_seq):
        eig = eig * spectra[w].vals[keep[:, j]]
    return _kron_columns([spectra[w].vecs for w in w_seq], keep), eig


def cond_typical_projector(ens: CanonicalEnsemble, w_seq, delta: float) -> np.ndarray:
    """Strong conditional typical projector for the post-states along ``w_seq``.

    Within the positions carrying letter w, the eigenvalue-group counts of
    rho_hat_w must be strong-typical with the block length n_w.
    """
    w_seq = [int(w) for w in w_seq]
    dim = ens.post_states[0].shape[0]
    _check_dim(dim, len(w_seq))
    spectra = {w: _spectrum(ens.post_states[w]) for w in set(w_seq)}
    cols, _ = _cond_typical_columns(spectra, w_seq, delta, all_vectors(len(w_seq), dim))
    return hermitian_part(cols @ cols.conj().T)


def cut_post_state(ens: CanonicalEnsemble, pi_rho: np.ndarray, w_seq,
                   delta: float, tset: TypicalSet | None = None) -> np.ndarray:
    """Pi_rho Pi_{w^n} rho_hat_{w^n} Pi_{w^n} Pi_rho; the null operator off the typical set.

    The protocol builds the same operator in factored form; this dense
    version is the reference it is tested against.
    """
    dim_n = pi_rho.shape[0]
    if tset is not None and not tset.is_member(w_seq):
        return np.zeros((dim_n, dim_n), dtype=complex)
    pi_w = cond_typical_projector(ens, w_seq, delta)
    rho_hat = ens.post_state_of(w_seq)
    return hermitian_part(pi_rho @ pi_w @ rho_hat @ pi_w @ pi_rho)


# ---------------------------------------------------------------------------
# Protocol parameters and the per-side construction.

@dataclass(frozen=True)
class ProtocolParams:
    """Block length, code sizes, shared randomness, and slack parameters.

    Point-to-point uses (n, k, l, p, num_mu); the distributed variant reads l
    as l1/num_mu as N1 and additionally uses l2/num_mu2.
    """

    n: int
    k: int
    l: int
    p: int
    num_mu: int
    eta: float = 0.1
    delta: float = 0.2
    seed: int = 0
    l2: int | None = None
    num_mu2: int | None = None

    def __post_init__(self):
        require_prime(self.p)
        if self.n < 1 or self.k < 0 or self.l < 0 or self.num_mu < 1:
            raise ValueError("invalid protocol sizes")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if (self.l2 is not None and self.l2 < 0) or (self.num_mu2 is not None
                                                     and self.num_mu2 < 1):
            raise ValueError("invalid distributed sizes: need l2 >= 0 and num_mu2 >= 1")
        # Bit-length tests, so an absurd block length is refused without forming p**n.
        if _over_cap(self.p, self.n, SEQUENCE_CAP):
            raise ValueError("p**n exceeds the desk-scale cap")
        # The decoder holds one entry per codeword of each sum code: N1 N2 p**(k+l+l2).
        mus, e = self.num_mu * (self.num_mu2 or 1), self.k + self.l + (self.l2 or 0)
        if _over_cap(self.p, e, SEQUENCE_CAP // mus):
            name = "N p**(k+l)" if self.l2 is None else "N1 N2 p**(k+l+l2)"
            raise ValueError(f"{name} exceeds the desk-scale cap: {mus} * {self.p}**{e} entries")


def _gram(f: np.ndarray) -> np.ndarray:
    """F F^dagger."""
    return hermitian_part(f @ f.conj().T)


def _hstack(factors, dim: int) -> np.ndarray:
    """The factors side by side, as one matrix with ``dim`` rows (no columns if there are none).

    Its dtype is that of the factors (real when there are none).
    """
    return np.concatenate([np.zeros((dim, 0)), *factors], axis=1)


def _sigma_factor(factors: dict, gamma: dict, dim: int) -> np.ndarray:
    """Y = [sqrt(gamma_w) X_w], so that Sigma = sum_w gamma_w Abar_w = Y Y^dagger."""
    return _hstack([np.sqrt(gamma[w]) * x for w, x in factors.items()], dim)


def _cut_directions(y: np.ndarray) -> np.ndarray:
    """The eigenvectors of Y Y^dagger with eigenvalue above 1 + PRUNE_TOL, orthonormal.

    They come from the small Gram Y^dagger Y: for each of its eigenpairs
    (s**2, v) with s**2 above 1 + PRUNE_TOL, Y v / s is a unit eigenvector of
    Y Y^dagger with the same eigenvalue.  A Y without columns cuts nothing.
    """
    if not y.shape[1]:
        return y
    s2, v = np.linalg.eigh(y.conj().T @ y)
    keep = s2 > 1.0 + PRUNE_TOL
    return (y @ v[:, keep]) / np.sqrt(s2[keep])


class _Grams(Mapping):
    """word -> F_w F_w^dagger over a dict of factors F_w; a Gram is built only when indexed."""

    def __init__(self, factors: dict):
        self.factors = factors

    def __contains__(self, w) -> bool:
        return w in self.factors

    def __getitem__(self, w) -> np.ndarray:
        return _gram(self.factors[w])

    def __iter__(self):
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)


@dataclass
class SideData:
    """Operators derived from one code realization (G, h^(mu)) on one side, kept as factors.

    With Y = [sqrt(gamma_w) X_w] over the code's built words, Sigma = Y Y^dagger.
    Pruning cuts V_cut, the left singular vectors of Y with squared singular
    value above 1 + PRUNE_TOL: Pi_mu = Pi_rho - V_cut V_cut^dagger, which is
    the projector onto the non-negative eigenspace of Pi_rho - Sigma on
    range(Pi_rho), as range(Y) lies in range(Pi_rho).  The pruned
    A_w = F_w F_w^dagger with F_w = Pi_mu X_w; bin i is G_i G_i^dagger, where
    G_i puts the F_w of the bin's words side by side (a repeated word
    repeats its columns); the completion is I - G G^dagger, with G every G_i
    side by side.  ``a_ops`` builds the dense A_w on access.
    """

    code: UccCode
    gamma: dict                 # word tuple -> multiplicity
    factors: dict               # word tuple -> X_w, for the code's built words
    typical: np.ndarray         # U, with Pi_rho = U U^dagger
    v_cut: np.ndarray           # the directions the pruning removes, orthonormal columns
    a_factors: dict             # word tuple -> F_w = Pi_mu X_w
    bin_factors: list           # p**l bin factors G_i
    defect: float               # max(0, s_max(G)^2 - 1) = max(0, lambda_max(sum_i Gamma_i - I))

    @property
    def a_ops(self) -> Mapping:
        """word tuple -> pruned A_w, for the code's built words."""
        return _Grams(self.a_factors)


def _bin_indices(g: np.ndarray, h: np.ndarray, p: int) -> np.ndarray:
    """``codeword_indices`` of a stack of codes bin by bin: (b, i, a) holds a G_b + h_b(i)."""
    return codeword_indices(g, h, p).reshape(h.shape[0], -1, h.shape[1]).transpose(0, 2, 1)


def _slots(words, p: int, n: int) -> np.ndarray:
    """Each word's position in ``words`` by base-p index, -1 if not listed: p**n int32 entries."""
    slot = np.full(p ** n, -1, dtype=np.int32)
    at = np.ravel_multi_index(np.array(words, dtype=np.int64).reshape(-1, n).T, (p,) * n)
    slot[at] = np.arange(len(words), dtype=np.int32)
    return slot


def _decode(hits: np.ndarray) -> tuple:
    """(decoded, collisions) of the bin hits of a stack of codes, shape (B, bins, p**k).

    A bin decodes to its single accepted codeword, by its index in the word
    list, else to -1, which stands for w0.  A bin with two or more accepted
    codewords (a repeated codeword counting twice) is a collision.  Built in
    place, so that no array larger than ``hits`` is formed.
    """
    count = (hits >= 0).sum(axis=-1, dtype=np.int32)
    decoded = hits.max(axis=-1)
    decoded[count != 1] = -1
    return decoded, int((count >= 2).sum())


def _code_side(code: UccCode, gamma: dict, factors: dict, hits: np.ndarray,
               typical: np.ndarray) -> SideData:
    """One code's pruned operators; ``hits`` places its codewords in ``factors``, -1 if absent."""
    dim = typical.shape[0]
    own = {w: x for w, x in factors.items() if w in gamma}
    v_cut = _cut_directions(_sigma_factor(own, gamma, dim))
    x = _hstack(own.values(), dim)
    f = x - v_cut @ (v_cut.conj().T @ x)     # every F_w side by side, in one product
    # Columns by position in ``factors``, 0 for another code's word; a last 0 serves hit -1.
    widths = np.array([x_w.shape[1] * (w in gamma) for w, x_w in factors.items()] + [0])
    ends = np.cumsum(widths)
    a_factors = {w: f[:, e - c:e] for w, c, e in zip(factors, widths.tolist(), ends.tolist())
                 if w in gamma}
    # One gather puts every bin's columns of f side by side as G (a repeated
    # word repeats its columns); each G_i is a column slice of G.
    found = hits[hits >= 0]
    g = f[:, _ranges(ends[found] - widths[found], ends[found])]
    bounds = np.concatenate([[0], np.cumsum(widths[hits].sum(axis=1))]).tolist()
    bin_factors = [g[:, a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    top = np.linalg.norm(g, 2) if g.any() else 0.0    # a zero (or column-free) G needs no SVD
    return SideData(code, gamma, own, typical, v_cut, a_factors, bin_factors,
                    max(0.0, float(top) ** 2 - 1.0))


@dataclass
class Side:
    """One party of the protocol: its state, ensemble and typical set, and its codes' operators."""

    rho: DensityOperator        # the party's reduced state
    ens: CanonicalEnsemble      # padded to F_p
    tset: TypicalSet
    mus: list                   # SideData per mu


def _build_side(params: ProtocolParams, m: Povm, rho: DensityOperator, codes: list) -> Side:
    """The ensemble, typical set and pruned per-code operators of one side.

    One enumeration of every code's codewords gives the gamma_w and the bin
    hits.  X_w is built only for typical words that occur in some code:
    Abar_w = X_w X_w^dagger with X_w = Q B_w[:, keep] sqrt(eig c_w), where
    Q = (rho^{-1/2})^{(x) n} Pi_rho = U diag(inv) U^dagger is applied through
    U, B_w is the eigenbasis of rho_hat_{w^n}, keep its conditional typical
    columns and c_w = lambda_{w^n} p^n / ((1 + eta) p^(k+l)).  Each code's
    operators are kept as factors (see ``SideData``), for the words of that
    code only.

    X_w depends on w only through its type up to a reordering of the
    registers, as Pi_rho and Q are invariant under register permutations:
    X_w is built once for the sorted word of its type class and every other
    word of the class permutes that factor's register axes.
    """
    ens = pad_ensemble(canonical_ensemble(m, rho), params.p)
    tset = typical_set(ens.weights, params.n, params.delta)
    n, d, p = params.n, rho.dim, params.p
    u, inv = _typical_factor(rho.mat, n, params.delta)
    u_inv, u_adj = u * inv, u.conj().T
    norm = p ** n / ((1.0 + params.eta) * p ** (codes[0].k + codes[0].l))
    indices = _bin_indices(np.stack([c.G for c in codes]), np.stack([c.h for c in codes]), p)
    gammas = [word_counts(i, p, n) for i in indices]
    used = set().union(*gammas)
    spectra = [_spectrum(s) for s in ens.post_states]
    idx = all_vectors(n, d)
    words = [w for w in tset.members if w in used]
    # Per word, the positions that sort its letters, and the inverse permutation.
    orders = np.argsort(np.array(words, dtype=np.int64).reshape(-1, n), axis=1, kind="stable")
    by_type = {}    # sorted word -> its X, read as (d,) * n + (columns,)
    factors = {}
    for w, order, back in zip(words, orders.tolist(), np.argsort(orders, axis=1).tolist()):
        rep = tuple(w[j] for j in order)
        if rep not in by_type:
            cols, eig = _cond_typical_columns(spectra, rep, params.delta, idx)
            x = cols * np.sqrt(np.clip(eig, 0.0, None) * (norm * ens.weight_of(rep)))
            by_type[rep] = (u_inv @ (u_adj @ x)).reshape((d,) * n + (x.shape[1],))
        # Register j of the sorted word holds the letter at w's position order[j].
        x = by_type[rep]
        factors[w] = x.transpose(tuple(back) + (n,)).reshape(d ** n, x.shape[-1])
    hits = _slots(words, p, n)[indices]
    return Side(rho, ens, tset, [_code_side(c, g, factors, h, u)
                                 for c, g, h in zip(codes, gammas, hits)])


# ---------------------------------------------------------------------------
# The protocol instance: one or more sides and the joint decoder.

@dataclass
class Instance:
    """The protocol over a tuple of sides sharing one generator matrix G, with its decoder.

    Point-to-point is the case of one side, distributed the case of two.  A
    tuple of bins, one of one code per side, holds the words
    a G + h_1(i_1) + h_2(i_2) + ...: a bin of the sum code, whose shift is
    the sum of the sides' shifts.  It decodes to its single word in
    ``tset_w``, else to w0, and two or more such words are a collision.
    ``decoded`` has one mu axis and then one bin axis per side: the index in
    ``words`` of the word of bins (i_1, ...) under (mu_1, ...), -1 for w0.
    """

    params: ProtocolParams
    sides: tuple                # Side per party
    tset_w: TypicalSet          # the accepted words: those of W = U + V (+ ...), p2p the side's own
    w0: tuple | None            # lexicographically smallest word outside tset_w, or None
    decoded: np.ndarray         # (N_1, ..., bins_1, ...)
    sub_povm_defect: float      # max over every side's mus of lambda_max(sum_i Gamma_i - I)
    decoder_collisions: int

    @property
    def words(self) -> tuple:
        return self.tset_w.members

    # Read by the benchmark's span tracer, perfbench/spans.py.
    @property
    def mus(self) -> list:
        return self.sides[0].mus

    @property
    def abar(self) -> Mapping:      # word tuple -> unpruned Abar_w of side A
        return _Grams({w: x for mu in self.mus for w, x in mu.factors.items()})

    @property
    def side_a(self) -> list:
        return self.sides[0].mus

    @property
    def side_b(self) -> list:
        return self.sides[1].mus


def _build(params: ProtocolParams, povms, states, w_law=None) -> Instance:
    """The ``Instance`` with one side per (POVM, state).

    Side 0 has l and num_mu codes, side 1 l2 and num_mu2.  G is drawn first
    and then each side's shift tables, side after side, so side 0's codes
    are those of ``sample_ensemble``.  ``tset_w`` is the typical set of W's
    law ``w_law`` at delta_hat = p * delta, or the one side's own when it is None.
    """
    n, p, k = params.n, params.p, params.k
    sizes = [(params.l, params.num_mu), (params.l2, params.num_mu2)][:len(states)]
    rng = np.random.default_rng(params.seed)
    g = rng.integers(0, p, size=(k, n))
    codes = [[UccCode(p, n, k, l, g, rng.integers(0, p, size=(p ** l, n))) for _ in range(num)]
             for l, num in sizes]
    sides = tuple(_build_side(params, m, rho, c) for m, rho, c in zip(povms, states, codes))
    tset_w = sides[0].tset if w_law is None else typical_set(w_law, n, p * params.delta)
    # The sum codes' shifts, axes (N_1, ..., bins_1, ..., n), added side by
    # side; they are digit sums, held in the narrow type ``codeword_indices`` reads.
    count = len(codes)
    shifts = np.zeros(n, dtype=digit_dtype(p))
    for s, side_codes in enumerate(codes):
        shape = [1] * 2 * count + [n]
        shape[s], shape[count + s] = len(side_codes), side_codes[0].num_bins
        shifts = shifts + np.stack([c.h for c in side_codes]).astype(shifts.dtype).reshape(shape)
        shifts %= p
    num_codes = math.prod(shifts.shape[:count])
    slot = _slots(tset_w.members, p, n)
    decoded, collisions = _decode(slot[_bin_indices(
        np.broadcast_to(g, (num_codes, k, n)), shifts.reshape(num_codes, -1, n), p)])
    first = int(np.argmax(slot < 0))        # w0, the first word by index outside tset_w
    w0 = tuple(map(int, np.unravel_index(first, (p,) * n))) if slot[first] < 0 else None
    return Instance(params, sides, tset_w, w0, decoded.reshape(shifts.shape[:-1]),
                    float(max(mu.defect for side in sides for mu in side.mus)), collisions)


def build_instance(params: ProtocolParams, m: Povm, rho: DensityOperator) -> Instance:
    """Construct the point-to-point structured sub-POVMs for every mu: the one-side protocol."""
    _check_dim(rho.dim, params.n)
    return _build(params, [m], [rho])


def build_distributed_instance(params: ProtocolParams, m_a: Povm, m_b: Povm,
                               rho_ab: DensityOperator) -> Instance:
    """Two pruned sub-POVM families sharing one generator matrix, plus the joint decoder."""
    if params.l2 is None or params.num_mu2 is None:
        raise ValueError("distributed build needs l2 and num_mu2")
    states = [partial_trace(rho_ab, traced=[1]), partial_trace(rho_ab, traced=[0])]
    if (states[0].dim * states[1].dim) ** params.n > DIM_CAP:
        raise ValueError("joint dimension exceeds the dense-operator cap")
    lam_w = [float(np.trace(el @ rho_ab.mat).real)
             for el in _sum_povm(m_a, m_b, params.p).elements]
    return _build(params, [m_a, m_b], states, lam_w)


def _sum_povm(m_a: Povm, m_b: Povm, p: int) -> Povm:
    """The measurement of W = U + V over F_p on H_A (x) H_B."""
    d = m_a.dim * m_b.dim
    els = [np.zeros((d, d), dtype=complex) for _ in range(p)]
    for u, lam_u in enumerate(m_a.elements):
        for v, lam_v in enumerate(m_b.elements):
            els[(u + v) % p] = els[(u + v) % p] + np.kron(lam_u, lam_v)
    return Povm(tuple(els))


def _in_range(index: tuple, stops) -> bool:
    """Whether each part of ``index`` is an integer in range(stop) of its own stop."""
    return all(isinstance(i, (int, np.integer)) and 0 <= i < stop
               for i, stop in zip(index, stops))


def _lookup(inst, mus: tuple, messages: tuple):
    """The word that one message per side decodes to under one mu per side.

    Message 0 of a side is its completion, which decodes to w0, and message
    i >= 1 its bin i - 1.  A ValueError names a bad index, as a number when
    there is one side, or a number of mus that is not the number of sides.
    """
    count = inst.decoded.ndim // 2          # one mu axis and one bin axis per side
    if len(mus) != count:
        raise ValueError(f"{len(mus)} mu index(es) for an instance of {count} side(s)")
    show = (lambda t: t[0]) if count == 1 else (lambda t: t)
    if not _in_range(mus, inst.decoded.shape[:count]):
        raise ValueError(f"mu {show(mus)} out of range")
    if not _in_range(messages, np.add(inst.decoded.shape[count:], 1)):
        raise ValueError(f"message {show(messages)} out of range")
    k = inst.decoded[mus + tuple(i - 1 for i in messages)] if all(messages) else -1
    return inst.words[k] if k >= 0 else inst.w0


def decode_p2p(instance: Instance, message: int, mu: int = 0):
    """Message 0 is the completion outcome (decoded to w0); 1..p**l are bins."""
    return _lookup(instance, (mu,), (message,))


def decode_distributed(inst: Instance, i: int, j: int, mu1: int = 0, mu2: int = 0):
    """Messages (i, j) with 0 meaning the completion outcome on that side."""
    return _lookup(inst, (mu1, mu2), (i, j))


# ---------------------------------------------------------------------------
# The overall sub-POVM, the target measurement and the faithfulness figure.

def extend_map_to_field(p_zw: StochasticMap, p: int) -> StochasticMap:
    """Extend P_{Z|W} from |W| letters to all of F_p with uniform rows."""
    (nw,) = p_zw.input_sizes
    if nw == p:
        return p_zw
    if nw > p:
        raise ValueError("map already larger than the field")
    pad = np.full((p - nw, p_zw.output_size), 1.0 / p_zw.output_size)
    return StochasticMap((p,), p_zw.output_size, np.vstack([p_zw.probs, pad]))


def _output_grid(p_ext: StochasticMap, n: int) -> np.ndarray:
    """All output sequences z in Z^n, one per row, in lexicographic order."""
    nz = p_ext.output_size
    if nz ** n > DIM_CAP:
        raise ValueError("|Z|**n exceeds the dense-operator cap")
    return all_vectors(n, nz)


def _output_probs(word, p_ext: StochasticMap, zs: np.ndarray) -> np.ndarray:
    """P^n_{Z|W}(z | word) for every row z of ``zs``; None spreads uniformly."""
    if word is None:
        return np.full(zs.shape[0], 1.0 / zs.shape[0])
    return np.prod(p_ext.probs[np.asarray(word), zs], axis=1)


def _live_columns(bin_lists, dim: int) -> tuple:
    """(G, ends): the nonzero bin factors of every mu side by side, with ``dim`` rows.

    Bins are numbered on across the mus; bin i has the columns
    [ends[i], ends[i + 1]) of G, none when it has no nonzero column.
    """
    bins = [g for mu in bin_lists for g in mu]
    live = [bool(g.any()) for g in bins]
    widths = [g.shape[1] * keep for g, keep in zip(bins, live)]
    return (_hstack([g for g, keep in zip(bins, live) if keep], dim),
            np.cumsum([0] + widths, dtype=np.int64))


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """arange(lo[k], hi[k]) for every k, one after the other."""
    widths = hi - lo
    return np.repeat(lo - np.cumsum(widths) + widths, widths) + np.arange(widths.sum())


class FactoredCandidate(Mapping):
    """The overall sub-POVM C_z = sum_word P^n_{Z|W}(z | word) C_word of the protocol.

    ``decoded`` has one mu axis and then one bin axis per side: the index in
    ``words`` of the word that bins (i_1, i_2, ...) decode to under
    (mu_1, mu_2, ...), all weighted alike, or -1 for w0.  ``bins`` lists, per
    side and per mu, that side's bin factors G_i, as many per mu as its bin
    axis.  A side's outcomes, its completion and its bins, add up to I and
    every tuple with a completion decodes to w0, so C_w0 = I - sum over the
    other words of C_word, and a word other than w0 keeps only its bin tuples:
    C_word = F diag(c) F^dagger on (H_1 (x) H_2 (x) ...)^{(x) n}, with
    F = G_1 (x) G_2 (x) ..., G_s side s's nonzero bin factors side by side,
    and c = 1 / (N_1 N_2 ...) on the Kronecker columns of the word's bin
    tuples, 0 elsewhere.  A word other than w0 with no nonzero bin tuple is
    not stored.

    The keys are the z of positive probability under a stored word.
    ``candidate[z]`` builds the dense C_z on demand; ``sandwiches`` gives every
    W^dagger C_z W without forming it.  Dense operators, like W, are in the
    interleaved (H_1 H_2 ...)^n ordering, ``dims`` giving each side's register.
    """

    def __init__(self, decoded: np.ndarray, words, w0, bins, p_ext: StochasticMap, n: int,
                 dims: tuple):
        self.n, self.dims = n, tuple(dims)
        count = len(self.dims)
        live = [_live_columns(b, d ** n) for b, d in zip(bins, self.dims)]
        self.adjs = [np.ascontiguousarray(g.conj().T) for g, _ in live]
        self.weight = 1.0 / math.prod(decoded.shape[:count])
        # Each tuple of nonzero bins decoding to a word other than w0, as (word,
        # bin of each side), word by word; a side's bins are numbered on across its mus.
        index, num_bins = np.nonzero(decoded >= 0), decoded.shape[count:]
        rows = np.stack([decoded[index]] + [index[s] * num_bins[s] + index[count + s]
                                            for s in range(count)])
        for s, (_, ends) in enumerate(live):
            rows = rows[:, (np.diff(ends) > 0)[rows[1 + s]]]
        ids, *picks = rows[:, np.lexsort(rows[::-1])]
        # The Kronecker columns of the tuples, tuple after tuple, folded side by
        # side: each column so far is followed by the tuple's columns of the next side.
        owner, cols = np.arange(ids.size), np.zeros(ids.size, dtype=np.int64)
        for (g, ends), x in zip(live, picks):
            lo, hi = ends[x][owner], ends[x + 1][owner]
            cols = np.repeat(cols, hi - lo) * g.shape[1] + _ranges(lo, hi)
            owner = np.repeat(owner, hi - lo)
        self.cols = cols
        sizes = np.bincount(ids[owner])
        stored = np.flatnonzero(sizes)
        self.words = [w0] + [words[k] for k in stored.tolist()]
        self.bounds = np.cumsum([0] + sizes[stored].tolist(), dtype=np.int64)
        zs = _output_grid(p_ext, n)
        probs = np.array([_output_probs(w, p_ext, zs) for w in self.words]).reshape(-1, len(zs))
        keys = probs.sum(axis=0) > 0.0
        self.probs = probs[:, keys]                     # (word, output) -> P^n(z | word)
        self._column = {z: col for col, z in enumerate(map(tuple, zs[keys].tolist()))}
        self.dim = math.prod(g.shape[0] for g, _ in live)

    def __contains__(self, z) -> bool:
        return z in self._column

    def __getitem__(self, z) -> np.ndarray:
        return self.combine(self.probs[:, self._column[z]])

    def __iter__(self):
        return iter(self._column)

    def __len__(self) -> int:
        return len(self._column)

    def _projections(self, w: np.ndarray) -> np.ndarray:
        """The rows of F^dagger W that the stored words use, word by word."""
        n, r, count = self.n, w.shape[1], len(self.dims)
        # Gather the n registers of each side, then contract one axis per side.
        order = [j * count + s for s in range(count) for j in range(n)] + [count * n]
        t = np.ascontiguousarray(w.reshape(self.dims * n + (r,)).transpose(order))
        t = t.reshape([d ** n for d in self.dims] + [r])
        for s, adj in enumerate(self.adjs):
            t = np.moveaxis(np.tensordot(adj, t, axes=(1, s)), 0, s)
        return t.reshape(-1, r)[self.cols]

    def combine(self, c: np.ndarray) -> np.ndarray:
        """sum_word c[word] C_word = c[w0] I + sum_(word != w0) (c[word] - c[w0]) C_word, dense."""
        eye = np.eye(self.dim)
        q = self._projections(eye)
        v = np.repeat(self.weight * (c[1:] - c[0]), np.diff(self.bounds))
        return hermitian_part(c[0] * eye + (q.conj().T * v) @ q)

    def word_sandwiches(self, gram: np.ndarray, w) -> np.ndarray:
        """W^dagger C_word W of every stored word, w0 first, stacked, given W^dagger W.

        ``w()`` gives the dense W; it is called only when a word other than
        w0 is stored, as only then does F^dagger W enter.
        """
        q = self._projections(w()) if self.cols.size else None
        others = [self.weight * (q[a:b].conj().T @ q[a:b])
                  for a, b in zip(self.bounds[:-1].tolist(), self.bounds[1:].tolist())]
        return np.array([gram - sum(others)] + others)

    def sandwiches(self, w: np.ndarray):
        """(z, W^dagger C_z W) for every key z, spread over z one z at a time."""
        s_words = self.word_sandwiches(w.conj().T @ w, lambda: w)
        for z, col in self._column.items():
            yield z, np.tensordot(self.probs[:, col], s_words, axes=1)


def assemble_overall(instance: Instance, p_zw: StochasticMap) -> FactoredCandidate:
    """The overall sub-POVM {Lambda_hat_{z^n}} of the protocol, in factored form.

    It acts on (H_1 (x) H_2 (x) ...)^{(x) n}, one register per side, and is
    complete by construction.
    """
    return FactoredCandidate(instance.decoded, instance.words, instance.w0,
                             [[mu.bin_factors for mu in side.mus] for side in instance.sides],
                             extend_map_to_field(p_zw, instance.params.p), instance.params.n,
                             [side.rho.dim for side in instance.sides])


assemble_overall_distributed = assemble_overall


class ProductTarget(Mapping):
    """The target T_z = T_{z_1} (x) ... (x) T_{z_n}, z in Z^n, kept as its single-copy factors.

    ``target[z]`` builds the dense tensor product on demand; ``apply`` and
    ``traces`` give T_z @ vecs and Tr{T_z mat} without forming any T_z.
    """

    def __init__(self, singles, n: int):
        self.singles = tuple(_real_if_exact(np.asarray(s, dtype=complex)) for s in singles)
        self.n = n

    def __contains__(self, z) -> bool:
        return (isinstance(z, tuple) and len(z) == self.n
                and all(zj in range(len(self.singles)) for zj in z))

    def __getitem__(self, z) -> np.ndarray:
        if z not in self:
            raise KeyError(z)
        return kron_all([self.singles[zj] for zj in z])

    def __iter__(self):
        return itertools.product(range(len(self.singles)), repeat=self.n)

    def __len__(self) -> int:
        return len(self.singles) ** self.n

    def apply(self, z, vecs: np.ndarray) -> np.ndarray:
        """T_z @ vecs, one register at a time, without forming T_z."""
        d = self.singles[0].shape[0]
        t = vecs
        for j, zj in enumerate(z):
            t = np.matmul(self.singles[zj], t.reshape(d ** j, d, -1))
        return t.reshape(vecs.shape)

    def traces(self, mat) -> np.ndarray:
        """Tr{T_z mat} for every z, as an array indexed by the tuple z.

        For a ``TensorPower`` of n copies this is the product of the
        single-copy traces; otherwise ``mat`` is contracted one register at a
        time, O(|Z| d**(2n)) in all.
        """
        singles = np.stack(self.singles)
        if isinstance(mat, TensorPower) and mat.n == self.n:
            per_copy = np.einsum("zij,ji->z", singles, mat.single)
            return functools.reduce(np.multiply.outer, [per_copy] * self.n)
        d = self.singles[0].shape[0]
        t = np.asarray(mat, dtype=complex).T[None]      # t[., i, j] = mat[j, i]
        for _ in range(self.n):
            rest = t.shape[1] // d
            t = t.reshape(t.shape[0], d, rest, d, rest)
            t = np.tensordot(t, singles, axes=([1, 3], [1, 2])).transpose(0, 3, 1, 2)
            t = t.reshape(-1, rest, rest)
        return t.reshape((len(self.singles),) * self.n)


def target_overall(m: Povm, p_zw: StochasticMap, n: int) -> ProductTarget:
    """(M composed with P_{Z|W})^{(x) n}: the measurement being simulated."""
    (nw,) = p_zw.input_sizes
    if nw < len(m):
        raise ValueError("P_{Z|W} must cover every POVM outcome")
    singles = [sum((p_zw(z, w) * lam for w, lam in enumerate(m.elements)),
                   np.zeros_like(m.elements[0]))
               for z in range(p_zw.output_size)]
    return ProductTarget(singles, n)


def target_overall_distributed(m_a: Povm, m_b: Povm, p_zw: StochasticMap,
                               p: int, n: int) -> ProductTarget:
    """(M_AB composed with P_{Z|W})^{(x) n} in the interleaved (AB)^n ordering."""
    return target_overall(_sum_povm(m_a, m_b, p), extend_map_to_field(p_zw, p), n)


class TensorPower:
    """The n-copy state rho^{(x) n}, kept as its single copy rho.

    A dense n-copy state is the case n = 1.
    """

    def __init__(self, single, n: int):
        mat = single.mat if isinstance(single, DensityOperator) else single
        self.single = hermitian_part(mat)
        self.n = n

    def dense(self) -> np.ndarray:
        return self.single if self.n == 1 else kron_power(self.single, self.n)

    def support(self) -> tuple:
        """(W, sum lambda_+) with rho^{(x) n} = W W^dagger on its numerical support."""
        sup = _Support(self)
        return sup.w, sup.total


class _Support:
    """rho^{(x) n} = W W^dagger on its numerical support, kept as single-copy data.

    One eigendecomposition rho = V Lambda V^dagger of the single copy: the
    columns of W are the tensor products of the columns of V sqrt(Lambda) at
    the index tuples ``idx`` (lexicographic order) whose eigenvalue product
    lambda clears the eigensolver's rounding floor dim * eps * lambda_max
    (dim = d**n).  ``w`` forms the dense d**n x r factor on first use;
    ``sandwiches`` never does.
    """

    def __init__(self, state: TensorPower):
        vals, self.vecs = np.linalg.eigh(_real_if_exact(state.single))
        self.n, d = state.n, vals.size
        idx = all_vectors(self.n, d)
        lam = np.prod(vals[idx], axis=1)
        keep = lam > lam.size * np.finfo(float).eps * max(float(lam.max()), 0.0)
        self.idx, self.total = idx[keep], float(lam[keep].sum())
        self.rank = self.idx.shape[0]
        self.roots = np.sqrt(np.clip(vals, 0.0, None))

    @functools.cached_property
    def levels(self) -> list:
        """Which entries of (d letters) x (kept suffixes from register j + 1) are kept suffixes.

        One entry per register j, last to first: the kept suffixes from
        register j, or None when all are.
        """
        d, levels = self.roots.size, []
        prev = np.zeros(1, dtype=np.int64)
        for j in range(self.n - 1, -1, -1):
            codes = np.unique(self.idx[:, j:] @ d ** np.arange(self.n - 1 - j, -1, -1))
            grid = (np.arange(d)[:, None] * d ** (self.n - 1 - j) + prev).ravel()
            kept = np.zeros(d ** (self.n - j), dtype=bool)
            kept[codes] = True
            levels.append(None if codes.size == grid.size else np.flatnonzero(kept[grid]))
            prev = codes
        return levels

    @functools.cached_property
    def w(self) -> np.ndarray:
        return _kron_columns([self.vecs * self.roots] * self.n, self.idx)

    def blocks(self, singles: np.ndarray) -> np.ndarray:
        """The single-copy blocks sqrt(Lambda) V^dagger S V sqrt(Lambda) of a stack of S."""
        return (self.vecs.conj().T @ singles @ self.vecs) * np.outer(self.roots, self.roots)

    def diagonals(self, singles: np.ndarray) -> np.ndarray | None:
        """The real diagonals of the blocks of ``singles``, or None when one is not diagonal.

        A block counts as diagonal when its entries between two different
        letters of the kept index tuples are exactly 0; no other entry
        reaches W^dagger S W.  The diagonal's imaginary part is dropped, as
        the Hermitian solver it stands in for reads only the real part.
        """
        blocks = self.blocks(singles)
        used = np.unique(self.idx)
        off = blocks[:, used[:, None], used]
        off[:, np.arange(used.size), np.arange(used.size)] = 0
        return None if off.any() else np.diagonal(blocks, axis1=1, axis2=2).real

    def diagonal_sandwiches(self, diagonals: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """The diagonal of W^dagger (S_{z_1} (x) ... (x) S_{z_n}) W for every row z, stacked.

        The r-vector case of ``sandwiches`` when every block B_s is diagonal,
        with ``diagonals`` from ``diagonals``: entry k is the product over the
        registers j of the diagonal of B_{z_j} at idx[k, j], multiplied in the
        order ``sandwiches`` uses.
        """
        out = np.ones((zs.shape[0], self.rank))
        for j in range(self.n - 1, -1, -1):
            out = diagonals[zs[:, j, None], self.idx[:, j]] * out
        return out

    def sandwiches(self, singles: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """W^dagger (S_{z_1} (x) ... (x) S_{z_n}) W for every row z of ``zs``, stacked.

        With the single-copy blocks B_s of ``blocks``, this is the kept
        sub-block of B_{z_1} (x) ... (x) B_{z_n}, built one register at a
        time, last to first, from the kept suffixes (the block is the outer
        factor, so the long axis stays innermost).
        """
        blocks = self.blocks(singles)
        zs = np.asarray(zs, dtype=np.int64).reshape(-1, self.n)
        out = np.ones((zs.shape[0], 1, 1), dtype=blocks.dtype)
        for j, sel in zip(range(self.n - 1, -1, -1), self.levels):
            b = blocks[zs[:, j]]
            m = out.shape[1] * b.shape[1]
            out = (b[:, :, None, :, None] * out[:, None, :, None, :]).reshape(-1, m, m)
            if sel is not None:
                out = out[:, sel[:, None], sel]
        return out

    def gram(self) -> np.ndarray:
        """W^dagger W, the case S = I."""
        eye = np.eye(self.vecs.shape[0])[None]
        return self.sandwiches(eye, np.zeros(self.n, dtype=np.int64))[0]


SPECTRUM_BLOCK = 2 ** 16    # entries of one stacked (keys, r, r) batch of trace norms


def _trace_norms(d: np.ndarray) -> np.ndarray:
    """||D_k||_1 of every Hermitian D_k in a stack, read from one triangle; real when D is."""
    return np.abs(np.linalg.eigvalsh(_real_if_exact(d))).sum(axis=-1)


def _target_sandwiches(target: Mapping, state: TensorPower, support: _Support):
    """zs -> the stacked W^dagger T_z W of the outputs zs.

    A ``ProductTarget`` on as many registers as the state is sandwiched from
    single-copy blocks; any other target is applied to the dense W, a z
    outside it giving 0.
    """
    if isinstance(target, ProductTarget) and target.n == state.n:
        singles = np.stack(target.singles)
        return lambda zs: support.sandwiches(singles, zs)
    apply = target.apply if isinstance(target, ProductTarget) else (lambda z, w: target[z] @ w)
    r = support.rank
    return lambda zs: np.array([support.w.conj().T @ apply(z, support.w) if z in target
                                else np.zeros((r, r)) for z in zs]).reshape(-1, r, r)


def _candidate_sandwiches(candidate: Mapping, support: _Support) -> tuple:
    """(keys, stack): stack(lo, hi) is W^dagger C_z W for keys[lo:hi], stacked."""
    keys = list(candidate)
    if isinstance(candidate, FactoredCandidate):
        s_words = candidate.word_sandwiches(support.gram(), lambda: support.w)
        return keys, lambda lo, hi: np.tensordot(candidate.probs[:, lo:hi].T, s_words, axes=1)
    ops = [candidate[z] for z in keys]
    return keys, lambda lo, hi: np.array([support.w.conj().T @ (c @ support.w)
                                          for c in ops[lo:hi]])


def _dense_terms(target: Mapping, state: TensorPower, candidate: Mapping,
                 support: _Support) -> list:
    """(sum Tr{W^dagger C_z W}, sum ||W^dagger (T_z - C_z) W||_1) per chunk of keys.

    The r x r operators are formed and their trace norms taken as one stacked
    eigvalsh per chunk of at most SPECTRUM_BLOCK entries.
    """
    target_block = _target_sandwiches(target, state, support)
    keys, candidate_block = _candidate_sandwiches(candidate, support)
    step = max(1, SPECTRUM_BLOCK // support.rank ** 2)
    terms = []
    for lo in range(0, len(keys), step):
        c = candidate_block(lo, lo + step)
        mass = float(np.trace(c, axis1=1, axis2=2).real.sum())
        gap = target_block(keys[lo:lo + step])
        gap = gap.astype(np.result_type(gap, c), copy=False)    # real only when both are
        gap -= c
        del c                   # freed before the solver takes its workspace
        terms.append((mass, float(_trace_norms(gap).sum())))
    return terms


def _diagonal_terms(target: Mapping, candidate: Mapping, support: _Support) -> list | None:
    """The terms of ``_dense_terms`` from r-vectors when every gap is diagonal, else None.

    That is the case of a ``ProductTarget`` on the state's registers, a
    ``FactoredCandidate`` that stores w0 only, so C_z = c_z I, and
    single-copy blocks of every T_z and of I that are diagonal (see
    ``_Support.diagonals``).  Then W^dagger (T_z - C_z) W = diag(t_z - c_z lam),
    with t_z and lam the diagonals of W^dagger T_z W and W^dagger W, so its
    trace norm is sum |t_z - c_z lam| and Tr{W^dagger C_z W} = c_z sum(lam).
    """
    if not (isinstance(target, ProductTarget) and target.n == support.n
            and isinstance(candidate, FactoredCandidate) and len(candidate.words) == 1):
        return None
    singles = support.diagonals(np.stack(target.singles))
    eye = support.diagonals(np.eye(support.vecs.shape[0])[None])
    if singles is None or eye is None:
        return None
    zs = np.array(list(candidate), dtype=np.int64).reshape(-1, support.n)
    lam = support.diagonal_sandwiches(eye, np.zeros((1, support.n), dtype=np.int64))[0]
    step = max(1, SPECTRUM_BLOCK // support.rank)
    terms = []
    for lo in range(0, zs.shape[0], step):
        c = candidate.probs[0, lo:lo + step]
        gap = support.diagonal_sandwiches(singles, zs[lo:lo + step]) - c[:, None] * lam
        terms.append((float((c * lam.sum()).sum()), float(np.abs(gap).sum())))
    return terms


def _absent_mass(target: Mapping, state: TensorPower, keys: list) -> float:
    """sum Tr{T_z rho} over the outputs z of the target that are not keys of the candidate."""
    if isinstance(target, ProductTarget):
        traces = target.traces(state if state.n == target.n else state.dense())
        absent = np.ones(traces.shape, dtype=bool)
        seen = np.array([z for z in keys if z in target], dtype=np.int64).reshape(-1, target.n)
        absent[tuple(seen.T)] = False
        return float(traces[absent].real.sum())
    seen = set(keys)
    mat = state.dense()
    return sum(float(np.vdot(mat, target[z]).real) for z in target if z not in seen)


def faithfulness(rho_n, target: Mapping, candidate: Mapping) -> float:
    """The faithfulness figure K of a candidate sub-POVM against a target.

    K = sum_z ||sqrt(rho)(T_z - C_z)sqrt(rho)||_1 + Tr{(I - sum_z C_z) rho},
    evaluated on the n-copy state ``rho_n`` (a ``TensorPower`` or a dense
    matrix) through its support: with rho = W W^dagger (see ``_Support``),
    each trace norm is that of the r x r operator W^dagger (T_z - C_z) W
    (r = rank rho; exact, as sqrt(rho) = V_+ W^dagger and V_+ is an
    isometry), and the completion term is sum lambda_+ - sum_z Tr{W^dagger C_z W}.
    When every W^dagger (T_z - C_z) W is diagonal (a constant candidate on a
    commuting target, see ``_diagonal_terms``) K comes from r-vectors with no
    solver; otherwise the trace norms are taken as one stacked eigvalsh per
    chunk of at most SPECTRUM_BLOCK entries.  A z with no candidate operator
    contributes Tr{T_z rho}, which is its trace norm because T_z >= 0.  A
    ``ProductTarget`` of a ``TensorPower`` is sandwiched from single-copy
    blocks, and a ``FactoredCandidate`` is never expanded into dense C_z.
    """
    state = rho_n if isinstance(rho_n, TensorPower) else TensorPower(rho_n, 1)
    support = _Support(state)
    terms = _diagonal_terms(target, candidate, support)
    if terms is None:
        terms = _dense_terms(target, state, candidate, support)
    k = support.total
    for mass, norms in terms:
        k -= mass
        k += norms
    return k + _absent_mass(target, state, list(candidate))

