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
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .codes import (
    CodeEnsembleSpec,
    UccCode,
    all_vectors,
    codeword_indices,
    multiplicity_table,
    require_prime,
    sample_ensemble,
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
    ids = np.empty(vals.size, dtype=np.int64)
    probs = []
    current = -1
    last = None
    for idx in order:
        v = vals[idx]
        if last is None or v - last > rel_tol * scale:
            current += 1
            probs.append(0.0)
        ids[idx] = current
        probs[current] += max(v, 0.0)
        last = v
    return ids, np.array(probs)


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
        if self.p ** self.n > SEQUENCE_CAP:
            raise ValueError("p**n exceeds the desk-scale cap")
        # The distributed decoder enumerates the sum code, of p**(k+l+l2) words.
        for name, l in (("l", self.l), ("l2", self.l2), ("l+l2", self.l + (self.l2 or 0))):
            if l is not None and self.p ** (self.k + l) > SEQUENCE_CAP:
                raise ValueError(f"p**(k+{name}) exceeds the desk-scale cap")


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


def _bin_hits(code: UccCode, words: list) -> np.ndarray:
    """Where each codeword a G + h(i) sits in the list ``words``, or -1 when it is not listed.

    Row i is bin i, its entries in the sweep order of a; shape (p**l, p**k).
    """
    return _stacked_hits(code.G[None], code.h[None], code.p, words)[0]


def _stacked_hits(g: np.ndarray, h: np.ndarray, p: int, words: list) -> np.ndarray:
    """``_bin_hits`` of a stack of codes (G_b, h_b), shape (B, bins, p**k).

    Words are matched by their base-p indices (``codeword_indices``).
    """
    flat = codeword_indices(g, h, p).reshape(h.shape[0], -1, h.shape[1]).transpose(0, 2, 1)
    if not words:
        return np.full(flat.shape, -1)
    known = np.array(words, dtype=np.int64) @ (p ** np.arange(h.shape[2] - 1, -1, -1))
    order = np.argsort(known)
    hit = order[np.searchsorted(known, flat, sorter=order).clip(max=known.size - 1)]
    return np.where(known[hit] == flat, hit, -1)


class DecodeTable(Mapping):
    """Message pair (i, j) -> decoded word of one (mu1, mu2), stored sparse.

    Message 0 of a side is its completion and message i >= 1 its bin i - 1;
    ``messages`` holds the range of each side's messages (point-to-point has
    B's one bin, message 1, only).  Only the bin pairs that decode to a word
    other than w0 are stored: row k of ``pairs`` is a pair (i, j), both >= 1,
    that decodes to ``words[which[k]]``, a word other than w0, the rows in
    ascending order.  Every other pair in range decodes to w0.  The keys are
    every pair in range, in lexicographic order; a key out of range is
    missing.
    """

    def __init__(self, messages: tuple, w0, words: list, pairs, which):
        self.messages, self.w0, self.words = tuple(messages), w0, words
        self.pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        self.which = np.asarray(which, dtype=np.int64).reshape(-1)
        self.keys = self.pairs[:, 0] * self.messages[1].stop + self.pairs[:, 1]    # ascending

    def _key(self, pair) -> int | None:
        """i * (last message of B + 1) + j of a message pair (i, j) in range, else None."""
        if not (isinstance(pair, tuple) and len(pair) == 2
                and all(isinstance(m, (int, np.integer)) for m in pair)
                and all(m in r for m, r in zip(pair, self.messages))):
            return None
        return int(pair[0]) * self.messages[1].stop + int(pair[1])

    def __contains__(self, pair) -> bool:
        return self._key(pair) is not None

    def __getitem__(self, pair):
        key = self._key(pair)
        if key is None:
            raise KeyError(pair)
        k = int(np.searchsorted(self.keys, key))
        return (self.words[self.which[k]] if k < self.keys.size and self.keys[k] == key
                else self.w0)

    def __iter__(self):
        return itertools.product(*self.messages)

    def __len__(self) -> int:
        return len(self.messages[0]) * len(self.messages[1])


def _decode_tables(g: np.ndarray, h: np.ndarray, p: int, accept: list, w0,
                   num_mu2: int, messages_b: range) -> tuple:
    """(decode tables, collisions) of a stack of codes, codewords looked up in ``accept``.

    A bin decodes to its single accepted codeword, else to w0.  A bin with two
    or more accepted codewords (a repeated codeword counting twice) is a
    collision.  Code c of the stack is the table of (mu1, mu2) =
    divmod(c, num_mu2), and its bin b the bin pair (b // bins_b, b % bins_b)
    of messages one higher, with B's messages ``messages_b`` (bins_b bins).
    """
    bins_b = messages_b.stop - 1
    hits = _stacked_hits(g, h, p, accept)
    count = (hits >= 0).sum(axis=2)
    code, bins = np.nonzero(count == 1)
    which = hits.max(axis=2)[code, bins]
    pairs = np.stack(divmod(bins, bins_b), axis=1) + 1
    ends = np.searchsorted(code, np.arange(h.shape[0] + 1)).tolist()
    messages = (range(h.shape[1] // bins_b + 1), messages_b)
    tables = {divmod(c, num_mu2): DecodeTable(messages, w0, accept, pairs[a:b], which[a:b])
              for c, (a, b) in enumerate(zip(ends[:-1], ends[1:]))}
    return tables, int((count >= 2).sum())


def _code_side(code: UccCode, gamma: dict, factors: dict, typical: np.ndarray) -> SideData:
    dim = typical.shape[0]
    own = {w: x for w, x in factors.items() if w in gamma}
    v_cut = _cut_directions(_sigma_factor(own, gamma, dim))
    x = _hstack(own.values(), dim)
    f = x - v_cut @ (v_cut.conj().T @ x)     # every F_w side by side, in one product
    widths = np.array([x_w.shape[1] for x_w in own.values()] + [0], dtype=np.int64)
    ends = np.cumsum(widths)                  # the trailing 0 width serves unlisted words
    a_factors = {w: f[:, e - c:e] for w, c, e in zip(own, widths.tolist(), ends.tolist())}
    # One gather puts every bin's columns of f side by side as G (a repeated
    # word repeats its columns); each G_i is a column slice of G.
    hits = _bin_hits(code, list(own))
    found = hits[hits >= 0]
    g = f[:, _ranges(ends[found] - widths[found], ends[found])]
    bounds = np.concatenate([[0], np.cumsum(widths[hits].sum(axis=1))]).tolist()
    bin_factors = [g[:, a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    top = np.linalg.norm(g, 2) if g.any() else 0.0    # a zero (or column-free) G needs no SVD
    return SideData(code, gamma, own, typical, v_cut, a_factors, bin_factors,
                    max(0.0, float(top) ** 2 - 1.0))


def _build_side(ens: CanonicalEnsemble, tset: TypicalSet, rho_mat: np.ndarray, codes: list,
               params: ProtocolParams, kl: int) -> tuple:
    """U (Pi_rho = U U^dagger), the X_w table and the pruned per-code operators of one side.

    X_w is built only for typical, positive-weight words that occur in some
    code: Abar_w = X_w X_w^dagger with X_w = Q B_w[:, keep] sqrt(eig c_w),
    where Q = (rho^{-1/2})^{(x) n} Pi_rho = U diag(inv) U^dagger is applied
    through U, B_w is the eigenbasis of rho_hat_{w^n}, keep its conditional
    typical columns and c_w = lambda_{w^n} p^n / ((1 + eta) p^kl).  Each
    code's operators are kept as factors (see ``SideData``), for the words
    of that code only.

    X_w depends on w only through its type up to a reordering of the
    registers, as Pi_rho and Q are invariant under register permutations:
    X_w is built once for the sorted word of its type class and every other
    word of the class permutes that factor's register axes.
    """
    n, d = params.n, rho_mat.shape[0]
    u, inv = _typical_factor(rho_mat, n, params.delta)
    u_inv, u_adj = u * inv, u.conj().T
    norm = params.p ** n / ((1.0 + params.eta) * params.p ** kl)
    gammas = [multiplicity_table(c) for c in codes]
    used = set().union(*gammas)
    spectra = [_spectrum(s) for s in ens.post_states]
    idx = all_vectors(n, d)
    words = [w for w in tset.members if w in used and ens.weight_of(w) > 0.0]
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
    sides = [_code_side(c, g, factors, u) for c, g in zip(codes, gammas)]
    return u, factors, sides


# ---------------------------------------------------------------------------
# Point-to-point construction.

@dataclass
class ProtocolInstance:
    params: ProtocolParams
    povm: Povm
    rho: DensityOperator
    ens: CanonicalEnsemble      # padded to F_p
    tset: TypicalSet
    typical: np.ndarray         # U, with Pi_rho = U U^dagger
    abar: Mapping               # word tuple -> unpruned Abar_w (typical words of some code)
    w0: tuple | None            # lexicographically smallest non-typical word, or None
    mus: list                   # SideData per mu
    decode_tables: dict         # (mu, 0) -> DecodeTable (i, 1) -> word: A message i (0 the
                                # completion) with B's one bin
    sub_povm_defect: float      # max over mu of lambda_max(sum_i Gamma_i - I)
    decoder_collisions: int

    @property
    def dim_n(self) -> int:
        return self.rho.dim ** self.params.n


def _lex_smallest_outside(tset: TypicalSet, p: int, n: int):
    members = set(tset.members)
    for row in all_vectors(n, p):
        t = tuple(int(x) for x in row)
        if t not in members:
            return t
    return None


def build_instance(params: ProtocolParams, m: Povm, rho: DensityOperator) -> ProtocolInstance:
    """Construct the point-to-point structured sub-POVMs for every mu."""
    n, p = params.n, params.p
    _check_dim(rho.dim, n)
    ens = pad_ensemble(canonical_ensemble(m, rho), p)
    tset = typical_set(ens.weights, n, params.delta)
    codes = sample_ensemble(CodeEnsembleSpec(p, n, params.k, params.l,
                                             params.num_mu, params.seed))
    u, factors, mus = _build_side(ens, tset, rho.mat, codes, params, params.k + params.l)
    w0 = _lex_smallest_outside(tset, p, n)
    # A bin decodes to its single built word.  Message i of side A is the
    # completion (i = 0) or bin i - 1; side B has one mu and one bin, message 1.
    decode_tables, collisions = _decode_tables(np.stack([c.G for c in codes]),
                                               np.stack([c.h for c in codes]), p,
                                               list(factors), w0, 1, range(1, 2))
    return ProtocolInstance(params, m, rho, ens, tset, u, _Grams(factors), w0, mus,
                            decode_tables, float(max(mu.defect for mu in mus)), collisions)


def _lookup(decode_tables: dict, mus: tuple, messages: tuple, sides: int):
    """decode_tables[mus][messages]; a ValueError names a bad index by its first ``sides`` parts."""
    show = (lambda t: t[0]) if sides == 1 else (lambda t: t)
    if mus not in decode_tables:
        raise ValueError(f"mu {show(mus)} out of range")
    if messages not in decode_tables[mus]:
        raise ValueError(f"message {show(messages)} out of range")
    return decode_tables[mus][messages]


def decode_p2p(instance: ProtocolInstance, message: int, mu: int = 0):
    """Message 0 is the completion outcome (decoded to w0); 1..p**l are bins."""
    return _lookup(instance.decode_tables, (mu, 0), (message, 1), 1)


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


def _block_columns(lo_a, hi_a, lo_b, hi_b, width: int) -> np.ndarray:
    """The indices i * width + j of the blocks [lo_a, hi_a) x [lo_b, hi_b), block after block."""
    rows = np.repeat(np.arange(lo_a.size), hi_a - lo_a)      # the block of each row
    return (np.repeat(_ranges(lo_a, hi_a), (hi_b - lo_b)[rows]) * width
            + _ranges(lo_b[rows], hi_b[rows]))


class FactoredCandidate(Mapping):
    """The overall sub-POVM C_z = sum_word P^n_{Z|W}(z | word) C_word of either topology.

    ``decode_tables`` maps every (mu1, mu2), all weighted alike, to its
    ``DecodeTable`` of message pairs (i, j) -> word; message 0 of a side is its
    completion and message i >= 1 its bin i - 1, with the bin factors G_i
    (side A) and H_j (side B) of each mu listed in ``bins_a`` and ``bins_b``.  A side's
    outcomes add up to I and every pair with a completion decodes to w0, so
    C_w0 = I - sum over the other words of C_word, and a word other than w0
    keeps only its bin pairs: C_word = (G (x) H) diag(c) (G (x) H)^dagger on
    (H_A (x) H_B)^{(x) n}, with G and H the nonzero bin factors side by side
    and c = 1 / (N1 N2) on the Kronecker columns of the word's bin pairs, 0
    elsewhere.  Point-to-point is the case of a B side of dimension 1 with
    one bin, the number 1, whose completion is 0.  Only the pairs each table
    stores are walked, and a word other than w0 with no nonzero bin pair is
    not stored.

    The keys are the z of positive probability under a stored word.
    ``candidate[z]`` builds the dense C_z on demand; ``sandwiches`` gives every
    W^dagger C_z W without forming it.  Dense operators, like W, are in the
    interleaved (AB)^n ordering.
    """

    def __init__(self, decode_tables: dict, w0, bins_a, bins_b,
                 p_ext: StochasticMap, n: int, dims: tuple):
        self.n, self.dims = n, tuple(dims)
        g, ends_a = _live_columns(bins_a, self.dims[0] ** n)
        h, ends_b = _live_columns(bins_b, self.dims[1] ** n)
        self.g_adj, self.h_adj = (np.ascontiguousarray(f.conj().T) for f in (g, h))
        self.weight = 1.0 / len(decode_tables)
        # Each pair of nonzero bins decoding to a word other than w0, as (word,
        # bin of A, bin of B); there is none unless both sides have one.
        first_a, first_b = ([0] + np.cumsum([len(mu) for mu in bins]).tolist()
                            for bins in (bins_a, bins_b))
        live_a, live_b = np.diff(ends_a) > 0, np.diff(ends_b) > 0
        index, rows = {}, [np.zeros((0, 3), dtype=np.int64)]
        for (i1, i2), table in decode_tables.items() if g.shape[1] and h.shape[1] else ():
            used = np.flatnonzero(np.bincount(table.which, minlength=len(table.words)))
            ids = np.zeros(len(table.words), dtype=np.int64)
            ids[used] = [index.setdefault(table.words[k], len(index)) for k in used.tolist()]
            x, y = first_a[i1] + table.pairs[:, 0] - 1, first_b[i2] + table.pairs[:, 1] - 1
            rows.append(np.column_stack([ids[table.which], x, y])[live_a[x] & live_b[y]])
        rows = np.concatenate(rows)
        ids, x, y = rows[np.lexsort(rows.T[::-1])].T    # word by word
        lo_a, hi_a, lo_b, hi_b = ends_a[x], ends_a[x + 1], ends_b[y], ends_b[y + 1]
        self.cols = _block_columns(lo_a, hi_a, lo_b, hi_b, h.shape[1])
        sizes = np.bincount(ids, weights=(hi_a - lo_a) * (hi_b - lo_b),
                            minlength=len(index)).astype(np.int64)
        stored = np.flatnonzero(sizes)
        words = list(index)
        self.words = [w0] + [words[k] for k in stored]
        self.bounds = np.cumsum([0] + sizes[stored].tolist(), dtype=np.int64)
        zs = _output_grid(p_ext, n)
        probs = np.array([_output_probs(w, p_ext, zs) for w in self.words]).reshape(-1, len(zs))
        live = probs.sum(axis=0) > 0.0
        self.probs = probs[:, live]                     # (word, output) -> P^n(z | word)
        self._column = {z: col for col, z in enumerate(map(tuple, zs[live].tolist()))}
        self.dim = g.shape[0] * h.shape[0]

    def __contains__(self, z) -> bool:
        return z in self._column

    def __getitem__(self, z) -> np.ndarray:
        return self.combine(self.probs[:, self._column[z]])

    def __iter__(self):
        return iter(self._column)

    def __len__(self) -> int:
        return len(self._column)

    def _projections(self, w: np.ndarray) -> np.ndarray:
        """The rows of (G (x) H)^dagger W that the stored words use, word by word."""
        da, db = self.dims
        n, r = self.n, w.shape[1]
        order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)) + [2 * n]
        t = w.reshape((da, db) * n + (r,)).transpose(order)
        t = np.ascontiguousarray(t).reshape(da ** n, db ** n, r)
        pa = (self.g_adj @ t.reshape(da ** n, -1)).reshape(-1, db ** n, r)
        pab = np.tensordot(self.h_adj, pa, axes=(1, 1)).transpose(1, 0, 2).reshape(-1, r)
        return pab[self.cols]

    def combine(self, c: np.ndarray) -> np.ndarray:
        """sum_word c[word] C_word = c[w0] I + sum_(word != w0) (c[word] - c[w0]) C_word, dense."""
        eye = np.eye(self.dim)
        q = self._projections(eye)
        v = np.repeat(self.weight * (c[1:] - c[0]), np.diff(self.bounds))
        return hermitian_part(c[0] * eye + (q.conj().T * v) @ q)

    def word_sandwiches(self, gram: np.ndarray, w) -> np.ndarray:
        """W^dagger C_word W of every stored word, w0 first, stacked, given W^dagger W.

        ``w()`` gives the dense W; it is called only when a word other than
        w0 is stored, as only then does (G (x) H)^dagger W enter.
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


def assemble_overall(instance: ProtocolInstance, p_zw: StochasticMap) -> FactoredCandidate:
    """The overall sub-POVM {Lambda_hat_{z^n}} of the protocol (complete by construction).

    The distributed candidate with a B side of dimension 1: one mu, one bin, the number 1.
    """
    return FactoredCandidate(instance.decode_tables, instance.w0,
                             [mu.bin_factors for mu in instance.mus], [[np.ones((1, 1))]],
                             extend_map_to_field(p_zw, instance.params.p), instance.params.n,
                             (instance.rho.dim, 1))


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
        # Registers are added last to first.  Per register j, which entries of
        # (d letters) x (kept suffixes from register j + 1) are kept suffixes
        # from register j; None when all are.
        self.levels = []
        prev = np.zeros(1, dtype=np.int64)
        for j in range(self.n - 1, -1, -1):
            codes = np.unique(self.idx[:, j:] @ d ** np.arange(self.n - 1 - j, -1, -1))
            grid = (np.arange(d)[:, None] * d ** (self.n - 1 - j) + prev).ravel()
            self.levels.append(None if codes.size == grid.size
                               else np.searchsorted(grid, codes))
            prev = codes

    @functools.cached_property
    def w(self) -> np.ndarray:
        return _kron_columns([self.vecs * self.roots] * self.n, self.idx)

    def sandwiches(self, singles: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """W^dagger (S_{z_1} (x) ... (x) S_{z_n}) W for every row z of ``zs``, stacked.

        With single-copy blocks B_s = sqrt(Lambda) V^dagger S_s V sqrt(Lambda),
        this is the kept sub-block of B_{z_1} (x) ... (x) B_{z_n}, built one
        register at a time, last to first, from the kept suffixes (the block
        is the outer factor, so the long axis stays innermost).
        """
        blocks = (self.vecs.conj().T @ singles @ self.vecs) * np.outer(self.roots, self.roots)
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


def faithfulness(rho_n, target: Mapping, candidate: Mapping) -> float:
    """The faithfulness figure K of a candidate sub-POVM against a target.

    K = sum_z ||sqrt(rho)(T_z - C_z)sqrt(rho)||_1 + Tr{(I - sum_z C_z) rho},
    evaluated on the n-copy state ``rho_n`` (a ``TensorPower`` or a dense
    matrix) through its support: with rho = W W^dagger (see ``_Support``),
    each trace norm is that of the r x r operator W^dagger (T_z - C_z) W
    (r = rank rho; exact, as sqrt(rho) = V_+ W^dagger and V_+ is an
    isometry), and the completion term is sum lambda_+ - sum_z Tr{W^dagger C_z W}.
    The trace norms are taken as one stacked eigvalsh per chunk of at most
    SPECTRUM_BLOCK entries.  A z with no candidate operator contributes
    Tr{T_z rho}, which is its trace norm because T_z >= 0.  A ``ProductTarget``
    of a ``TensorPower`` is sandwiched from single-copy blocks, and a
    ``FactoredCandidate`` (either topology) is never expanded into dense C_z.
    """
    state = rho_n if isinstance(rho_n, TensorPower) else TensorPower(rho_n, 1)
    support = _Support(state)
    target_block = _target_sandwiches(target, state, support)
    keys, candidate_block = _candidate_sandwiches(candidate, support)
    k = support.total
    step = max(1, SPECTRUM_BLOCK // support.rank ** 2)
    for lo in range(0, len(keys), step):
        c = candidate_block(lo, lo + step)
        k -= float(np.trace(c, axis1=1, axis2=2).real.sum())
        gap = target_block(keys[lo:lo + step])
        gap = gap.astype(np.result_type(gap, c), copy=False)    # real only when both are
        gap -= c
        del c                   # freed before the solver takes its workspace
        k += float(_trace_norms(gap).sum())
    seen = set(keys)
    absent = [z for z in target if z not in seen]
    if isinstance(target, ProductTarget):
        traces = target.traces(state if state.n == target.n else state.dense())
        return k + sum(float(traces[z].real) for z in absent)
    mat = state.dense()
    return k + sum(float(np.vdot(mat, target[z]).real) for z in absent)


# ---------------------------------------------------------------------------
# Distributed construction.

@dataclass
class DistributedInstance:
    params: ProtocolParams
    m_a: Povm
    m_b: Povm
    rho_ab: DensityOperator
    ens_a: CanonicalEnsemble
    ens_b: CanonicalEnsemble
    tset_a: TypicalSet
    tset_b: TypicalSet
    tset_w: TypicalSet          # typical set of W = U + V at delta_hat = p * delta
    w0: tuple | None
    side_a: list                # SideData per mu1
    side_b: list                # SideData per mu2
    decode_tables: dict         # (mu1, mu2) -> DecodeTable (i, j) -> word (message 0 the
                                # completion)
    sub_povm_defect: float
    decoder_collisions: int


def build_distributed_instance(params: ProtocolParams, m_a: Povm, m_b: Povm,
                               rho_ab: DensityOperator) -> DistributedInstance:
    """Two pruned sub-POVM families sharing one generator matrix, plus the joint decoder."""
    if params.l2 is None or params.num_mu2 is None:
        raise ValueError("distributed build needs l2 and num_mu2")
    n, p, k = params.n, params.p, params.k
    rho_a = partial_trace(rho_ab, traced=[1])
    rho_b = partial_trace(rho_ab, traced=[0])
    if (rho_a.dim * rho_b.dim) ** n > DIM_CAP:
        raise ValueError("joint dimension exceeds the dense-operator cap")
    ens_a = pad_ensemble(canonical_ensemble(m_a, rho_a), p)
    ens_b = pad_ensemble(canonical_ensemble(m_b, rho_b), p)
    tset_a = typical_set(ens_a.weights, n, params.delta)
    tset_b = typical_set(ens_b.weights, n, params.delta)
    lam_w = [float(np.trace(el @ rho_ab.mat).real) for el in _sum_povm(m_a, m_b, p).elements]
    tset_w = typical_set(lam_w, n, p * params.delta)
    w0 = _lex_smallest_outside(tset_w, p, n)

    rng = np.random.default_rng(params.seed)
    g = rng.integers(0, p, size=(k, n))
    codes_a = [UccCode(p, n, k, params.l, g, rng.integers(0, p, size=(p ** params.l, n)))
               for _ in range(params.num_mu)]
    codes_b = [UccCode(p, n, k, params.l2, g, rng.integers(0, p, size=(p ** params.l2, n)))
               for _ in range(params.num_mu2)]
    _, _, side_a = _build_side(ens_a, tset_a, rho_a.mat, codes_a, params, k + params.l)
    _, _, side_b = _build_side(ens_b, tset_b, rho_b.mat, codes_b, params, k + params.l2)

    # Bin pair (i, j) holds the words a G + h_A(i) + h_B(j): bin i p**l2 + j of
    # the sum code (k, l + l2), one code per (mu1, mu2), decoded in one stack.
    h_a, h_b = np.stack([c.h for c in codes_a]), np.stack([c.h for c in codes_b])
    na, nb = h_a.shape[1], h_b.shape[1]
    shifts = (h_a[:, None, :, None] + h_b[None, :, None, :]) % p
    decode_tables, collisions = _decode_tables(
        np.broadcast_to(g, (params.num_mu * params.num_mu2, k, n)),
        shifts.reshape(-1, na * nb, n), p, list(tset_w.members), w0, params.num_mu2,
        range(nb + 1))
    defect = max(s.defect for s in side_a + side_b)
    return DistributedInstance(params, m_a, m_b, rho_ab, ens_a, ens_b,
                               tset_a, tset_b, tset_w, w0, side_a, side_b,
                               decode_tables, float(defect), collisions)


def decode_distributed(inst: DistributedInstance, i: int, j: int,
                       mu1: int = 0, mu2: int = 0):
    """Messages (i, j) with 0 meaning the completion outcome on that side."""
    return _lookup(inst.decode_tables, (mu1, mu2), (i, j), 2)


def assemble_overall_distributed(inst: DistributedInstance,
                                 p_zw: StochasticMap) -> FactoredCandidate:
    """Overall sub-POVM {Lambda_hat_{z^n}} on (H_A (x) H_B)^{(x) n}, in factored form."""
    return FactoredCandidate(inst.decode_tables, inst.w0, [s.bin_factors for s in inst.side_a],
                             [s.bin_factors for s in inst.side_b],
                             extend_map_to_field(p_zw, inst.params.p), inst.params.n,
                             inst.rho_ab.register_dims)


def _sum_povm(m_a: Povm, m_b: Povm, p: int) -> Povm:
    """The measurement of W = U + V over F_p on H_A (x) H_B."""
    d = m_a.dim * m_b.dim
    els = [np.zeros((d, d), dtype=complex) for _ in range(p)]
    for u, lam_u in enumerate(m_a.elements):
        for v, lam_v in enumerate(m_b.elements):
            els[(u + v) % p] = els[(u + v) % p] + np.kron(lam_u, lam_v)
    return Povm(tuple(els))


def target_overall_distributed(m_a: Povm, m_b: Povm, p_zw: StochasticMap,
                               p: int, n: int) -> ProductTarget:
    """(M_AB composed with P_{Z|W})^{(x) n} in the interleaved (AB)^n ordering."""
    return target_overall(_sum_povm(m_a, m_b, p), extend_map_to_field(p_zw, p), n)
