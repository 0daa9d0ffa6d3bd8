"""Desk-scale construction of the structured approximating POVMs.

Builds, for small block lengths, the full pipeline: canonical ensembles,
typical and conditional typical projectors, cut post-states, the coset-coded
operator tables with pruning, binning, decoding, and the end-to-end
faithfulness figure K of the resulting sub-POVM against the tensor-power
target measurement.
"""

from __future__ import annotations

import collections
import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .codes import (
    _over_cap,
    all_vectors,
    codeword_indices,
    digit_dtype,
    require_prime,
    word_counts,
)
from .cq import StochasticMap, compose
from .linalg import (
    EIG_CUTOFF,
    PRUNE_TOL,
    DensityOperator,
    Povm,
    hermitian_part,
    kron_all,
    partial_trace,
)
from .memo import array_key, memoised, nbytes, trim

SEQUENCE_CAP = 2 ** 20   # cap on p**n (sequence enumeration)
DIM_CAP = 4200           # cap on dim(H)**n (dense operators)


# ---------------------------------------------------------------------------
# Canonical ensemble and typicality.

@dataclass(frozen=True, eq=False)
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
        object.__setattr__(self, "post_states", tuple(_read_only(np.array(s, dtype=complex))
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
    root = rho.root
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _digits(index, p: int, n: int) -> np.ndarray:
    """The n base-p digits of each index (most significant first), one row per index."""
    return np.stack(np.unravel_index(index, (p,) * n), axis=-1)


def typical_rows(labels, probs, delta: float) -> np.ndarray:
    """Which rows of ``labels`` (..., n) are strong delta-typical for the law ``probs``.

    A row is typical when each letter a of positive probability occurs
    N(a) times with |N(a)/n - probs[a]| <= delta probs[a], and no letter of
    zero probability occurs; the result has the leading shape of ``labels``.
    Only the letters of positive probability are counted, so a large
    alphabet of null letters costs one lookup per label.
    """
    labels = np.asarray(labels)
    probs = np.asarray(probs, dtype=float)
    zero = probs <= 1e-14
    pos = np.flatnonzero(~zero)
    counts = (labels[..., None] == pos).sum(axis=-2)
    return (~zero[labels].any(axis=-1)
            & np.all(np.abs(counts / labels.shape[-1] - probs[pos])
                     <= delta * probs[pos] + 1e-12, axis=-1))


@dataclass(frozen=True, eq=False)
class TypicalSet:
    """The strong delta-typical words of length n for ``probs``, as a mask over base-q indices."""

    probs: np.ndarray
    n: int
    delta: float
    mask: np.ndarray      # (q**n,) bool, read-only: word index -> typical
    mass: float

    def is_member(self, seq) -> bool:
        return bool(self.mask[np.ravel_multi_index(tuple(seq), (len(self.probs),) * self.n)])


TYPICAL_BLOCK = 2 ** 16     # word indices per chunk of ``typical_set``


def typical_set(dist, n: int, delta: float) -> TypicalSet:
    """Enumerate the strong delta-typical sequences of an i.i.d. distribution.

    The words are taken TYPICAL_BLOCK indices at a time, so no table of every
    word is formed; the mass adds up the chunks' sums in index order.
    """
    probs = _read_only(np.array(dist, dtype=float))
    q = probs.size
    if q ** n > SEQUENCE_CAP:
        raise ValueError(f"{q}**{n} sequences exceed the desk-scale cap")
    mask, mass = np.empty(q ** n, dtype=bool), 0.0
    for lo in range(0, q ** n, TYPICAL_BLOCK):
        words = _digits(np.arange(lo, min(lo + TYPICAL_BLOCK, q ** n)), q, n)
        ok = mask[lo:lo + TYPICAL_BLOCK] = typical_rows(words, probs, delta)
        mass += float(np.prod(probs[words[ok]], axis=1).sum())
    return TypicalSet(probs, n, delta, _read_only(mask), mass)


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


@dataclass(frozen=True, eq=False)
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
    return _Spectrum(*map(_read_only, (vals, vecs, *_eigen_groups(vals))))


def _kron_columns(mats, cols: np.ndarray) -> np.ndarray:
    """The columns of kron_all(mats) indexed by the rows of ``cols`` (one index per factor)."""
    out = np.ones((1, cols.shape[0]), dtype=np.result_type(*mats))
    for j, m in enumerate(mats):
        # np.take gathers C-ordered; m[:, cols[:, j]] comes back Fortran-ordered,
        # which makes the broadcast product below several times slower.
        out = (out[:, None, :] * np.take(m, cols[:, j], axis=1)[None, :, :]).reshape(
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
    keep = idx[typical_rows(spec.group_ids[idx], spec.group_probs, delta)]
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
        ok &= typical_rows(spectra[w].group_ids[idx[:, at]], spectra[w].group_probs, delta)
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

    ``sides`` holds one (l, N) pair per party: its codes have p**l bins, and
    it draws N of them.  Point-to-point has one side, distributed two.
    """

    n: int
    k: int
    p: int
    sides: tuple
    eta: float = 0.1
    delta: float = 0.2
    seed: int = 0

    def __post_init__(self):
        require_prime(self.p)
        sides = tuple((int(l), int(num)) for l, num in self.sides)
        object.__setattr__(self, "sides", sides)
        bad = [s for s, (l, num) in enumerate(sides) if l < 0 or num < 1]
        if self.n < 1 or self.k < 0 or not sides or 0 in bad:
            raise ValueError("invalid protocol sizes")
        if bad:
            raise ValueError(f"invalid distributed sizes of side {bad[0] + 1}: need l >= 0, N >= 1")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        # Bit-length tests, so an absurd block length is refused without forming p**n.
        if _over_cap(self.p, self.n, SEQUENCE_CAP):
            raise ValueError("p**n exceeds the desk-scale cap")
        # The decoder holds one entry per codeword of each sum code: N_1 ... p**(k+l_1+...).
        mus, e = math.prod(num for _, num in sides), self.k + sum(l for l, _ in sides)
        if _over_cap(self.p, e, SEQUENCE_CAP // mus):
            tags = [str(s + 1) for s in range(len(sides))] if len(sides) > 1 else [""]
            ls = "".join("+l" + t for t in tags[1:])
            name = " ".join("N" + t for t in tags) + f" p**(k+l{ls})"
            raise ValueError(f"{name} exceeds the desk-scale cap: {mus} * {self.p}**{e} entries")


def _gram(f: np.ndarray) -> np.ndarray:
    """F F^dagger."""
    return hermitian_part(f @ f.conj().T)


def _hstack(factors, dim: int) -> np.ndarray:
    """The factors side by side, as one matrix with ``dim`` rows (no columns if there are none).

    Its dtype is that of the factors (real when there are none).
    """
    return np.concatenate([np.zeros((dim, 0)), *factors], axis=1)


def _column_blocks(mat: np.ndarray, ends: np.ndarray):
    """(at, cols, stack) per positive width of the column blocks mat[:, ends[i]:ends[i + 1]].

    ``at`` indexes the blocks of that width; cols[b] holds block at[b]'s
    columns and stack[b] its entries, C-ordered.
    """
    widths = np.diff(ends)
    for c in np.unique(widths[widths > 0]).tolist():
        at = np.flatnonzero(widths == c)
        cols = ends[at, None] + np.arange(c)
        yield at, cols, np.ascontiguousarray(np.take(mat, cols, axis=1).transpose(1, 0, 2))


def _cut_directions(y: np.ndarray, x: np.ndarray) -> tuple:
    """(cut, v_cut, f): the pruning of stacks Y = [sqrt(gamma_w) X_w] and X = [X_w], (B, rows, c).

    Code b cuts Y v / s for each eigenpair (s**2, v) of the small Gram
    Y^dagger Y with s**2 above 1 + PRUNE_TOL: cut[b] orthonormal eigenvectors
    of Y Y^dagger, the first columns of v_cut[b] (the rest are 0), and
    f[b] = X - V_cut (V_cut^dagger X).  ``x`` is pruned in place and returned as f.
    """
    s2, v = np.linalg.eigh(y.conj().transpose(0, 2, 1) @ y)
    cut, v_cut = (s2 > 1.0 + PRUNE_TOL).sum(axis=1), np.zeros_like(y)
    for c in np.unique(cut[cut > 0]).tolist():        # eigh sorts ascending: the last c pairs
        at = slice(None) if np.all(cut == c) else cut == c     # a view, when all codes cut c
        # Fortran-ordered, as one eigh's masked columns are: the BLAS product rounds by layout.
        kept = np.ascontiguousarray(v[at, :, -c:].transpose(0, 2, 1)).transpose(0, 2, 1)
        vc = (y[at] @ kept) / np.sqrt(s2[at, None, -c:])
        x[at] -= vc @ (vc.conj().transpose(0, 2, 1) @ x[at])
        v_cut[at, :, :c] = vc
    return cut, v_cut, x


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


@dataclass(eq=False)
class SideData:
    """Operators derived from one code of one side, kept as factors.

    With Y = [sqrt(gamma_w) X_w] over the code's built words, Sigma = Y Y^dagger.
    Pruning cuts V_cut, the left singular vectors of Y with squared singular
    value above 1 + PRUNE_TOL: Pi_mu = Pi_rho - V_cut V_cut^dagger, which is
    the projector onto the non-negative eigenspace of Pi_rho - Sigma on
    range(Pi_rho), as range(Y) lies in range(Pi_rho).  The pruned
    A_w = F_w F_w^dagger with F_w = Pi_mu X_w; bin i is G_i G_i^dagger, where
    G_i puts the F_w of the bin's words side by side (a repeated word
    repeats its columns); the completion is I - G G^dagger, with G every G_i
    side by side.  ``a_ops`` builds the dense A_w on access.  Its arrays are
    views of its ``Side``'s.
    """

    codewords: np.ndarray       # (p**l, p**k): bin i's codewords a G + h(i), as base-p indices
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


@dataclass(eq=False)
class Side:
    """One party of the protocol: its state, ensemble and typical set, and its N codes' operators.

    Code mu is its codewords, codewords[mu] (see ``SideData``).  Each kind of
    operator is one matrix whose columns run code after code: code mu's F_w
    (its built words ascending) are the columns pruned_ends[mu]:pruned_ends[mu + 1]
    of ``pruned``, its V_cut the columns cut_ends[mu]:cut_ends[mu + 1] of ``cuts``,
    and its bin i factor G_i the columns of ``bins`` from bin_ends[mu p**l + i] to
    the next end.  The first four fields are those of the side's ``_SideBasis``.
    """

    rho: DensityOperator        # the party's reduced state
    ens: CanonicalEnsemble      # padded to F_p
    tset: TypicalSet
    typical: np.ndarray         # U, with Pi_rho = U U^dagger
    factors: dict               # word tuple -> X_w, for every word built on this side
    codewords: np.ndarray       # (N, p**l, p**k), from ``_bin_indices``
    pruned: np.ndarray
    pruned_ends: np.ndarray     # (N + 1,)
    cuts: np.ndarray
    cut_ends: np.ndarray        # (N + 1,)
    bins: np.ndarray
    bin_ends: np.ndarray        # (N p**l + 1,)
    defects: np.ndarray         # (N,) each code's ``SideData.defect``

    @functools.cached_property
    def mus(self) -> list:
        """SideData per mu, formed on first read."""
        p, n, bins = self.ens.num_letters, self.tset.n, self.codewords.shape[1]
        out = []
        for mu, lo in enumerate(self.pruned_ends[:-1].tolist()):
            gamma = word_counts(self.codewords[mu], p, n)
            own = {w: self.factors[w] for w in gamma if w in self.factors}
            ends = np.cumsum([lo] + [x.shape[1] for x in own.values()]).tolist()
            b = self.bin_ends[mu * bins:(mu + 1) * bins + 1].tolist()
            c = self.cut_ends[mu:mu + 2].tolist()
            out.append(SideData(self.codewords[mu], gamma, own, self.typical,
                                self.cuts[:, c[0]:c[1]],
                                {w: self.pruned[:, a:e] for w, a, e in zip(own, ends, ends[1:])},
                                [self.bins[:, a:e] for a, e in zip(b, b[1:])],
                                float(self.defects[mu])))
        return out


def _bin_indices(g: np.ndarray, h: np.ndarray, p: int) -> np.ndarray:
    """``codeword_indices`` of a stack of codes bin by bin: (b, i, a) holds a G_b + h_b(i)."""
    return codeword_indices(g, h, p).reshape(h.shape[0], -1, h.shape[1]).transpose(0, 2, 1)


def _decode(codewords: np.ndarray, accept: np.ndarray) -> tuple:
    """(decoded, collisions) of a stack of codes' codeword indices, shape (B, bins, p**k).

    A bin decodes to its single codeword that ``accept`` (a mask over word
    indices) holds, as its index, else to -1, which stands for w0.  A bin
    with two or more accepted codewords (a repeated codeword counting twice)
    is a collision.  No array larger than a bool mask of ``codewords`` is
    formed, and ``decoded`` is int32, which holds every index below SEQUENCE_CAP.
    """
    ok = accept[codewords]
    count = ok.sum(axis=-1, dtype=np.int32)
    decoded = np.max(codewords, axis=-1, where=ok, initial=-1,
                     out=np.empty(ok.shape[:-1], dtype=np.int32))
    decoded[count != 1] = -1
    return decoded, int((count >= 2).sum())


@dataclass(eq=False)
class _SideBasis:
    """The seed-independent half of one side (see ``Side``); every array is read-only.

    ``per_type`` maps a type class, its sorted word as a base-p index, to its
    X (see ``_build_side``), built when a code first holds a word of the class.
    """

    rho: DensityOperator
    ens: CanonicalEnsemble
    tset: TypicalSet
    typical: np.ndarray         # U
    inv: np.ndarray             # Q = U diag(inv) U^dagger
    spectra: list               # _Spectrum per post-state
    norm: float                 # p**n / ((1 + eta) p**(k+l))
    per_type: dict

    def type_factors(self, reps: np.ndarray) -> list:
        """The X of each type class in ``reps``."""
        n, p, d = self.tset.n, self.ens.num_letters, self.rho.dim
        new = [r for r in reps.tolist() if r not in self.per_type]
        if new:
            u_inv, u_adj, idx = self.typical * self.inv, self.typical.conj().T, all_vectors(n, d)
            for r, rep in zip(new, _digits(new, p, n).tolist()):
                cols, eig = _cond_typical_columns(self.spectra, rep, self.tset.delta, idx)
                x = cols * np.sqrt(np.clip(eig, 0.0, None) * (self.norm * self.ens.weight_of(rep)))
                self.per_type[r] = _read_only(u_inv @ (u_adj @ x))
        return [self.per_type[r] for r in reps.tolist()]


@dataclass(eq=False)
class _Basis:
    """The seed-independent half of an instance (see ``Instance``)."""

    sides: tuple                # _SideBasis per party
    tset_w: TypicalSet
    w0: tuple | None

    @property
    def nbytes(self) -> int:
        """The bytes of its large arrays and of its typical sets' masks."""
        tsets = {id(t): t for t in (self.tset_w, *(s.tset for s in self.sides))}.values()
        arrays = [a for s in self.sides for a in (s.typical, s.inv, *s.per_type.values())]
        return sum(a.nbytes for a in [t.mask for t in tsets] + arrays)


# The seed-independent half of ``simulate``, least recently used first: bases,
# targets, n-copy states and parsed problem files, keyed by content and kind.
BASIS_CACHE_BYTES = 2 ** 26     # cap on the bytes the memo keeps between builds
_BASES = collections.OrderedDict()


def _post_state_spectra(ens: CanonicalEnsemble) -> list:
    """``_spectrum`` of each post-state; the letters of weight 0 share the one of the null operator.

    Padding to F_p adds p minus the outcome count such letters, so one
    spectrum for them all keeps the cost of a large field to one ``eigh``.
    """
    weights = ens.weights.tolist()
    null = _spectrum(ens.post_states[weights.index(0.0)]) if 0.0 in weights else None
    return [null if w == 0.0 else _spectrum(x) for w, x in zip(weights, ens.post_states)]


def _basis(params: ProtocolParams, povms, rho: DensityOperator) -> _Basis:
    """The seed-independent half of ``_build``, memoised in ``_BASES`` by content.

    The key holds the POVM elements, ``rho`` and its registers, n, k, p, each
    side's l, eta and delta, but neither the seed nor N, so every code draw of
    a seed sweep shares one basis.
    """
    key = ("basis", array_key([a for m in povms for a in m.elements] + [rho.mat]),
           tuple(map(len, povms)), rho.register_dims, params.n, params.k, params.p,
           tuple(l for l, _ in params.sides), params.eta, params.delta)
    return memoised(_BASES, BASIS_CACHE_BYTES, key, lambda: _new_basis(params, povms, rho))


def _new_basis(params: ProtocolParams, povms, rho: DensityOperator) -> _Basis:
    n, p, count = params.n, params.p, len(params.sides)
    if len(povms) != count:
        raise ValueError(f"{len(povms)} POVM(s) for {count} side(s) of code sizes")
    _check_dim(rho.dim, n)
    sides = []
    for s, (m, (l, _)) in enumerate(zip(povms, params.sides)):
        state = partial_trace(rho, [t for t in range(count) if t != s])
        ens = pad_ensemble(canonical_ensemble(m, state), p)
        u, inv = map(_read_only, _typical_factor(state.mat, n, params.delta))
        sides.append(_SideBasis(state, ens, typical_set(ens.weights, n, params.delta), u, inv,
                                _post_state_spectra(ens),
                                p ** n / ((1.0 + params.eta) * (p ** params.k * p ** l)), {}))
    tset_w = sides[0].tset if count == 1 else typical_set(
        [float(np.trace(el @ rho.mat).real) for el in _sum_povm(povms, p).elements],
        n, p * params.delta)
    first = int(np.argmin(tset_w.mask))     # w0, the first word by index outside tset_w
    w0 = None if tset_w.mask[first] else tuple(_digits(first, p, n).tolist())
    return _Basis(tuple(sides), tset_w, w0)


def _build_side(base: _SideBasis, codewords: np.ndarray) -> Side:
    """The pruned operators of one side's codes over its basis (see ``Side``).

    ``codewords`` is ``_bin_indices`` of the codes.  X_w is built only for
    typical words that occur in some code: Abar_w = X_w X_w^dagger with
    X_w = Q B_w[:, keep] sqrt(eig c_w), where
    Q = (rho^{-1/2})^{(x) n} Pi_rho = U diag(inv) U^dagger is applied through
    U, B_w is the eigenbasis of rho_hat_{w^n}, keep its conditional typical
    columns and c_w = lambda_{w^n} p^n / ((1 + eta) p^(k+l)).  As Pi_rho and
    Q are invariant under register permutations, X_w is built once per type
    class, in the basis, and each word gathers its rows from it.  Codes with
    as many columns are pruned together, and so are bins.
    """
    n, d, p, (num, bins) = base.tset.n, base.rho.dim, base.ens.num_letters, codewords.shape[:2]
    # Codeword (mu, i, a) as the key mu p**n + word: the distinct keys ascend code by code.
    indices = codewords + p ** n * np.arange(num)[:, None, None]
    keys, gamma = np.unique(indices, return_counts=True)
    # The built words, ascending: the typical words of some code.
    word = keys % p ** n
    ids = np.unique(word)
    ids = ids[base.tset.mask[ids]]
    words = _digits(ids, p, n)
    orders = np.argsort(words, axis=1, kind="stable")
    sorted_words = np.take_along_axis(words, orders, axis=1) @ p ** np.arange(n - 1, -1, -1)
    reps = np.unique(sorted_words)
    type_of = np.searchsorted(reps, sorted_words)
    per_type = base.type_factors(reps)
    type_ends = np.cumsum([0] + [x.shape[1] for x in per_type])
    lo, widths = type_ends[type_of], np.diff(type_ends)[type_of]
    # One gather: register j of a word's sorted type holds its letter at position
    # orders[j], so row r of X_w is the type's row with r's digit j moved to place
    # argsort(orders)[j] (found by an exact float product, for BLAS).
    back = np.repeat(np.argsort(orders, axis=1), widths, axis=0)     # per column of the X_w
    built = _hstack(per_type, d ** n)[
        (all_vectors(n, d) @ np.power(float(d), n - 1 - back).T).astype(np.int64),
        _ranges(lo, lo + widths)]
    ends = np.cumsum(np.append(0, widths))
    factors = {w: built[:, a:b] for w, a, b in zip(map(tuple, words.tolist()), ends[:-1].tolist(),
                                                   ends[1:].tolist())}
    # Each key's X_w side by side, none for a word not built (slot -1 reads a width of 0).
    slot = np.where(base.tset.mask[word], np.searchsorted(ids, word), -1)
    width, start = np.append(widths, 0)[slot], ends[slot]
    pruned = np.take(built, _ranges(start, start + width), axis=1)    # X, pruned below
    scale, col_ends = np.repeat(np.sqrt(gamma), width), np.cumsum(np.append(0, width))
    pruned_ends = col_ends[np.searchsorted(keys, p ** n * np.arange(num + 1))]
    cuts, cut = np.zeros_like(pruned), np.zeros(num, dtype=np.int64)
    for at, block, x in _column_blocks(pruned, pruned_ends):
        cut[at], v_cut, f = _cut_directions(x * scale[block][:, None, :], x)
        pruned[:, block], cuts[:, block] = f.transpose(1, 0, 2), v_cut.transpose(1, 0, 2)
    # Each code keeps only its V_cut, the first cut[mu] columns of its block.
    cuts = np.take(cuts, _ranges(pruned_ends[:-1], pruned_ends[:-1] + cut), axis=1)
    # Bin i puts the F_w columns of its codewords' keys side by side.
    hit = np.searchsorted(keys, indices)
    g_bins = np.take(pruned, _ranges(col_ends[hit].ravel(), col_ends[hit + 1].ravel()), axis=1)
    bin_ends = np.cumsum(np.append(0, width[hit].sum(axis=2)))
    # A zero (or column-free) G needs no SVD.
    defects = np.zeros(num)
    for at, _, g_mu in _column_blocks(*_live_columns(g_bins, bin_ends[::bins])):
        top = np.linalg.svd(g_mu, compute_uv=False)[:, 0]
        defects[at] = [max(0.0, t ** 2 - 1.0) for t in top.tolist()]
    return Side(base.rho, base.ens, base.tset, base.typical, factors, codewords, pruned,
                pruned_ends, cuts, np.cumsum(np.append(0, cut)), g_bins, bin_ends, defects)


# ---------------------------------------------------------------------------
# The protocol instance: one or more sides and the joint decoder.

@dataclass(eq=False)
class Instance:
    """The protocol over a tuple of sides sharing one generator matrix G, with its decoder.

    Point-to-point is the case of one side, distributed the case of two.  A
    tuple of bins, one of one code per side, holds the words
    a G + h_1(i_1) + h_2(i_2) + ...: a bin of the sum code, whose shift is
    the sum of the sides' shifts.  It decodes to its single word in
    ``tset_w``, else to w0, and two or more such words are a collision.
    ``decoded`` has one mu axis and then one bin axis per side: the base-p
    index of the word of bins (i_1, ...) under (mu_1, ...), -1 for w0.
    """

    params: ProtocolParams
    sides: tuple                # Side per party
    tset_w: TypicalSet          # the accepted words: those of W = U + V (+ ...), p2p the side's own
    w0: tuple | None            # lexicographically smallest word outside tset_w, or None
    decoded: np.ndarray         # (N_1, ..., bins_1, ...)
    sub_povm_defect: float      # max over every side's mus of lambda_max(sum_i Gamma_i - I)
    decoder_collisions: int

    # Read by the benchmark's span tracer, perfbench/spans.py.
    @property
    def mus(self) -> list:
        return self.sides[0].mus

    @property
    def abar(self) -> Mapping:      # word tuple -> unpruned Abar_w of side A
        return _Grams(self.sides[0].factors)

    @property
    def side_a(self) -> list:
        return self.sides[0].mus

    @property
    def side_b(self) -> list:
        return self.sides[1].mus


def _build(params: ProtocolParams, povms, rho: DensityOperator) -> Instance:
    """The ``Instance`` of the joint state ``rho``, with one side per POVM and (l, N) pair.

    With more than one side, side s measures register s of ``rho``; one side
    measures all of it.  The basis comes from ``_basis``; then G is drawn and
    each side's shift tables, side after side, so side 0's codes are those of
    ``sample_ensemble``; a side keeps only its codes' codewords.  ``tset_w``
    is the one side's own typical set, or else the typical set of the law of
    W, the sum of the sides' letters, at delta_hat = p * delta.
    """
    n, p, k = params.n, params.p, params.k
    count = len(params.sides)
    basis = _basis(params, povms, rho)
    rng = np.random.default_rng(params.seed)
    g = rng.integers(0, p, size=(k, n))
    # One draw of a side's N tables takes the stream that one draw per table would;
    # the shifts are held in the narrow type ``codeword_indices`` reads.
    shifts = [rng.integers(0, p, size=(num, p ** l, n)).astype(digit_dtype(p))
              for l, num in params.sides]
    codewords = [_bin_indices(np.broadcast_to(g, (len(h),) + g.shape), h, p) for h in shifts]
    classes = sum(len(b.per_type) for b in basis.sides)
    sides = tuple(_build_side(b, c) for b, c in zip(basis.sides, codewords))
    if sum(len(b.per_type) for b in basis.sides) > classes:
        trim(_BASES, BASIS_CACHE_BYTES)     # the basis has grown type classes
    sums = codewords[0]             # one side's codes are its sum codes
    if count > 1:
        # The sum codes' shifts, axes (N_1, ..., bins_1, ..., n), added side by side.
        total = np.zeros(n, dtype=digit_dtype(p))
        for s, h in enumerate(shifts):
            shape = [1] * 2 * count + [n]
            shape[s], shape[count + s] = h.shape[:2]
            total = total + h.reshape(shape)
            total %= p
        num_codes = math.prod(total.shape[:count])
        sums = _bin_indices(np.broadcast_to(g, (num_codes, k, n)), total.reshape(num_codes, -1, n),
                            p).reshape(total.shape[:-1] + (-1,))
    decoded, collisions = _decode(sums, basis.tset_w.mask)
    return Instance(params, sides, basis.tset_w, basis.w0, decoded,
                    float(max(side.defects.max() for side in sides)), collisions)


def build_instance(params: ProtocolParams, m: Povm, rho: DensityOperator) -> Instance:
    """Construct the point-to-point structured sub-POVMs for every mu: the one-side protocol."""
    return _build(params, [m], rho)


def build_distributed_instance(params: ProtocolParams, m_a: Povm, m_b: Povm,
                               rho_ab: DensityOperator) -> Instance:
    """Two pruned sub-POVM families sharing one generator matrix, plus the joint decoder."""
    return _build(params, [m_a, m_b], rho_ab)


def _sum_povm(povms, p: int) -> Povm:
    """The measurement of W, the sum of the POVMs' letters over F_p, on their joint space."""
    counts = tuple(len(m) for m in povms)
    return compose(povms, StochasticMap(counts, p, np.eye(p)[np.indices(counts).sum(axis=0) % p]))


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


def _live_columns(g: np.ndarray, ends: np.ndarray) -> tuple:
    """(G, ends) of the bins g[:, ends[i]:ends[i + 1]], each left with no column when it is 0."""
    if not g.any():
        return g[:, :0], np.zeros_like(ends)
    nonzero = np.concatenate([[0], np.cumsum(g.any(axis=0))])
    live = nonzero[ends[1:]] > nonzero[ends[:-1]]
    widths = np.where(live, np.diff(ends), 0)
    return (np.take(g, _ranges(ends[:-1][live], ends[1:][live]), axis=1),
            np.concatenate([[0], np.cumsum(widths)]))


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """arange(lo[k], hi[k]) for every k, one after the other."""
    widths = hi - lo
    return np.repeat(lo - np.cumsum(widths) + widths, widths) + np.arange(widths.sum())


class FactoredCandidate:
    """The overall sub-POVM C_z = sum_word P^n_{Z|W}(z | word) C_word of the protocol.

    ``decoded`` has one mu axis and then one bin axis per side: the base-p
    index of the word that bins (i_1, i_2, ...) decode to under
    (mu_1, mu_2, ...), all weighted alike, or -1 for w0.  ``bins`` holds, per
    side, a pair (G, ends): the bin factors of every mu side by side, bin i of
    mu the columns ends[mu b + i]:ends[mu b + i + 1] for b bins per mu.  A
    side's outcomes, its completion and its bins, add up to I and every
    tuple with a completion decodes to w0, so C_w0 = I - sum over the
    other words of C_word, and a word other than w0 keeps only its bin tuples:
    C_word = F diag(c) F^dagger on (H_1 (x) H_2 (x) ...)^{(x) n}, with
    F = G_1 (x) G_2 (x) ..., G_s side s's nonzero bin factors side by side,
    and c = 1 / (N_1 N_2 ...) on the Kronecker columns of the word's bin
    tuples, 0 elsewhere.  A word other than w0 with no nonzero bin tuple is
    not stored.

    ``outputs`` holds the z of positive probability under a stored word, as
    ascending base-|Z| indices (|Z| = ``output_size``), and probs[:, i] the
    P^n_{Z|W}(outputs[i] | word) of every stored word, w0 first.
    ``word_sandwiches`` gives every W^dagger C_word W without forming C_word.
    Dense operators, like W, are in the interleaved (H_1 H_2 ...)^n ordering,
    ``dims`` giving each side's register.
    """

    def __init__(self, decoded: np.ndarray, w0, bins, p_ext: StochasticMap, n: int, dims: tuple):
        self.n, self.dims = n, tuple(dims)
        count = len(self.dims)
        live = [_live_columns(g, ends) for g, ends in bins]
        self.adjs = [np.ascontiguousarray(g.conj().T) for g, _ in live]
        self.weight = 1.0 / math.prod(decoded.shape[:count])
        # Each tuple of nonzero bins decoding to a word other than w0, as (word,
        # bin of each side), word by word; a side's bins are numbered on across its
        # mus, and its live bins are masked on its (mu, bin) axes before np.nonzero.
        keep, num_bins = decoded >= 0, decoded.shape[count:]
        for s, (_, ends) in enumerate(live):
            shape = [size if a in (s, count + s) else 1 for a, size in enumerate(decoded.shape)]
            keep &= (np.diff(ends) > 0).reshape(shape)
        index = np.nonzero(keep)
        rows = np.stack([decoded[index]] + [index[s] * num_bins[s] + index[count + s]
                                            for s in range(count)])
        ids, *picks = rows[:, np.lexsort(rows[::-1])]
        # The Kronecker columns of the tuples, tuple after tuple, folded side by
        # side: each column so far is followed by the tuple's columns of the next side.
        owner, cols = np.arange(ids.size), np.zeros(ids.size, dtype=np.int64)
        for (g, ends), x in zip(live, picks):
            lo, hi = ends[x][owner], ends[x + 1][owner]
            cols = np.repeat(cols, hi - lo) * g.shape[1] + _ranges(lo, hi)
            owner = np.repeat(owner, hi - lo)
        self.cols = cols
        stored, sizes = np.unique(ids[owner], return_counts=True)
        self.words = [w0] + list(map(tuple, _digits(stored, p_ext.input_sizes[0], n).tolist()))
        self.bounds = np.cumsum([0] + sizes.tolist(), dtype=np.int64)
        zs = _output_grid(p_ext, n)
        probs = np.array([_output_probs(w, p_ext, zs) for w in self.words]).reshape(-1, len(zs))
        keys = probs.sum(axis=0) > 0.0
        self.probs = probs[:, keys]                     # (word, output) -> P^n(z | word)
        self.outputs, self.output_size = np.flatnonzero(keys), p_ext.output_size
        self.dim = math.prod(g.shape[0] for g, _ in live)

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

    def word_sandwiches(self, gram: np.ndarray, w) -> np.ndarray:
        """W^dagger C_word W of every stored word, w0 first, stacked, given W^dagger W.

        ``w()`` gives the dense W; it is called only when a word other than
        w0 is stored, as only then does F^dagger W enter.
        """
        q = self._projections(w()) if self.cols.size else None
        others = [self.weight * (q[a:b].conj().T @ q[a:b])
                  for a, b in zip(self.bounds[:-1].tolist(), self.bounds[1:].tolist())]
        return np.array([gram - sum(others)] + others)


def assemble_overall(instance: Instance, p_zw: StochasticMap) -> FactoredCandidate:
    """The overall sub-POVM {Lambda_hat_{z^n}} of the protocol, in factored form.

    It acts on (H_1 (x) H_2 (x) ...)^{(x) n}, one register per side, and is
    complete by construction.
    """
    return FactoredCandidate(instance.decoded, instance.w0,
                             [(side.bins, side.bin_ends) for side in instance.sides],
                             extend_map_to_field(p_zw, instance.params.p), instance.params.n,
                             [side.rho.dim for side in instance.sides])


assemble_overall_distributed = assemble_overall


class ProductTarget:
    """The target T_z = T_{z_1} (x) ... (x) T_{z_n}, z in Z^n, kept as its single-copy factors.

    No T_z is formed: ``traces`` gives every Tr{T_z rho^{(x) n}}, and
    ``TensorPower.sandwiches`` every W^dagger T_z W, from the singles.  What
    K reads of the target on a state, ``traces`` and ``diagonals``, is formed
    on first use and kept for the last state, matched by its content
    (``TensorPower.key``).  Every array is read-only.
    """

    def __init__(self, singles, n: int):
        self.singles = tuple(_read_only(_real_if_exact(np.array(s, dtype=complex)))
                             for s in singles)
        self.n = n
        self._on = (None, None, None)       # (state key, traces, diagonals) of the last state

    def _against(self, state: TensorPower) -> tuple:
        if self._on[0] != state.key:
            stack = np.stack(self.singles)
            per_copy = np.einsum("zij,ji->z", stack, state.single)
            diagonals = state.diagonals(stack)
            self._on = (state.key, _read_only(functools.reduce(np.multiply.outer,
                                                               [per_copy] * self.n)),
                        None if diagonals is None else _read_only(diagonals))
        return self._on

    def traces(self, state: TensorPower) -> np.ndarray:
        """Tr{T_z rho^{(x) n}} for every z, as an array indexed by the tuple z.

        ``state`` holds as many copies as the target has registers; each
        trace is the product of the single-copy traces.
        """
        return self._against(state)[1]

    def diagonals(self, state: TensorPower) -> np.ndarray | None:
        """``state.diagonals`` of the singles: the real diagonals of their blocks, or None."""
        return self._against(state)[2]

    @property
    def nbytes(self) -> int:
        return nbytes(self.singles, self._on[1:])


def _product_target(m: Povm, p_zw: StochasticMap, n: int) -> ProductTarget:
    (nw,) = p_zw.input_sizes
    if nw < len(m):
        raise ValueError("P_{Z|W} must cover every POVM outcome")
    return ProductTarget(compose((m,), p_zw).elements, n)


def target_overall(m: Povm, p_zw: StochasticMap, n: int) -> ProductTarget:
    """(M composed with P_{Z|W})^{(x) n}: the measurement being simulated.

    Memoised in ``_BASES`` by the content of M's elements and P_{Z|W}, and n.
    """
    key = ("target", array_key(m.elements), array_key([p_zw.probs]), n)
    return memoised(_BASES, BASIS_CACHE_BYTES, key, lambda: _product_target(m, p_zw, n))


def target_overall_distributed(m_a: Povm, m_b: Povm, p_zw: StochasticMap,
                               p: int, n: int) -> ProductTarget:
    """(M_AB composed with P_{Z|W})^{(x) n} in the interleaved (AB)^n ordering.

    Memoised in ``_BASES`` by the content of both POVMs' elements and
    P_{Z|W}, p and n.
    """
    key = ("distributed target", array_key(m_a.elements), array_key(m_b.elements),
           array_key([p_zw.probs]), p, n)
    return memoised(_BASES, BASIS_CACHE_BYTES, key, lambda: _product_target(
        _sum_povm((m_a, m_b), p), extend_map_to_field(p_zw, p), n))


class TensorPower:
    """The n-copy state rho^{(x) n} = W W^dagger on its numerical support, kept as single-copy data.

    One eigendecomposition rho = V Lambda V^dagger of the single copy, taken
    when the state is built: the columns of W are the tensor products of the
    columns of V sqrt(Lambda) at the index tuples ``idx`` (lexicographic
    order) whose eigenvalue product lambda clears the eigensolver's rounding
    floor dim * eps * lambda_max (dim = d**n).  ``w`` forms the dense d**n x r
    factor; ``sandwiches`` never does.  ``key`` is the state's content: the
    single copy's bytes, dtype and shape, and n.  Every array is read-only.
    """

    def __init__(self, single, n: int):
        mat = single.mat if isinstance(single, DensityOperator) else single
        self.single = _read_only(hermitian_part(mat))
        self.n = n
        self.key = (array_key([self.single]), n)
        vals, vecs = np.linalg.eigh(_real_if_exact(self.single))
        self.vecs = _read_only(vecs)
        idx = all_vectors(n, vals.size)
        lam = np.prod(vals[idx], axis=1)
        keep = lam > lam.size * np.finfo(float).eps * max(float(lam.max()), 0.0)
        self.idx, self.total = _read_only(idx[keep]), float(lam[keep].sum())
        self.rank = self.idx.shape[0]
        self.roots = _read_only(np.sqrt(np.clip(vals, 0.0, None)))

    @property
    def nbytes(self) -> int:
        return nbytes(vars(self))

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
            levels.append(None if codes.size == grid.size
                          else _read_only(np.flatnonzero(kept[grid])))
            prev = codes
        return levels

    @property
    def w(self) -> np.ndarray:
        """The dense factor W, formed on every access: a shared state does not keep it."""
        return _kron_columns([self.vecs * self.roots] * self.n, self.idx)

    @functools.cached_property
    def gram_diagonal(self) -> np.ndarray | None:
        """lam, the diagonal of W^dagger W, or None when a block of I is not diagonal.

        See ``diagonals``.
        """
        eye = self.diagonals(np.eye(self.vecs.shape[0])[None])
        if eye is None:
            return None
        return _read_only(self.diagonal_sandwiches(eye, np.zeros((1, self.n), dtype=np.int64))[0])

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


def tensor_power(rho: DensityOperator, n: int) -> TensorPower:
    """``TensorPower(rho, n)``, memoised in ``_BASES`` by the content of ``rho.mat`` and n."""
    return memoised(_BASES, BASIS_CACHE_BYTES, ("state", array_key([rho.mat]), n),
                    lambda: TensorPower(rho, n))


SPECTRUM_BLOCK = 2 ** 16    # entries of one stacked (keys, r, r) batch of trace norms


def _trace_norms(d: np.ndarray) -> np.ndarray:
    """||D_k||_1 of every Hermitian D_k in a stack, read from one triangle; real when D is."""
    return np.abs(np.linalg.eigvalsh(_real_if_exact(d))).sum(axis=-1)


def _dense_terms(target: ProductTarget, state: TensorPower,
                 candidate: FactoredCandidate) -> list:
    """(sum Tr{W^dagger C_z W}, sum ||W^dagger (T_z - C_z) W||_1) per chunk of outputs.

    The r x r operators are formed, W^dagger T_z W from single-copy blocks and
    W^dagger C_z W by spreading the word sandwiches over z, and their trace
    norms taken as one stacked eigvalsh per chunk of at most SPECTRUM_BLOCK entries.
    """
    singles = np.stack(target.singles)
    zs = _digits(candidate.outputs, candidate.output_size, state.n)
    s_words = candidate.word_sandwiches(state.gram(), lambda: state.w)
    step = max(1, SPECTRUM_BLOCK // state.rank ** 2)
    terms = []
    for lo in range(0, zs.shape[0], step):
        c = np.tensordot(candidate.probs[:, lo:lo + step].T, s_words, axes=1)
        mass = float(np.trace(c, axis1=1, axis2=2).real.sum())
        gap = state.sandwiches(singles, zs[lo:lo + step])
        gap = gap.astype(np.result_type(gap, c), copy=False)    # real only when both are
        gap -= c
        del c                   # freed before the solver takes its workspace
        terms.append((mass, float(_trace_norms(gap).sum())))
    return terms


def _diagonal_terms(target: ProductTarget, state: TensorPower,
                    candidate: FactoredCandidate) -> list | None:
    """The terms of ``_dense_terms`` from r-vectors when every gap is diagonal, else None.

    That is the case of a candidate that stores w0 only, so C_z = c_z I, and
    single-copy blocks of every T_z and of I that are diagonal (see
    ``TensorPower.diagonals``).  Then W^dagger (T_z - C_z) W = diag(t_z - c_z lam),
    with t_z and lam the diagonals of W^dagger T_z W and W^dagger W, so its
    trace norm is sum |t_z - c_z lam| and Tr{W^dagger C_z W} = c_z sum(lam).
    The diagonals and lam are those the target and the state keep.
    """
    if len(candidate.words) > 1:
        return None
    singles, lam = target.diagonals(state), state.gram_diagonal
    if singles is None or lam is None:
        return None
    zs = _digits(candidate.outputs, candidate.output_size, state.n)
    step = max(1, SPECTRUM_BLOCK // state.rank)
    terms = []
    for lo in range(0, zs.shape[0], step):
        c = candidate.probs[0, lo:lo + step]
        gap = state.diagonal_sandwiches(singles, zs[lo:lo + step]) - c[:, None] * lam
        terms.append((float((c * lam.sum()).sum()), float(np.abs(gap).sum())))
    return terms


def _absent_mass(target: ProductTarget, state: TensorPower, outputs: np.ndarray) -> float:
    """sum Tr{T_z rho} over the outputs z of the target that are not ``outputs``."""
    traces = target.traces(state)
    absent = np.ones(traces.shape, dtype=bool)
    absent.reshape(-1)[outputs] = False
    return float(traces[absent].real.sum())


def faithfulness(state: TensorPower, target: ProductTarget, candidate: FactoredCandidate) -> float:
    """The faithfulness figure K of the protocol's candidate sub-POVM against its target.

    K = sum_z ||sqrt(rho)(T_z - C_z)sqrt(rho)||_1 + Tr{(I - sum_z C_z) rho},
    evaluated on the n-copy state rho = W W^dagger of ``state`` through its
    support (see ``TensorPower``): each trace norm is that of the r x r
    operator W^dagger (T_z - C_z) W (r = rank rho; exact, as
    sqrt(rho) = V_+ W^dagger and V_+ is an isometry), and the completion term
    is sum lambda_+ - sum_z Tr{W^dagger C_z W}.  The target and the candidate
    act on as many registers as ``state`` has copies, and neither is expanded
    into dense T_z or C_z.  When every W^dagger (T_z - C_z) W is diagonal (a
    constant candidate on a commuting target, see ``_diagonal_terms``) K comes
    from r-vectors with no solver; otherwise the trace norms are taken as one
    stacked eigvalsh per chunk of at most SPECTRUM_BLOCK entries.  A z that is
    not among the candidate's ``outputs`` contributes Tr{T_z rho}, which is
    its trace norm because T_z >= 0.
    """
    if not (isinstance(state, TensorPower) and isinstance(target, ProductTarget)
            and isinstance(candidate, FactoredCandidate)
            and target.n == candidate.n == state.n
            and len(target.singles) == candidate.output_size):
        raise ValueError("faithfulness takes a TensorPower, and a ProductTarget and a "
                         "FactoredCandidate on its copies and one output alphabet")
    first = target._on[0] != state.key      # the target's side of K is formed for this state
    terms = _diagonal_terms(target, state, candidate)
    if terms is None:
        terms = _dense_terms(target, state, candidate)
    k = state.total
    for mass, norms in terms:
        k -= mass
        k += norms
    k += _absent_mass(target, state, candidate.outputs)
    if first:
        trim(_BASES, BASIS_CACHE_BYTES)     # what the memo shares may have grown
    return k
