"""Prime-field arithmetic and Unionized Coset Codes.

A UCC with parameters (n, k, l, p) is the union over m in F_p^l of the cosets
a G + h(m).  The shift map h is stored as an explicit table of p^l vectors so
ensembles serialize and re-run bit-exactly.  Field arithmetic is 64-bit
integers with mod-p reduction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

ENUMERATION_CAP = 2 ** 20        # cap on p**n for exhaustive sequence enumeration
EXHAUSTIVE_ENSEMBLE_CAP = 2 ** 24  # cap on the number of (G, h) ensembles enumerated
ENSEMBLE_BLOCK = 2048             # (G, h) ensembles per stacked pass of the exhaustive checks


def _over_cap(p: int, e: int, cap: int) -> bool:
    """p**e > cap for a prime p, without forming p**e once e reaches the cap's bit length.

    p >= 2, so p**e > cap whenever e >= cap.bit_length().
    """
    return e >= cap.bit_length() or p ** e > cap


def _require_table(p: int, e: int, what: str) -> None:
    """Refuse a table of p**e counters above ENUMERATION_CAP before it is allocated."""
    if _over_cap(p, e, ENUMERATION_CAP):
        raise ValueError(f"the {what} table needs {p}**{e} counters, above the cap "
                         f"{ENUMERATION_CAP}")


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, int(p ** 0.5) + 1):
        if p % q == 0:
            return False
    return True


def require_prime(p: int) -> int:
    if not is_prime(int(p)):
        raise ValueError(f"{p} is not prime")
    return int(p)


def vec_to_int(v, p: int) -> int:
    out = 0
    for x in v:
        out = out * p + int(x)
    return out


@functools.lru_cache(maxsize=16)
def all_vectors(length: int, p: int) -> np.ndarray:
    """All p**length vectors over F_p in lexicographic order, shape (p**length, length).

    Cached and read-only: callers index into the table but never write it.
    """
    if length == 0:
        out = np.zeros((1, 0), dtype=np.int64)
    else:
        grids = np.meshgrid(*([np.arange(p)] * length), indexing="ij")
        out = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
    out.setflags(write=False)
    return out


def coset_code(G, B, p: int) -> np.ndarray:
    """All p**k codewords a G + B, ordered by the lexicographic sweep of a."""
    require_prime(p)
    G = np.asarray(G, dtype=np.int64) % p
    B = np.asarray(B, dtype=np.int64) % p
    k, n = G.shape
    if B.shape != (n,):
        raise ValueError(f"shift length {B.shape} != ({n},)")
    a = all_vectors(k, p)
    return (a @ G + B) % p


@dataclass(frozen=True, eq=False)
class UccCode:
    """An (n, k, l, p) unionized coset code: generator G plus shift table h."""

    p: int
    n: int
    k: int
    l: int
    G: np.ndarray       # (k, n) over F_p
    h: np.ndarray       # (p**l, n) over F_p; row m is h(m)

    def __post_init__(self):
        require_prime(self.p)
        G = np.asarray(self.G, dtype=np.int64) % self.p
        h = np.asarray(self.h, dtype=np.int64) % self.p
        if G.shape != (self.k, self.n):
            raise ValueError(f"G shape {G.shape} != ({self.k}, {self.n})")
        if h.shape != (self.p ** self.l, self.n):
            raise ValueError(f"h shape {h.shape} != ({self.p ** self.l}, {self.n})")
        G.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)

    @property
    def num_bins(self) -> int:
        return self.p ** self.l

    @property
    def num_words(self) -> int:
        return self.p ** (self.k + self.l)


def ucc_codeword(code: UccCode, a, i) -> np.ndarray:
    """W(a, i) = a G + h(i).  ``a`` is a length-k vector, ``i`` a vector or flat index."""
    a = np.asarray(a, dtype=np.int64)
    if a.shape != (code.k,):
        raise ValueError(f"a has shape {a.shape}, expected ({code.k},)")
    if np.any(a < 0) or np.any(a >= code.p):
        raise ValueError("a outside F_p")
    if np.isscalar(i) or isinstance(i, (int, np.integer)):
        idx = int(i)
    else:
        iv = np.asarray(i, dtype=np.int64)
        if iv.shape != (code.l,):
            raise ValueError(f"i has shape {iv.shape}, expected ({code.l},)")
        idx = vec_to_int(iv, code.p)
    if not 0 <= idx < code.num_bins:
        raise ValueError(f"coset index {idx} out of range")
    return (a @ code.G + code.h[idx]) % code.p


def all_codewords(code: UccCode) -> np.ndarray:
    """All p**(k+l) codewords, row (a, i) in lexicographic (a-major) order."""
    a = all_vectors(code.k, code.p)
    base = (a @ code.G) % code.p                       # (p^k, n)
    out = (base[:, None, :] + code.h[None, :, :]) % code.p
    return out.reshape(code.num_words, code.n)


def multiplicity(code: UccCode, w) -> int:
    """gamma_w = |{(a, i): W(a, i) = w}|."""
    w = np.asarray(w, dtype=np.int64)
    if w.shape != (code.n,):
        raise ValueError(f"word length {w.shape} != ({code.n},)")
    return multiplicity_table(code).get(tuple((w % code.p).tolist()), 0)


def multiplicity_table(code: UccCode) -> dict:
    """Map word tuple -> multiplicity, with sum of values = p**(k+l)."""
    return word_counts(codeword_indices(code.G[None], code.h[None], code.p), code.p, code.n)


def bins(code: UccCode) -> dict:
    """Map coset index i -> the coset C(G, h(i)) as a (p**k, n) array."""
    return {i: coset_code(code.G, code.h[i], code.p) for i in range(code.num_bins)}


@dataclass(frozen=True)
class CodeEnsembleSpec:
    p: int
    n: int
    k: int
    l: int
    N: int
    seed: int = 0

    def __post_init__(self):
        require_prime(self.p)
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.n < 1 or self.k < 0 or self.l < 0:
            raise ValueError("a code needs n >= 1 and k, l >= 0")
        if _over_cap(self.p, self.n, ENUMERATION_CAP):
            raise ValueError(f"p**n = {self.p}**{self.n} exceeds the desk-scale cap")
        if _over_cap(self.p, self.k + self.l, ENUMERATION_CAP):
            raise ValueError(f"p**(k+l) = {self.p}**{self.k + self.l} codewords exceed the "
                             f"desk-scale cap {ENUMERATION_CAP}")


def sample_ensemble(spec: CodeEnsembleSpec) -> list[UccCode]:
    """N UCCs sharing one uniform G, with independently uniform shift tables."""
    rng = np.random.default_rng(spec.seed)
    G = rng.integers(0, spec.p, size=(spec.k, spec.n))
    return [
        UccCode(spec.p, spec.n, spec.k, spec.l, G,
                rng.integers(0, spec.p, size=(spec.p ** spec.l, spec.n)))
        for _ in range(spec.N)
    ]


@dataclass(frozen=True)
class PairwiseReport:
    p: int
    n: int
    k: int
    l: int
    num_ensembles: int
    worst_single_deviation: int   # max |count - expected| over codewords and values
    worst_pair_deviation: int     # same over ordered index pairs and value pairs
    exact: bool


def digit_dtype(p: int) -> np.dtype:
    """The integer type of a sum of two digits of F_p: int16 while 2p - 2 fits, else int32."""
    return np.dtype(np.int16 if 2 * p - 2 <= np.iinfo(np.int16).max else np.int32)


def codeword_indices(G, h, p: int) -> np.ndarray:
    """Flat codeword indices of a stack of UCCs, in ``all_codewords`` order.

    ``G`` is (B, k, n) and ``h`` is (B, p**l, n), entries in [0, p); row b of
    the result holds the p**(k+l) words a G_b + h_b(i), each as its base-p
    integer (most significant digit first), shape (B, p**(k+l)), int64.
    Digit j of a word is (a G_b)_j mod p plus h_b(i)_j, at most 2p - 2, so
    one conditional subtract in ``digit_dtype(p)`` reduces it; Horner's rule
    then builds the index one digit at a time.
    """
    size, k, n = np.shape(G)
    dtype = digit_dtype(p)
    base = ((all_vectors(k, p) @ np.asarray(G, dtype=np.int64)) % p).astype(dtype)
    h = np.asarray(h, dtype=dtype)
    p_d = dtype.type(p)
    flat = np.zeros((size, base.shape[1], h.shape[1]), dtype=np.int64)
    for j in range(n):
        digit = base[:, :, None, j] + h[:, None, :, j]               # (B, p^k, p^l)
        digit -= p_d * (digit >= p_d)
        flat *= p
        flat += digit
    return flat.reshape(size, -1)


def word_counts(indices, p: int, n: int) -> dict:
    """Map word tuple -> how often its base-p index (``codeword_indices``) occurs, ascending."""
    found, counts = np.unique(indices, return_counts=True)
    digits = np.stack(np.unravel_index(found, (p,) * n), axis=1)
    return dict(zip(map(tuple, digits.tolist()), counts.tolist()))


def _grand_ensemble(p: int, n: int, k: int, l: int):
    """Iterator over the grand ensemble's (G, h) stacks, ENSEMBLE_BLOCK at a time.

    Ensemble e is the base-p digit string of e split into the k rows of G and
    the p**l rows of h, so the blocks run through ``all_vectors`` order.  The
    parameters and the cap are checked before the iterator is returned.
    """
    require_prime(p)
    if n < 1 or k < 0 or l < 0:
        raise ValueError("the grand ensemble needs n >= 1 and k, l >= 0")
    digits = k * n + (p ** l) * n
    # The count itself is named, never written out in decimal.
    if _over_cap(p, digits, EXHAUSTIVE_ENSEMBLE_CAP):
        raise ValueError(
            f"exhaustive enumeration needs {p}**{digits} ensembles, above the cap "
            f"{EXHAUSTIVE_ENSEMBLE_CAP}")
    total = p ** digits
    place = p ** np.arange(digits - 1, -1, -1, dtype=np.int64)

    def block(start: int):
        idx = np.arange(start, min(start + ENSEMBLE_BLOCK, total), dtype=np.int64)
        vecs = (idx[:, None] // place) % p
        return vecs[:, :k * n].reshape(idx.size, k, n), vecs[:, k * n:].reshape(idx.size, p ** l, n)

    return map(block, range(0, total, ENSEMBLE_BLOCK))


def pairwise_independence_check(p: int, n: int, k: int, l: int) -> PairwiseReport:
    """Exhaustively verify single-codeword uniformity and pairwise joint uniformity.

    Enumerates every (G, h) of the grand ensemble and counts, for each codeword
    index (a, i), the distribution of W(a, i) over F_p^n, and for each ordered
    pair of distinct indices the joint distribution.  Reports worst integer
    deviations from the exactly uniform counts (0 when the facts hold).
    """
    blocks = _grand_ensemble(p, n, k, l)
    _require_table(p, 2 * (k + l + n), "pairwise")
    num_words = p ** (k + l)
    space = p ** n
    c1_idx, c2_idx = np.nonzero(~np.eye(num_words, dtype=bool))
    pair_base = (c1_idx * num_words + c2_idx) * space * space
    singles = np.zeros(num_words * space, dtype=np.int64)
    pairs = np.zeros(num_words * num_words * space * space, dtype=np.int64)
    total = 0
    for G, h in blocks:
        flat = codeword_indices(G, h, p)                              # (B, num_words)
        total += flat.shape[0]
        singles += np.bincount((np.arange(num_words) * space + flat).ravel(),
                               minlength=singles.size)
        pairs += np.bincount((pair_base + flat[:, c1_idx] * space + flat[:, c2_idx]).ravel(),
                             minlength=pairs.size)
    exp_single = total // space
    exp_pair = total // (space * space)
    dev_single = int(np.max(np.abs(singles - exp_single)))
    # Only off-diagonal (c1, c2) slots were filled; diagonal slots stay zero
    # and must be excluded from the comparison against exp_pair.
    pairs = pairs.reshape(num_words, num_words, space * space)
    mask = ~np.eye(num_words, dtype=bool)
    dev_pair = int(np.max(np.abs(pairs[mask] - exp_pair))) if num_words > 1 else 0
    return PairwiseReport(p, n, k, l, total, dev_single, dev_pair,
                          exact=(dev_single == 0 and dev_pair == 0))


@dataclass(frozen=True)
class DependenceWitness:
    p: int
    n: int
    k: int
    l: int
    triple: tuple            # three (a_int, i_int) codeword indices inside one coset
    relation_coeffs: tuple   # c with sum_j c_j W_j = 0 mod p on every ensemble
    relation_holds_always: bool
    max_joint_deviation: float  # deviation of the triple's joint counts from uniform
    fires: bool              # non-uniform triple => full independence fails


def three_way_dependence_report(p: int, n: int, k: int, l: int) -> DependenceWitness:
    """Exhibit a same-coset codeword triple that is NOT jointly uniform.

    W(a, i) is affine in a, so for p >= 3 the collinear triple
    W(0, i), W(1, i), W(2, i) obeys W(2,i) = 2 W(1,i) - W(0,i) identically:
    pairwise independence holds but three-way independence fails.  For p = 2
    any triple of distinct codewords is jointly uniform (the first genuine
    dependence involves four codewords), so no triple witness exists.
    """
    require_prime(p)
    if p < 3 or k < 1:
        raise ValueError("a three-codeword dependence witness needs p >= 3 and k >= 1")
    blocks = _grand_ensemble(p, n, k, l)
    _require_table(p, 3 * n, "three-way")
    # a = 0, e_1 and 2 e_1 with coset 0; a = j e_1 is word row j p^(k-1) p^l.
    a_ints = (0, p ** (k - 1), 2 * p ** (k - 1))
    rows = [a * p ** l for a in a_ints]
    coeffs = (1, (-2) % p, 1)    # W(0,i) - 2 W(1,i) + W(2,i) = 0 mod p
    space = p ** n
    place = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    joint = np.zeros(space ** 3, dtype=np.int64)
    holds = True
    total = 0
    for G, h in blocks:
        flat = codeword_indices(G, h, p)[:, rows]                     # (B, 3)
        total += flat.shape[0]
        digits = (flat[:, :, None] // place) % p                      # (B, 3, n)
        if np.any(np.tensordot(digits, coeffs, axes=([1], [0])) % p != 0):
            holds = False
        joint += np.bincount(flat @ np.array([space * space, space, 1]),
                             minlength=joint.size)
    expected = total / space ** 3
    dev = float(np.max(np.abs(joint - expected)))
    return DependenceWitness(
        p, n, k, l,
        triple=tuple((a, 0) for a in a_ints),
        relation_coeffs=coeffs,
        relation_holds_always=holds,
        max_joint_deviation=dev,
        fires=(holds and dev > 0),
    )


def code_to_json(code: UccCode) -> dict:
    return {"p": code.p, "n": code.n, "k": code.k, "l": code.l,
            "G": code.G.tolist(), "h": code.h.tolist()}
