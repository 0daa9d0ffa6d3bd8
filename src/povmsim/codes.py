"""Prime-field arithmetic and Unionized Coset Codes.

A UCC with parameters (n, k, l, p) is the union over m in F_p^l of the cosets
a G + h(m).  The shift map h is stored as an explicit table of p^l vectors so
ensembles serialize and re-run bit-exactly.  Field arithmetic is 64-bit
integers with mod-p reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .memo import memoised

ENUMERATION_CAP = 2 ** 20        # cap on p**n for exhaustive sequence enumeration
EXHAUSTIVE_ENSEMBLE_CAP = 2 ** 24  # cap on the number of (G, h) ensembles enumerated
BLOCK_KEYS = 2 ** 15              # int64 counter keys per stacked pass of the exhaustive checks (256 KiB)


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
    """``p`` as an int, once it is a prime no larger than ENUMERATION_CAP.

    Every table over F_p has at least p entries, so a larger p is refused
    before the trial division, which takes sqrt(p) steps.
    """
    p = int(p)
    if p > ENUMERATION_CAP:
        raise ValueError(f"p = {p} exceeds the desk-scale cap {ENUMERATION_CAP}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def _vectors(length: int, p: int) -> np.ndarray:
    table = np.zeros((1, 0), dtype=np.int64)
    if length:
        table = np.indices((p,) * length, dtype=np.int64).reshape(length, -1).T.copy()
    table.setflags(write=False)
    return table


def all_vectors(length: int, p: int) -> np.ndarray:
    """All p**length vectors over F_p in lexicographic order, shape (p**length, length).

    Memoised by ``("vectors", length, p)`` (see ``memo``; a table above the
    cap is built on every call), and read-only: callers index into the
    table but never write it.
    """
    return memoised(("vectors", length, p), lambda: _vectors(length, p))


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


def all_codewords(code: UccCode) -> np.ndarray:
    """All p**(k+l) codewords, row (a, i) in lexicographic (a-major) order."""
    a = all_vectors(code.k, code.p)
    base = (a @ code.G) % code.p                       # (p^k, n)
    out = (base[:, None, :] + code.h[None, :, :]) % code.p
    return out.reshape(code.num_words, code.n)


def multiplicity_table(code: UccCode) -> dict:
    """Map word tuple -> multiplicity, with sum of values = p**(k+l)."""
    return word_counts(codeword_indices(code.G[None], code.h[None], code.p), code.p, code.n)


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
    """blocks(size): iterator over the grand ensemble's (G, h) stacks, ``size`` at a time.

    Ensemble e is the base-p digit string of e split into the k rows of G and
    the p**l rows of h, so the blocks run through ``all_vectors`` order.  The
    parameters and the cap are checked before ``blocks`` is returned.
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

    def blocks(size: int):
        for start in range(0, total, size):
            idx = np.arange(start, min(start + size, total), dtype=np.int64)
            vecs = (idx[:, None] // place) % p
            yield (vecs[:, :k * n].reshape(idx.size, k, n),
                   vecs[:, k * n:].reshape(idx.size, p ** l, n))

    return blocks


@dataclass(frozen=True)
class DependenceWitness:
    triple: tuple            # three (a_int, i_int) codeword indices inside one coset
    relation_coeffs: tuple   # c with sum_j c_j W_j = 0 mod p on every ensemble
    relation_holds_always: bool
    max_joint_deviation: float  # deviation of the triple's joint counts from uniform
    fires: bool              # non-uniform triple => full independence fails


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
    witness: DependenceWitness | None   # the collinear triple, when p >= 3 and k >= 1


def _tuple_keys(flat, rows, space: int) -> np.ndarray:
    """Counter of each ensemble (row of ``flat``) and word tuple (row of ``rows``):
    the tuple's number, then its words' indices, as digits in base ``space``."""
    key = np.arange(len(rows)) * space + flat[:, rows[:, 0]]          # (B, tuples)
    for col in rows.T[1:]:
        key *= space
        key += flat[:, col]
    return key.ravel()


def pairwise_independence_check(p: int, n: int, k: int, l: int) -> PairwiseReport:
    """Exhaustively verify single-codeword uniformity and pairwise joint uniformity.

    One sweep of the grand ensemble counts the values of each codeword W(a, i),
    of each ordered pair of distinct codewords and, when p >= 3 and k >= 1, of
    the same-coset triple W(0, 0), W(e_1, 0), W(2 e_1, 0).  W is affine in a,
    so the triple obeys W_0 - 2 W_1 + W_2 = 0: pairwise but not three-way
    independent (for p = 2 a dependence takes four words, so no witness).
    Deviations are from the exactly uniform counts; each table is capped first.
    A block holds as many ensembles as keep its largest temporary, the
    (ensembles, tuples) counter keys of a table, within BLOCK_KEYS, so that it
    stays in cache, or within the largest table where that is larger, as
    each block's ``bincount`` allocates a table anyway; a block holds at
    least one ensemble.
    """
    blocks = _grand_ensemble(p, n, k, l)
    _require_table(p, 2 * (k + l + n), "pairwise")
    num_words, space = p ** (k + l), p ** n
    tuples = [np.arange(num_words)[:, None], np.argwhere(~np.eye(num_words, dtype=bool))]
    triple = p >= 3 and k >= 1
    if triple:
        _require_table(p, 3 * n, "three-way")
        # a = 0, e_1 and 2 e_1 with coset 0; a = j e_1 is word row j p^(k-1) p^l.
        a_ints = (0, p ** (k - 1), 2 * p ** (k - 1))
        tuples.append(np.array([[a * p ** l for a in a_ints]]))
    tables = [np.zeros(len(rows) * space ** rows.shape[1], dtype=np.int64) for rows in tuples]
    total, most = 0, max(len(rows) for rows in tuples)
    for G, h in blocks(max(1, max(BLOCK_KEYS, *(t.size for t in tables)) // most)):
        flat = codeword_indices(G, h, p)                              # (B, num_words)
        total += flat.shape[0]
        for rows, table in zip(tuples, tables):
            table += np.bincount(_tuple_keys(flat, rows, space), minlength=table.size)
    dev_single = int(np.abs(tables[0] - total // space).max())
    dev_pair = int(np.abs(tables[1] - total // space ** 2).max(initial=0))
    witness = None
    if triple:
        coeffs = (1, (-2) % p, 1)    # W(0,i) - 2 W(1,i) + W(2,i) = 0 mod p
        # The relation fixes W_2 given (W_0, W_1); it holds always iff every count is there.
        words = all_vectors(n, p)
        forced = np.ravel_multi_index(
            (-(coeffs[0] * words[:, None] + coeffs[1] * words) % p).reshape(-1, n).T, (p,) * n)
        joint = tables[2].reshape(space * space, space)
        holds = bool(joint[np.arange(space * space), forced].sum() == total)
        dev = float(np.abs(tables[2] - total / space ** 3).max())
        witness = DependenceWitness(tuple((a, 0) for a in a_ints), coeffs, holds, dev,
                                    fires=(holds and dev > 0))
    return PairwiseReport(p, n, k, l, total, dev_single, dev_pair,
                          exact=(dev_single == 0 and dev_pair == 0), witness=witness)


def code_to_json(code: UccCode) -> dict:
    return {"p": code.p, "n": code.n, "k": code.k, "l": code.l,
            "G": code.G.tolist(), "h": code.h.tolist()}
