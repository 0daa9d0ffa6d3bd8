"""Classical-quantum hybrid states and measurement-induced auxiliary states.

A CqState is a finite map from classical label tuples to positive operator
blocks on named quantum registers, held as one stack.  Entropies of register
subsets are computed over the whole stack, which is exact for block-diagonal
structure, and memoised per subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DensityOperator,
    Povm,
    PureState,
    entropy_bits,
    purify,
    require_finite,
)


@dataclass(frozen=True, eq=False)
class StochasticMap:
    """Conditional distribution P(out | in_1, ..., in_k) with rows summing to 1."""

    input_sizes: tuple[int, ...]
    output_size: int
    probs: np.ndarray   # shape input_sizes + (output_size,)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.input_sizes)
        p = require_finite(np.asarray(self.probs, dtype=float), "stochastic map")
        if p.shape != sizes + (int(self.output_size),):
            raise ValueError(f"probs shape {p.shape} != {sizes + (self.output_size,)}")
        if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
            raise ValueError("conditional probabilities must lie in [0,1]")
        rows = p.reshape(-1, self.output_size)
        if np.max(np.abs(rows.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("stochastic map rows must sum to 1")
        frozen = np.array(p)
        frozen.setflags(write=False)
        object.__setattr__(self, "probs", frozen)
        object.__setattr__(self, "input_sizes", sizes)
        object.__setattr__(self, "output_size", int(self.output_size))

    def __call__(self, out: int, *ins: int) -> float:
        return float(self.probs[tuple(ins) + (out,)])

    def row(self, *ins: int) -> np.ndarray:
        return np.asarray(self.probs[tuple(ins)])


def _products(povms) -> np.ndarray:
    """Lambda^1_{x_1} (x) ... (x) Lambda^k_{x_k} for every outcome tuple x, lexicographic."""
    out = np.ones((1, 1, 1), dtype=complex)
    for m in povms:
        out = np.einsum("aij,bkl->abikjl", out, np.array(m.elements))
        out = out.reshape(out.shape[0] * out.shape[1], out.shape[2] * out.shape[3], -1)
    return out


def _reached_rows(povms, channel: StochasticMap) -> np.ndarray:
    """The rows P(. | x) of ``channel`` at every outcome tuple x of ``povms``, lexicographic.

    Input j of ``channel`` may have more letters than POVM j has outcomes
    (letters no outcome reaches are never read), but not fewer.
    """
    counts = tuple(len(m) for m in povms)
    if len(channel.input_sizes) != len(counts) or any(
            c > size for c, size in zip(counts, channel.input_sizes)):
        raise ValueError(f"stochastic map inputs {channel.input_sizes} do not cover "
                         f"the POVM outcomes {counts}")
    return channel.probs[tuple(slice(c) for c in counts)].reshape(math.prod(counts), -1)


def compose(povms, channel: StochasticMap) -> Povm:
    """The POVM of z: sum_x P(z | x_1, ..., x_k) Lambda^1_{x_1} (x) ... (x) Lambda^k_{x_k}."""
    povms = tuple(povms)
    return Povm(tuple(np.tensordot(_reached_rows(povms, channel), _products(povms),
                                   axes=(0, 0))))


def _hermitian(stack: np.ndarray) -> np.ndarray:
    """(A + A†)/2 of every matrix in a stack."""
    return (stack + stack.conj().swapaxes(-1, -2)) / 2


def _group_sum(keys, stack: np.ndarray):
    """The distinct ``keys`` in first-appearance order and the ``stack`` rows summed per key."""
    index: dict = {}
    inv = [index.setdefault(k, len(index)) for k in keys]
    onehot = np.arange(len(index))[:, None] == np.array(inv, dtype=np.int64)
    sums = onehot.astype(float) @ stack.reshape(len(inv), -1)
    return list(index), sums.reshape((len(index),) + stack.shape[1:])


@dataclass(frozen=True, eq=False)
class CqState:
    """Hybrid state: classical label tuples indexing PSD blocks on quantum registers.

    Row b of ``labels`` (B, c) is the distinct label of block ``stack[b]`` (B, q, q).
    """

    classical: tuple[tuple[str, int], ...]   # (name, alphabet size)
    quantum: tuple[tuple[str, int], ...]     # (name, dimension)
    labels: np.ndarray
    stack: np.ndarray
    tol: float = DEFAULT_TOL
    # Entropy (bits) per frozenset of register names; the state never changes.
    _entropies: dict = field(init=False, repr=False)

    def __post_init__(self):
        cls = tuple((str(n), int(s)) for n, s in self.classical)
        qtm = tuple((str(n), int(d)) for n, d in self.quantum)
        names = [n for n, _ in cls] + [n for n, _ in qtm]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate register names in {names}")
        qdim = math.prod(d for _, d in qtm)
        lab = np.array(self.labels, dtype=np.int64)
        stack = np.array(self.stack, dtype=complex)
        if lab.ndim != 2 or lab.shape[1] != len(cls) or stack.shape != (len(lab), qdim, qdim):
            raise ValueError(f"labels {lab.shape} and stack {stack.shape} do not match "
                             f"classical registers {cls} and quantum dim {qdim}")
        rows = list(map(tuple, lab.tolist()))
        if len(set(rows)) != len(rows):
            raise ValueError("labels repeat")
        outside = np.any((lab < 0) | (lab >= [s for _, s in cls]), axis=1)
        if outside.any():
            raise ValueError(f"label {rows[int(np.argmax(outside))]} outside declared alphabets")
        stack = _hermitian(stack)
        not_psd = np.linalg.eigvalsh(stack)[:, 0] < -self.tol
        if not_psd.any():
            raise ValueError(f"block for {rows[int(np.argmax(not_psd))]} is not PSD")
        total = float(np.trace(stack, axis1=1, axis2=2).real.sum())
        if abs(total - 1.0) > max(self.tol, 1e-8):
            raise ValueError(f"total trace {total} != 1")
        lab.setflags(write=False)
        stack.setflags(write=False)
        object.__setattr__(self, "classical", cls)
        object.__setattr__(self, "quantum", qtm)
        object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "_entropies", {})

    @property
    def blocks(self) -> dict:
        """{label tuple: block}, built on each read over the read-only stack."""
        return dict(zip(map(tuple, self.labels.tolist()), self.stack))

    # -- register lookups ---------------------------------------------------
    def classical_names(self):
        return [n for n, _ in self.classical]

    def quantum_names(self):
        return [n for n, _ in self.quantum]

    def quantum_dims(self):
        return [d for _, d in self.quantum]

    def quantum_marginal(self) -> np.ndarray:
        """Sum of all blocks: the reduced state on the joint quantum registers."""
        return self.stack.sum(axis=0)


def measure_to_cq(psi: PureState, povm: Povm, measured: int,
                  outcome_name: str = "X", quantum_names=None) -> CqState:
    """Measure one register of a pure state, producing a cq state.

    The measured register is replaced by a classical register holding the
    outcome; block x is Tr_measured{(I (x) Lambda_x (x) I) |psi><psi|}.
    """
    dims = list(psi.register_dims)
    if not 0 <= measured < len(dims):
        raise ValueError(f"register index {measured} out of range")
    if povm.dim != dims[measured]:
        raise ValueError(f"POVM dim {povm.dim} != register dim {dims[measured]}")
    keep = [i for i in range(len(dims)) if i != measured]
    if not keep:
        raise ValueError("measuring the only register leaves no quantum remainder")
    if quantum_names is None:
        quantum_names = [f"q{i}" for i in keep]
    d_before, d_after = math.prod(dims[:measured]), math.prod(dims[measured + 1:])
    v = psi.vec.reshape(d_before, dims[measured], d_after)
    # Block x at ((i, k), (j, l)) is sum_{a, b} Lambda_x[a, b] psi[i, b, k] conj(psi[j, a, l]).
    stack = np.einsum("xiak,jal->xikjl", np.einsum("xab,ibk->xiak", np.array(povm.elements), v),
                      v.conj()).reshape(len(povm), d_before * d_after, -1)
    return CqState(((outcome_name, len(povm)),),
                   tuple((quantum_names[j], dims[i]) for j, i in enumerate(keep)),
                   np.arange(len(povm))[:, None], stack)


def build_sigma1(rho_ab: DensityOperator, m_a: Povm) -> CqState:
    """Purify rho_AB and measure the A factor: registers (R, S classical, B)."""
    if len(rho_ab.register_dims) != 2:
        raise ValueError("build_sigma1 needs a bipartite density operator")
    return measure_to_cq(purify(rho_ab), m_a, measured=1,
                         outcome_name="S", quantum_names=["R", "B"])


def build_sigma2(rho_ab: DensityOperator, m_b: Povm) -> CqState:
    """Purify rho_AB and measure the B factor: registers (R, A, T classical)."""
    if len(rho_ab.register_dims) != 2:
        raise ValueError("build_sigma2 needs a bipartite density operator")
    return measure_to_cq(purify(rho_ab), m_b, measured=2,
                         outcome_name="T", quantum_names=["R", "A"])


def _sigma(rho: DensityOperator, povms, channel: StochasticMap, names) -> CqState:
    """sum_{x,z} sqrt(rho)(Lambda_{x_1} (x) ...)sqrt(rho) P(z|x) |x,z><x,z|.

    The classical registers are ``names`` (one per POVM) and Z, the quantum one is R.
    """
    cores = rho.root @ _products(povms) @ rho.root
    rows = _reached_rows(povms, channel)
    x, z = np.nonzero(rows > 0.0)
    labels = np.column_stack(np.unravel_index(x, [len(m) for m in povms]) + (z,))
    classical = tuple(zip(names, map(len, povms))) + (("Z", channel.output_size),)
    return CqState(classical, (("R", rho.dim),), labels, cores[x] * rows[x, z][:, None, None])


def build_sigma3(rho_ab: DensityOperator, m_a: Povm, m_b: Povm,
                 p_zst: StochasticMap) -> CqState:
    """sum_{s,t,z} sqrt(rho)(Lambda_s (x) Lambda_t)sqrt(rho) P(z|s,t) |s,t,z><s,t,z|."""
    if len(rho_ab.register_dims) != 2:
        raise ValueError("build_sigma3 needs a bipartite density operator")
    da, db = rho_ab.register_dims
    if m_a.dim != da or m_b.dim != db:
        raise ValueError("POVM dimensions do not match the state factors")
    if p_zst.input_sizes != (len(m_a), len(m_b)):
        raise ValueError(f"stochastic map inputs {p_zst.input_sizes} != "
                         f"({len(m_a)}, {len(m_b)})")
    return _sigma(rho_ab, (m_a, m_b), p_zst, ("S", "T"))


def build_sigma_p2p(rho: DensityOperator, m: Povm, p_zw: StochasticMap) -> CqState:
    """Point-to-point auxiliary state: sqrt(rho) Lambda_w sqrt(rho) (x) P(z|w)|w,z><w,z|.

    ``p_zw`` may have more letters than ``m`` has outcomes; only the rows of
    outcomes are read.
    """
    if m.dim != rho.dim:
        raise ValueError("POVM dimension does not match the state")
    return _sigma(rho, (m,), p_zw, ("W",))


def regroup(cq: CqState, classical, relabel) -> CqState:
    """The state with each label replaced by ``relabel(label)`` under the
    classical registers ``classical``, blocks whose new labels collide summed.
    A sum of k blocks each within ``tol`` of PSD is within k * ``tol`` of it."""
    keys = [tuple(relabel(label)) for label in map(tuple, cq.labels.tolist())]
    labels, stack = _group_sum(keys, cq.stack)
    return CqState(tuple(classical), cq.quantum, labels, stack, tol=cq.tol * len(cq.labels))


def _reduced_spectrum(cq: CqState, registers) -> np.ndarray:
    """Eigenvalues of the reduced state on the named registers (block-diagonal exact):
    one partial trace of the stack, a sum per kept classical key, one stacked eigvalsh."""
    sel = set(registers)
    unknown = sel - set(cq.classical_names()) - set(cq.quantum_names())
    if unknown:
        raise KeyError(f"unknown registers {sorted(unknown)}")
    keep_c = [i for i, (n, _) in enumerate(cq.classical) if n in sel]
    keep_q = [i for i, (n, _) in enumerate(cq.quantum) if n in sel]
    dims, b = cq.quantum_dims(), len(cq.stack)
    n, d = len(dims), math.prod(dims[i] for i in keep_q)
    # Axis 1 + i is the row of register i and 1 + n + i its column; a traced
    # register reuses its row index as its column, so einsum sums the diagonal.
    cols = [1 + n + i if i in keep_q else 1 + i for i in range(n)]
    out = [0] + [1 + i for i in keep_q] + [1 + n + i for i in keep_q]
    red = np.einsum(cq.stack.reshape([b] + dims * 2), [0, *range(1, n + 1), *cols], out)
    _, red = _group_sum(map(tuple, cq.labels[:, keep_c].tolist()), red.reshape(b, d, d))
    return red.real.ravel() if d == 1 else np.linalg.eigvalsh(_hermitian(red)).ravel()


def entropy_of(cq: CqState, registers) -> float:
    """Entropy (bits) of the reduced state on a subset of named registers."""
    key = frozenset(registers)
    if key not in cq._entropies:
        cq._entropies[key] = entropy_bits(_reduced_spectrum(cq, key)) if key else 0.0
    return cq._entropies[key]


def cq_mutual_information(cq: CqState, part1, part2) -> float:
    """I(part1; part2) over disjoint named register subsets."""
    s1, s2 = set(part1), set(part2)
    if s1 & s2:
        raise ValueError(f"register subsets overlap: {sorted(s1 & s2)}")
    return entropy_of(cq, s1) + entropy_of(cq, s2) - entropy_of(cq, s1 | s2)
