"""Classical-quantum hybrid states and measurement-induced auxiliary states.

A CqState is a finite map from classical label tuples to positive operator
blocks on named quantum registers.  Entropies of arbitrary register subsets
are computed blockwise, which is exact for block-diagonal structure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DensityOperator,
    Povm,
    PureState,
    as_complex_matrix,
    entropy_bits,
    hermitian_part,
    kron_all,
    min_eigenvalue,
    partial_trace_mat,
    psd_sqrt,
    purify,
    require_finite,
)


@dataclass(frozen=True)
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


def compose(povms, channel: StochasticMap) -> Povm:
    """The POVM of z: sum_x P(z | x_1, ..., x_k) Lambda^1_{x_1} (x) ... (x) Lambda^k_{x_k}.

    Input j of ``channel`` may have more letters than POVM j has outcomes
    (letters no outcome reaches are never read), but not fewer.
    """
    povms = tuple(povms)
    counts = tuple(len(m) for m in povms)
    if len(channel.input_sizes) != len(counts) or any(
            c > size for c, size in zip(counts, channel.input_sizes)):
        raise ValueError(f"stochastic map inputs {channel.input_sizes} do not cover "
                         f"the POVM outcomes {counts}")
    products = np.array([kron_all(els)
                         for els in itertools.product(*(m.elements for m in povms))])
    rows = channel.probs[tuple(slice(c) for c in counts)].reshape(len(products), -1)
    return Povm(tuple(np.tensordot(rows, products, axes=(0, 0))))


@dataclass(frozen=True)
class CqState:
    """Hybrid state: classical label tuples indexing PSD blocks on quantum registers."""

    classical: tuple[tuple[str, int], ...]   # (name, alphabet size)
    quantum: tuple[tuple[str, int], ...]     # (name, dimension)
    blocks: dict
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        cls = tuple((str(n), int(s)) for n, s in self.classical)
        qtm = tuple((str(n), int(d)) for n, d in self.quantum)
        names = [n for n, _ in cls] + [n for n, _ in qtm]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate register names in {names}")
        qdim = int(np.prod([d for _, d in qtm])) if qtm else 1
        total = 0.0
        blocks = {}
        for label, block in self.blocks.items():
            label = tuple(int(x) for x in label)
            if len(label) != len(cls):
                raise ValueError(f"label {label} does not match classical registers {cls}")
            for x, (_, size) in zip(label, cls):
                if not 0 <= x < size:
                    raise ValueError(f"label {label} outside declared alphabets")
            m = hermitian_part(as_complex_matrix(block))
            if m.shape[0] != qdim:
                raise ValueError(f"block for {label} has dim {m.shape[0]}, expected {qdim}")
            if min_eigenvalue(m) < -self.tol:
                raise ValueError(f"block for {label} is not PSD")
            m.setflags(write=False)
            blocks[label] = m
            total += float(np.trace(m).real)
        if abs(total - 1.0) > max(self.tol, 1e-8):
            raise ValueError(f"total trace {total} != 1")
        object.__setattr__(self, "classical", cls)
        object.__setattr__(self, "quantum", qtm)
        object.__setattr__(self, "blocks", blocks)

    # -- register lookups ---------------------------------------------------
    def classical_names(self):
        return [n for n, _ in self.classical]

    def quantum_names(self):
        return [n for n, _ in self.quantum]

    def quantum_dims(self):
        return [d for _, d in self.quantum]

    def quantum_marginal(self) -> np.ndarray:
        """Sum of all blocks: the reduced state on the joint quantum registers."""
        qdim = int(np.prod(self.quantum_dims())) if self.quantum else 1
        out = np.zeros((qdim, qdim), dtype=complex)
        for block in self.blocks.values():
            out = out + block
        return out


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
    dm = np.outer(psi.vec, psi.vec.conj())
    keep = [i for i in range(len(dims)) if i != measured]
    if not keep:
        raise ValueError("measuring the only register leaves no quantum remainder")
    if quantum_names is None:
        quantum_names = [f"q{i}" for i in keep]
    d_before = int(np.prod(dims[:measured])) if measured else 1
    d_after = int(np.prod(dims[measured + 1:])) if measured + 1 < len(dims) else 1
    blocks = {}
    for x, lam in enumerate(povm.elements):
        full = kron_all([np.eye(d_before), lam, np.eye(d_after)])
        blocks[(x,)] = hermitian_part(partial_trace_mat(full @ dm, dims, keep))
    return CqState(
        classical=((outcome_name, len(povm)),),
        quantum=tuple((quantum_names[j], dims[i]) for j, i in enumerate(keep)),
        blocks=blocks,
    )


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


def _sigma(rho: np.ndarray, povms, channel: StochasticMap, names) -> CqState:
    """sum_{x,z} sqrt(rho)(Lambda_{x_1} (x) ...)sqrt(rho) P(z|x) |x,z><x,z|.

    The classical registers are ``names`` (one per POVM) and Z, the quantum one is R.
    """
    root = psd_sqrt(rho)
    blocks = {}
    for x in itertools.product(*(range(len(m)) for m in povms)):
        core = root @ kron_all([m.elements[i] for m, i in zip(povms, x)]) @ root
        for z, w in enumerate(channel.row(*x)):
            if w > 0.0:
                blocks[x + (z,)] = core * w
    classical = tuple(zip(names, map(len, povms))) + (("Z", channel.output_size),)
    return CqState(classical, (("R", rho.shape[0]),), blocks)


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
    return _sigma(rho_ab.mat, (m_a, m_b), p_zst, ("S", "T"))


def build_sigma_p2p(rho: DensityOperator, m: Povm, p_zw: StochasticMap) -> CqState:
    """Point-to-point auxiliary state: sqrt(rho) Lambda_w sqrt(rho) (x) P(z|w)|w,z><w,z|."""
    if m.dim != rho.dim:
        raise ValueError("POVM dimension does not match the state")
    if p_zw.input_sizes != (len(m),):
        raise ValueError(f"stochastic map inputs {p_zw.input_sizes} != ({len(m)},)")
    return _sigma(rho.mat, (m,), p_zw, ("W",))


def regroup(cq: CqState, classical, relabel) -> CqState:
    """The state with each label replaced by ``relabel(label)`` under the
    classical registers ``classical``, blocks whose new labels collide summed."""
    blocks = {}
    for label, block in cq.blocks.items():
        new = tuple(relabel(label))
        blocks[new] = blocks[new] + block if new in blocks else block
    return CqState(classical=tuple(classical), quantum=cq.quantum, blocks=blocks)


def relabel_classical(cq: CqState, register: str, f, new_size: int | None = None) -> CqState:
    """Apply a total map to one classical register, summing blocks that collide."""
    names = cq.classical_names()
    if register not in names:
        raise KeyError(f"no classical register named {register!r}")
    idx = names.index(register)
    size = cq.classical[idx][1]
    table = [int(f[x]) if not callable(f) else int(f(x)) for x in range(size)]
    out_size = int(new_size) if new_size is not None else max(table) + 1
    if any(not 0 <= y < out_size for y in table):
        raise ValueError(f"relabeling image exceeds alphabet size {out_size}")
    classical = (cq.classical[:idx] + ((register, out_size),) + cq.classical[idx + 1:])
    return regroup(cq, classical,
                   lambda label: label[:idx] + (table[label[idx]],) + label[idx + 1:])


def with_derived_register(cq: CqState, name: str, size: int, fn) -> CqState:
    """Append a classical register computed deterministically from existing labels.

    ``fn`` receives the full current label tuple and returns the new symbol;
    used for W = U + V over F_p.
    """
    def derive(label):
        y = int(fn(label))
        if not 0 <= y < size:
            raise ValueError(f"derived symbol {y} outside alphabet of size {size}")
        return label + (y,)
    return regroup(cq, cq.classical + ((name, size),), derive)


def _reduced_spectrum(cq: CqState, registers) -> np.ndarray:
    """Eigenvalues of the reduced state on the named registers (block-diagonal exact)."""
    sel = set(registers)
    known = set(cq.classical_names()) | set(cq.quantum_names())
    unknown = sel - known
    if unknown:
        raise KeyError(f"unknown registers {sorted(unknown)}")
    keep_c = [i for i, (n, _) in enumerate(cq.classical) if n in sel]
    keep_q = [i for i, (n, _) in enumerate(cq.quantum) if n in sel]
    qdims = cq.quantum_dims()
    acc: dict = {}
    for label, block in cq.blocks.items():
        key = tuple(label[i] for i in keep_c)
        red = partial_trace_mat(block, qdims, keep_q) if qdims else np.array([[np.trace(block) if block.size else 0.0]])
        if key in acc:
            acc[key] = acc[key] + red
        else:
            acc[key] = np.array(red)
    spectra = []
    for red in acc.values():
        if red.shape == (1, 1):
            spectra.append(np.array([red[0, 0].real]))
        else:
            spectra.append(np.linalg.eigvalsh(hermitian_part(red)))
    return np.concatenate(spectra) if spectra else np.array([1.0])


def entropy_of(cq: CqState, registers) -> float:
    """Entropy (bits) of the reduced state on a subset of named registers."""
    registers = list(registers)
    if not registers:
        return 0.0
    return entropy_bits(_reduced_spectrum(cq, registers))


def cq_mutual_information(cq: CqState, part1, part2) -> float:
    """I(part1; part2) over disjoint named register subsets."""
    s1, s2 = set(part1), set(part2)
    if s1 & s2:
        raise ValueError(f"register subsets overlap: {sorted(s1 & s2)}")
    return entropy_of(cq, s1) + entropy_of(cq, s2) - entropy_of(cq, s1 | s2)


def cq_to_json(cq: CqState) -> dict:
    from .linalg import mat_to_json
    return {
        "classical": [[n, s] for n, s in cq.classical],
        "quantum": [[n, d] for n, d in cq.quantum],
        "blocks": [{"label": list(label), "matrix": mat_to_json(block)}
                   for label, block in sorted(cq.blocks.items())],
    }
