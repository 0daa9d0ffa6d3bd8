"""Complex Hermitian linear algebra and quantum-state primitives.

Operators are plain complex numpy arrays; the dataclasses below only add the
register bookkeeping (subsystem dimensions, outcome labels) that the rest of
the package needs.  All entropies are in bits.  Values are treated as
immutable after construction: arrays are copied in and marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_TOL = 1e-9
# Relative eigenvalue cutoff for support projections and pseudo-inverses.
# Double-precision eigensolvers are reliable to ~1e-12 relative, so 1e-10
# cleanly separates "zero" from "small but real".
EIG_CUTOFF = 1e-10
# Pruning: an eigenvalue of X above 1 + PRUNE_TOL is cut.
PRUNE_TOL = 1e-10
LOG2 = np.log(2.0)


def as_complex_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def require_finite(a, what: str):
    """``a`` itself, once every entry is checked to be finite (not NaN or inf)."""
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} has non-finite entries")
    return a


def hermitian_part(a) -> np.ndarray:
    """(A + A†)/2, applied before every eigendecomposition to suppress drift."""
    m = as_complex_matrix(a)
    return (m + m.conj().T) / 2


def eigh(a):
    """Eigendecomposition of the Hermitian part of ``a``."""
    return np.linalg.eigh(hermitian_part(a))


def min_eigenvalue(a) -> float:
    return float(np.linalg.eigvalsh(hermitian_part(a))[0])


def max_eigenvalue(a) -> float:
    return float(np.linalg.eigvalsh(hermitian_part(a))[-1])


def is_psd(a, tol: float = DEFAULT_TOL) -> bool:
    return min_eigenvalue(a) >= -tol


def trace_norm(a) -> float:
    """Trace norm: the sum of singular values of a square complex matrix."""
    m = as_complex_matrix(a)
    return float(np.linalg.svd(m, compute_uv=False).sum())


def entropy_bits(probs) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0 and tiny negatives clipped."""
    p = np.asarray(probs, dtype=float).ravel()
    p = p[p > 1e-15]
    return float(-(p * np.log(p)).sum() / LOG2)


def kron_all(ops) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def kron_power(op, n: int) -> np.ndarray:
    return kron_all([op] * n)


def partial_trace_mat(mat, dims, keep) -> np.ndarray:
    """Partial trace of a square operator over the registers not in ``keep``.

    ``dims`` lists the register dimensions (their product is the matrix
    dimension); ``keep`` is a sorted iterable of register indices.  An empty
    ``keep`` returns the 1x1 matrix [[Tr mat]].
    """
    m = as_complex_matrix(mat)
    dims = list(dims)
    if int(np.prod(dims)) != m.shape[0]:
        raise ValueError(f"register dims {dims} do not match matrix dim {m.shape[0]}")
    keep = sorted(set(keep))
    if any(i < 0 or i >= len(dims) for i in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} registers")
    n = len(dims)
    if not keep:
        return np.array([[np.trace(m)]], dtype=complex)
    t = m.reshape(dims + dims)
    # Trace out registers from the highest index down so positions stay valid.
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + t.ndim // 2)
    d_keep = int(np.prod([dims[i] for i in keep]))
    return t.reshape(d_keep, d_keep)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Unit-trace PSD operator with an ordered list of subsystem dimensions."""

    mat: np.ndarray
    register_dims: tuple[int, ...]
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        m = hermitian_part(require_finite(self.mat, "density operator"))
        dims = tuple(int(d) for d in self.register_dims)
        if int(np.prod(dims)) != m.shape[0]:
            raise ValueError(f"register dims {dims} do not match matrix dim {m.shape[0]}")
        if not is_psd(m, self.tol):
            raise ValueError(f"density operator not PSD (min eig {min_eigenvalue(m):.3e})")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > self.tol:
            raise ValueError(f"density operator trace {tr} != 1")
        object.__setattr__(self, "mat", _frozen(m))
        object.__setattr__(self, "register_dims", dims)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def root(self) -> np.ndarray:
        """sqrt(mat), taken on the first read: the state never changes."""
        root = psd_sqrt(self.mat, self.tol)
        root.setflags(write=False)
        return root


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector with an ordered list of subsystem dimensions."""

    vec: np.ndarray
    register_dims: tuple[int, ...]
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=complex).ravel()
        dims = tuple(int(d) for d in self.register_dims)
        if int(np.prod(dims)) != v.size:
            raise ValueError(f"register dims {dims} do not match vector size {v.size}")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > self.tol:
            raise ValueError(f"state norm {nrm} != 1")
        frozen = np.array(v)
        frozen.setflags(write=False)
        object.__setattr__(self, "vec", frozen)
        object.__setattr__(self, "register_dims", dims)

    @property
    def dim(self) -> int:
        return self.vec.size

    def to_density(self) -> DensityOperator:
        return DensityOperator(np.outer(self.vec, self.vec.conj()), self.register_dims)


@dataclass(frozen=True, eq=False)
class Povm:
    """Ordered collection of PSD operators; completeness is checked by validate_povm."""

    elements: tuple
    outcomes: tuple = ()
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        els = tuple(_frozen(require_finite(as_complex_matrix(e), "POVM element"))
                    for e in self.elements)
        if not els:
            raise ValueError("a POVM needs at least one element")
        d = els[0].shape[0]
        if any(e.shape[0] != d for e in els):
            raise ValueError("POVM elements have mixed dimensions")
        outs = tuple(self.outcomes) if self.outcomes else tuple(range(len(els)))
        if len(outs) != len(els):
            raise ValueError("outcomes and elements length mismatch")
        object.__setattr__(self, "elements", els)
        object.__setattr__(self, "outcomes", outs)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True, eq=False)
class PovmValidation:
    mode: str
    element_psd_defects: tuple[float, ...]   # max(0, -min eigenvalue) per element
    completeness_defect: float               # ||I - sum||_1 (povm) or max eig(sum - I) (sub_povm)
    completion: np.ndarray | None            # I - sum, returned for sub_povm mode
    ok: bool


def validate_povm(povm: Povm, mode: str = "povm", tol: float = DEFAULT_TOL) -> PovmValidation:
    """Report per-element PSD defects and the (sub-)completeness defect.

    Report-only: never raises on an invalid collection.
    """
    if mode not in ("povm", "sub_povm"):
        raise ValueError(f"unknown mode {mode!r}")
    defects = tuple(max(0.0, -min_eigenvalue(e)) for e in povm.elements)
    total = sum(povm.elements)
    eye = np.eye(povm.dim)
    if mode == "povm":
        comp_defect = trace_norm(eye - total)
        completion = None
        ok = comp_defect <= tol and all(d <= tol for d in defects)
    else:
        comp_defect = max_eigenvalue(total - eye)
        completion = hermitian_part(eye - total)
        ok = comp_defect <= tol and all(d <= tol for d in defects)
    return PovmValidation(mode, defects, float(comp_defect), completion, ok)


def von_neumann_entropy(rho, tol: float = DEFAULT_TOL) -> float:
    """S(rho) = -sum eig log2 eig, in bits.  Accepts DensityOperator or matrix."""
    m = rho.mat if isinstance(rho, DensityOperator) else as_complex_matrix(rho)
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > max(tol, 1e-7):
        raise ValueError(f"entropy needs a unit-trace operator, got trace {tr}")
    vals = np.linalg.eigvalsh(hermitian_part(m))
    return entropy_bits(vals)


def partial_trace(rho: DensityOperator, traced) -> DensityOperator:
    """Trace out the registers listed in ``traced``; the remainder must be nonempty."""
    traced = sorted(set(traced))
    keep = [i for i in range(len(rho.register_dims)) if i not in traced]
    if not keep:
        raise ValueError("partial_trace would remove every register")
    red = partial_trace_mat(rho.mat, rho.register_dims, keep)
    return DensityOperator(red, tuple(rho.register_dims[i] for i in keep), tol=rho.tol)


def psd_sqrt(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a PSD matrix (negative eigenvalues beyond tol are errors)."""
    vals, vecs = eigh(a)
    scale = max(1.0, float(vals[-1]))
    if vals[0] < -tol * scale:
        raise ValueError(f"psd_sqrt of a non-PSD operator (min eig {vals[0]:.3e})")
    vals = np.clip(vals, 0.0, None)
    return hermitian_part((vecs * np.sqrt(vals)) @ vecs.conj().T)


def psd_pinv_sqrt(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse square root on the support of a PSD matrix."""
    vals, vecs = eigh(a)
    scale = max(vals[-1], 0.0)
    if vals[0] < -tol * max(1.0, scale):
        raise ValueError(f"psd_pinv_sqrt of a non-PSD operator (min eig {vals[0]:.3e})")
    cutoff = EIG_CUTOFF * scale
    inv = np.where(vals > cutoff, 1.0 / np.sqrt(np.clip(vals, cutoff, None)), 0.0)
    return hermitian_part((vecs * inv) @ vecs.conj().T)


def pruning_projector(x, tol: float = PRUNE_TOL) -> np.ndarray:
    """Projector onto the eigenvalues >= -tol of (I - x): an eigenvalue of x above 1 + tol is cut."""
    x = hermitian_part(x)
    vals, vecs = np.linalg.eigh(np.eye(x.shape[0]) - x)
    v = vecs[:, vals >= -tol]
    return hermitian_part(v @ v.conj().T)


def purify(rho: DensityOperator) -> PureState:
    """Square-root purification on R (x) original, with dim(R) = dim(rho).

    |Psi> = sum_i |i>_R (x) sqrt(rho)|i>, so Tr_R recovers rho exactly.
    """
    vec = rho.root.T.reshape(-1)
    vec = vec / np.linalg.norm(vec)
    return PureState(vec, (rho.dim,) + rho.register_dims, tol=max(rho.tol, 1e-8))


# ---------------------------------------------------------------------------
# JSON decoding: a complex matrix is a list of rows, each entry [re, im].

def mat_from_json(rows) -> np.ndarray:
    return np.array([[complex(e[0], e[1]) for e in row] for row in rows], dtype=complex)
