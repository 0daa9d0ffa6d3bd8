"""Monte-Carlo and exhaustive verification of the operator inequalities.

Covers the pairwise-independent covering bound, the pruning trace
inequalities, and the bipartite sandwich-reduction inequality.
"""

from __future__ import annotations

import threading
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .codes import ENUMERATION_CAP, _over_cap, all_vectors, require_prime
from .linalg import (
    PRUNE_TOL,
    DensityOperator,
    Povm,
    hermitian_part,
    max_eigenvalue,
    partial_trace_mat,
    psd_sqrt,
    trace_norm,
)

TRIAL_BLOCK = 1024    # Monte-Carlo trials per stacked numpy pass
ABOVE_I_MARGIN = 1e-12   # pruning: spec(X) - 1 above this means X not<= I


def _weighted_sum(weights: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_x w[..., x] stack[x] for real weights (..., X) and a complex stack (X, ...),
    as one real GEMM on the stack's (X, 2 * entries) float view."""
    flat = np.ascontiguousarray(stack).reshape(len(stack), -1).view(float)
    return (weights @ flat).view(complex).reshape(weights.shape[:-1] + stack.shape[1:])


@dataclass(frozen=True, eq=False)
class CoveringInstance:
    """Ensemble, projectors, and scalars entering the covering bound.

    The alphabet may be padded: letters with lam = 0 carry null operators and
    contribute nothing when sampled, exactly as the change of measure wants.
    """

    lam: np.ndarray        # (X,) ensemble weights, zero on the padding
    sigmas: np.ndarray     # (X, d, d) states (null on the padding)
    mu: np.ndarray         # (X,) sampling distribution
    pi: np.ndarray         # total subspace projector
    pi_x: np.ndarray       # (X, d, d) codeword subspace projectors
    eps: float
    d: float
    big_d: float
    m: int                 # codewords per covering code
    kappa: float | None = None

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        sigmas = np.asarray(self.sigmas, dtype=complex)
        pi_x = np.asarray(self.pi_x, dtype=complex)
        if not (lam.size == mu.size == sigmas.shape[0] == pi_x.shape[0]):
            raise ValueError("alphabet sizes disagree")
        if abs(lam.sum() - 1.0) > 1e-9 or abs(mu.sum() - 1.0) > 1e-9:
            raise ValueError("lam and mu must be distributions")
        if np.any((lam > 1e-13) & (mu <= 0)):
            raise ValueError("lam is not absolutely continuous w.r.t. mu")
        if self.m < 1:
            raise ValueError("M must be >= 1")
        kappa = self.kappa
        if kappa is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(lam > 0, lam / np.where(mu > 0, mu, 1.0), 0.0)
            kappa = float(ratios.max())
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "pi_x", pi_x)
        object.__setattr__(self, "pi", np.asarray(self.pi, dtype=complex))
        object.__setattr__(self, "kappa", float(kappa))

    @property
    def alphabet_size(self) -> int:
        return self.lam.size

    def sigma(self) -> np.ndarray:
        return _weighted_sum(self.lam, self.sigmas)

    def sigma_tilde(self) -> np.ndarray:
        """(X, d, d) cut states Pi Pi_x sigma_x Pi_x Pi, one batched matmul chain."""
        return self.pi @ self.pi_x @ self.sigmas @ self.pi_x @ self.pi

    def bound_raw(self) -> float:
        return float(np.sqrt(self.kappa * self.big_d / (self.m * self.d))
                     + 2 * 4 * np.sqrt(self.eps))

    def bound_cut(self) -> float:
        return float(np.sqrt(self.kappa * self.big_d / (self.m * self.d)))


@dataclass(frozen=True)
class HypothesesReport:
    support_overlap: float        # min_x Tr{Pi sigma_x} over lam > 0
    codeword_overlap: float       # min_x Tr{Pi_x sigma_x}
    ratio_bound: float            # ||Pi sqrt(sigma)||_1^2, must be <= D
    peak_defect: float            # max_x lambda_max(Pi_x sigma_x Pi_x - Pi_x / d)
    cut_defect: float             # max_x lambda_max(Pi_x sigma_x Pi_x - sigma_x)
    ok: tuple[bool, ...]          # one flag per hypothesis, in the order above


def check_covering_hypotheses(inst: CoveringInstance, slack: float = 1e-9) -> HypothesesReport:
    """Numerically verify the five covering hypotheses; report-only."""
    live = inst.lam > 1e-13
    s_over, c_over = 1.0, 1.0
    peak, cutd = -np.inf, -np.inf
    for x in np.nonzero(live)[0]:
        sx = inst.sigmas[x]
        px = inst.pi_x[x]
        s_over = min(s_over, float(np.trace(inst.pi @ sx).real))
        c_over = min(c_over, float(np.trace(px @ sx).real))
        cut = hermitian_part(px @ sx @ px)
        peak = max(peak, max_eigenvalue(cut - px / inst.d))
        cutd = max(cutd, max_eigenvalue(cut - sx))
    ratio = trace_norm(inst.pi @ psd_sqrt(inst.sigma())) ** 2
    ok = (
        s_over >= 1.0 - inst.eps - slack,
        c_over >= 1.0 - inst.eps - slack,
        ratio <= inst.big_d + slack,
        peak <= slack,
        cutd <= slack,
    )
    return HypothesesReport(float(s_over), float(c_over), float(ratio),
                            float(peak), float(cutd), ok)


# -- code samplers ----------------------------------------------------------
#
# A code sampler is a callable sample(rng, size) -> (size, X) integer array:
# row t holds how often each letter occurs among the M codewords of trial t.
# Drawing a block of trials at once consumes the generator's stream exactly
# as drawing the trials one after another would.

def iid_code_sampler(inst: CoveringInstance):
    """Fully independent codewords from mu, returned as occupation counts."""
    mu = inst.mu
    m = inst.m

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.multinomial(m, mu, size=size)

    return sample


def ucc_code_sampler(inst: CoveringInstance, p: int, n: int, k: int, l: int):
    """Pairwise-independent codewords from a fresh (G, h); mu must be uniform.

    The p**(k+l) codewords are the cosets aG + h(i), so letter x occurs
    sum_y image(y) shift(x - y) times, where image counts the p**k words aG
    and shift the p**l words h(i).  Each trial therefore costs p**k + p**l
    word indices and an L x L product over the letters (L = p**n), not
    p**(k+l) words.  Trials are drawn in row chunks of at most
    ``ENUMERATION_CAP`` entries per array.
    """
    require_prime(p)
    if p ** n != inst.alphabet_size:
        raise ValueError("UCC sampler needs |alphabet| = p**n")
    if _over_cap(p, k + l, ENUMERATION_CAP):
        raise ValueError(f"p**(k+l) = {p}**{k + l} codewords exceed the "
                         f"desk-scale cap {ENUMERATION_CAP}")
    if p ** (k + l) != inst.m:
        raise ValueError("UCC sampler needs M = p**(k+l)")
    if np.max(np.abs(inst.mu - 1.0 / inst.alphabet_size)) > 1e-12:
        raise ValueError("UCC sampler needs a uniform sampling distribution")
    letters = inst.alphabet_size
    if letters ** 2 > ENUMERATION_CAP:
        raise ValueError(f"the UCC sampler's {letters} x {letters} letter-difference table "
                         f"exceeds the desk-scale cap {ENUMERATION_CAP}")
    vectors = all_vectors(n, p)
    coefficients = all_vectors(k, p)
    place = p ** np.arange(n - 1, -1, -1)
    difference = ((vectors[:, None] - vectors[None]) % p) @ place    # [x, y] = letter x - y
    draws_per_trial = k * n + p ** l * n
    rows = max(1, ENUMERATION_CAP // (draws_per_trial + p ** k * n + letters ** 2))

    def letter_counts(words: np.ndarray) -> np.ndarray:
        """(t, L) occurrences of each letter among the (t, m, n) words."""
        flat = np.zeros(words.shape[:2], dtype=np.int64)
        for j in range(n):
            flat *= p
            flat += words[..., j]
        flat += letters * np.arange(len(words))[:, None]
        return np.bincount(flat.ravel(), minlength=len(words) * letters).reshape(-1, letters)

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        counts = np.empty((size, letters), dtype=np.int64)
        for start in range(0, size, rows):
            t = min(rows, size - start)
            # Per trial: G is k*n draws, then h is p**l * n draws.
            draws = rng.integers(0, p, size=(t, draws_per_trial))
            image = letter_counts((coefficients @ draws[:, :k * n].reshape(t, k, n)) % p)
            shift = letter_counts(draws[:, k * n:].reshape(t, p ** l, n))
            counts[start:start + t] = np.einsum("ty,txy->tx", image, shift[:, difference])
        return counts

    return sample


def _blocks(trials: int, block: int = TRIAL_BLOCK):
    """Sizes of the blocks of at most min(block, TRIAL_BLOCK) trials that make up ``trials``."""
    block = max(1, min(block, TRIAL_BLOCK))
    return [min(block, trials - start) for start in range(0, trials, block)]


def _require_trials(trials: int) -> None:
    if trials < 2:
        raise ValueError(f"trials must be >= 2 for a standard error, got {trials}")


def _hermitian_spectra(a: np.ndarray, thresholds=()) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian matrix in a stack, read from its lower triangle.

    A 4 x 4 stack is solved in closed form, trial axis last: with m = Tr X / 4 and
    s = ||X - m I||_F, A = (X - m I)/s has the characteristic polynomial
    x^4 + p x^2 + q x + r (from Tr A^2, A^3, A^4), whose resolvent cubic, solved in
    trigonometric form, has the roots (x_1 + x_j)^2; two Newton steps polish the x_i.
    A trial is certified when the last Newton step is below 1e-11 (it stays larger
    near a double root that rounding split into a complex pair), its eigenvalues
    are more than 1e-3 s apart and more than 1e-8 (|m| + s) from each of
    ``thresholds``.  Other trials, and stacks of any other size, take eigvalsh.
    """
    if a.shape[-1] != 4:
        return np.linalg.eigvalsh(a)
    shape, a = a.shape[:-1], a.reshape(-1, 4, 4)
    i, j = np.indices((4, 4))
    at, low = a.transpose(1, 2, 0), (np.maximum(i, j), np.minimum(i, j))
    w = np.stack([at.real[low], at.imag[low]])           # (2, 4, 4, t), the lower triangle mirrored
    w[1] *= np.sign(i - j)[..., None]
    m = np.trace(w[0]) / 4
    w[0, range(4), range(4)] -= m
    with np.errstate(all="ignore"):                # s = 0 or inf: NaN roots, never certified
        s = np.sqrt(np.einsum("cijt,cijt->t", w, w))
        w /= s                                     # A = R + iS with (R, S) = w
        n = np.einsum("ikt,jkt->ijt", *w)          # N = R S^T, so A^2 = R R^T + S S^T + i(N^T - N)
        b = np.empty_like(w)
        np.einsum("cikt,cjkt->ijt", w, w, out=b[0])
        np.subtract(n.swapaxes(0, 1), n, out=b[1])
        p2, p3, p4 = np.trace(b[0]), np.einsum("cijt,cijt->t", w, b), np.einsum("cijt,cijt->t", b, b)
        p, q, r = -p2 / 2, -p3 / 3, p2 ** 2 / 8 - p4 / 4
        rho = np.sqrt(p ** 2 / 9 + 4 * r / 3)
        theta = np.arccos(np.clip((p * p * p / 27 - 4 * p * r / 3 + q ** 2 / 2) / rho ** 3, -1, 1))
        z = 2 * rho * np.cos(theta / 3 - 2 * np.pi / 3 * np.arange(3)[:, None]) - 2 * p / 3
        u = np.sqrt(np.maximum(z, 0))                 # u_0 >= u_1 >= u_2: ascending roots below
        u[2] = np.copysign(u[2], -q)
        x = np.array([[-1, -1, 1], [-1, 1, -1], [1, -1, -1], [1, 1, 1]]) / 2 @ u
        for _ in range(2):
            x2 = x * x
            step = (((x2 + p) * x + q) * x + r) / ((4 * x2 + 2 * p) * x + q)
            x -= step
        spec = m + s * x
        ok = (np.abs(step) < 1e-11).all(axis=0) & (np.diff(spec, axis=0).min(axis=0) > 1e-3 * s)
    for level in thresholds:
        ok &= np.abs(spec - level).min(axis=0) > 1e-8 * (np.abs(m) + s)
    spec = spec.T
    if not ok.all():
        spec[~ok] = np.linalg.eigvalsh(a[~ok])
    return spec.reshape(shape)


def _hermitian_trace_norms(a: np.ndarray) -> np.ndarray:
    """||A||_1 of each Hermitian matrix in a stack, read from its lower triangle.

    A 2 x 2 Hermitian A has eigenvalues t +- r, where t = (a00 + a11)/2 and
    r = hypot((a00 - a11)/2, |a10|), so ||A||_1 = 2 max(|t|, r) without a
    LAPACK call.  Larger matrices take the absolute sum of their spectrum.
    """
    if a.shape[-1] != 2:
        return np.abs(_hermitian_spectra(a)).sum(axis=-1)
    a00, a11 = a[..., 0, 0].real, a[..., 1, 1].real
    t = (a00 + a11) / 2
    r = np.hypot((a00 - a11) / 2, np.abs(a[..., 1, 0]))
    return 2 * np.maximum(np.abs(t), r)


@dataclass(frozen=True)
class ExperimentReport:
    trials: int
    seed: int
    empirical_mean: float
    stderr: float
    bound: float
    passed: bool
    extras: dict


def covering_experiment(inst: CoveringInstance, trials: int, seed: int,
                        sampler=None) -> ExperimentReport:
    """Mean trace-norm deviation of sampled covering codes, raw and cut versions.

    The pass criterion allows 3 standard errors of statistical slack on top of
    the bound, which controls an expectation rather than single samples.
    """
    _require_trials(trials)
    if sampler is None:
        sampler = iid_code_sampler(inst)
    rng = np.random.default_rng(seed)
    # Hermitian states and real weights make every gap Hermitian, so its
    # trace norm is the absolute sum of its spectrum, read from the lower
    # triangle: in closed form for d = 2 and d = 4 (certified, with an eigvalsh
    # fallback), by one stacked eigvalsh for any other d.
    tilde = inst.sigma_tilde()
    tilde = (tilde + tilde.conj().swapaxes(-1, -2)) / 2
    states = np.stack([inst.sigmas, tilde], axis=1)                  # (X, 2, d, d)
    targets = _weighted_sum(inst.lam, states)[:, None]               # (2, 1, d, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(inst.mu > 0, inst.lam / np.where(inst.mu > 0, inst.mu, 1.0), 0.0)
    devs = []                                                        # (2, size) per block
    for size in _blocks(trials):
        weights = sampler(rng, size) * ratio / inst.m                # (size, X)
        gaps = targets - _weighted_sum(weights, states).swapaxes(0, 1)
        devs.append(_hermitian_trace_norms(gaps))
    raw_devs, cut_devs = np.concatenate(devs, axis=1)
    raw_mean, cut_mean = float(raw_devs.mean()), float(cut_devs.mean())
    raw_se = float(raw_devs.std(ddof=1) / np.sqrt(trials))
    cut_se = float(cut_devs.std(ddof=1) / np.sqrt(trials))
    b_raw, b_cut = inst.bound_raw(), inst.bound_cut()
    passed = (raw_mean <= b_raw + 3 * raw_se) and (cut_mean <= b_cut + 3 * cut_se)
    return ExperimentReport(
        trials=trials, seed=seed, empirical_mean=raw_mean, stderr=raw_se,
        bound=b_raw, passed=passed,
        extras={"cut_mean": cut_mean, "cut_stderr": cut_se, "cut_bound": b_cut,
                "m": inst.m},
    )


# -- pruning trace inequalities ----------------------------------------------
#
# A pruning sampler has ``mean`` (E[X], d x d) and blocks(rng, sizes), a
# generator that yields a fresh (size, d, d) stack of Hermitian samples for
# each size in turn; the experiment reads their lower triangles and closes the
# generator before it returns or raises.

def _normals_ahead(rng: np.random.Generator, counts: list, tail: tuple):
    """Yield standard normals of shape (t, *tail) for each t in ``counts``, drawn ahead.

    One worker thread fills two buffers in turn with ``rng.standard_normal(out=...)``,
    one chunk ahead of the caller, while the caller works on the other; numpy
    drops the interpreter lock while it draws.  Only the worker touches ``rng``
    and it draws in chunk order, so the values are those of a serial loop.  The
    caller's thread allocates the buffers and every view of them, so the worker
    allocates no array.  A yielded view is overwritten after the next request.
    The worker is joined before the generator finishes, raises or is closed,
    and an exception it raises reaches the caller unchanged.
    """
    if not counts:
        return
    buffers = np.empty((2, max(counts), *tail))
    views = [{t: buffer[:t] for t in set(counts)} for buffer in buffers]
    free, ready, stop = threading.Semaphore(2), threading.Semaphore(0), threading.Event()
    failure = []

    def draw():
        for j, t in enumerate(counts):
            free.acquire()
            if stop.is_set():
                return
            try:
                rng.standard_normal(out=views[j % 2][t])
            except BaseException as exc:       # handed to the caller's thread
                failure.append(exc)
                ready.release()
                return
            ready.release()

    worker = threading.Thread(target=draw, name="povmsim-normals", daemon=True)
    worker.start()
    try:
        for j, t in enumerate(counts):
            ready.acquire()
            if failure:
                raise failure[0]
            yield views[j % 2][t]
            free.release()
    finally:
        stop.set()
        free.release()
        worker.join()


@dataclass(frozen=True)
class ScaledWishartSampler:
    """Random PSD X = (scale/shots) sum_j g_j g_j^dagger with E[X] = scale * I."""

    dim: int
    shots: int
    scale: float

    def __post_init__(self):
        if self.dim < 1 or self.shots < 1:
            raise ValueError("the Wishart sampler needs dim >= 1 and shots >= 1")
        if max(2 * self.dim * self.shots, self.dim ** 2) > ENUMERATION_CAP:
            raise ValueError(f"one Wishart sample with dim {self.dim} and shots {self.shots} "
                             f"exceeds the desk-scale cap {ENUMERATION_CAP}")

    @property
    def mean(self) -> np.ndarray:
        return self.scale * np.eye(self.dim)

    def blocks(self, rng: np.random.Generator, sizes):
        # Per sample: zr = sqrt(2) Re g, then zi = sqrt(2) Im g, drawn in row chunks of at
        # most ENUMERATION_CAP entries (same stream) by _normals_ahead's worker.  Built
        # trial axis last, X = f (zr zr^T + zi zi^T) + i f (C - C^T) with C = zi zr^T,
        # f = scale/(2 shots).
        d, f = self.dim, self.scale / (2 * self.shots)
        rows = ENUMERATION_CAP // max(2 * d * self.shots, d * d)
        counts = [min(rows, size - start) for size in sizes for start in range(0, size, rows)]
        with closing(_normals_ahead(rng, counts, (2, d, self.shots))) as normals:
            for size in sizes:
                x = np.empty((d, d, size), dtype=complex)
                for start in range(0, size, rows):
                    t = slice(start, min(start + rows, size))
                    z = np.ascontiguousarray(next(normals).transpose(1, 2, 3, 0))
                    x.real[..., t] = f * np.einsum("cikt,cjkt->ijt", z, z)
                    c = np.einsum("ikt,jkt->ijt", z[1], z[0])
                    x.imag[..., t] = f * (c - c.swapaxes(0, 1))
                yield x.transpose(2, 0, 1)


@dataclass(frozen=True)
class PruningReport:
    trials: int
    seed: int
    eta: float
    pathwise_violations: int       # Tr{I-P} <= Tr{X} failures
    markov_violations: int         # 1{X not<= I} <= Tr{I-P} failures
    mean_cut: float                # E[Tr{I-P}]
    mean_bound: float              # (1/eta) E||X - E[X]||_1
    aggregate_ok: bool             # aggregate bound within 3 standard errors
    precondition_ok: bool          # E[X] <= (1-eta) I for the sampler's mean


def pruning_inequality_experiment(sampler, trials: int, eta: float,
                                  seed: int = 0) -> PruningReport:
    """Pathwise and aggregate pruning inequalities on random PSD samples.

    P projects onto the eigenvalues >= -PRUNE_TOL of I - X, so Tr{I-P} counts
    the eigenvalues of X above 1 by that margin; X not<= I means an eigenvalue
    of X - I above ABOVE_I_MARGIN.  Both come from one stacked spectrum of X, as
    spec(I - X) = 1 - spec(X).  When E[X] = s I exactly, the same spectrum
    gives ||X - E[X]||_1 = sum_i |lambda_i(X) - s|; any other mean costs a
    second spectrum, of X - E[X].
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    _require_trials(trials)
    rng = np.random.default_rng(seed)
    mean_x = sampler.mean
    eye = np.eye(mean_x.shape[0])
    pre_ok = max_eigenvalue(mean_x - (1.0 - eta) * eye) <= 1e-9
    scale = mean_x[0, 0].real
    scalar_mean = np.array_equal(mean_x, scale * eye)
    cuts, diffs = [], []   # Tr{I-P} and Tr{I-P} - (1/eta)||X - E[X]||_1 per trial
    path_viol = 0
    markov_viol = 0
    sizes = _blocks(trials, ENUMERATION_CAP // mean_x.size)        # <= cap entries of X
    with closing(sampler.blocks(rng, sizes)) as samples:
        for x in samples:
            # (size, d), ascending
            spec = _hermitian_spectra(x, (1 + PRUNE_TOL, 1 + ABOVE_I_MARGIN))
            excess = spec - 1.0                                       # spec(X - I)
            cut = np.count_nonzero(excess > PRUNE_TOL, axis=1).astype(float)
            trace_x = np.trace(x, axis1=1, axis2=2).real
            path_viol += int(np.count_nonzero(cut > trace_x + 1e-9))
            not_below_identity = (excess[:, -1] > ABOVE_I_MARGIN).astype(float)
            markov_viol += int(np.count_nonzero(not_below_identity > cut + 1e-9))
            if scalar_mean:
                gap_norm = np.abs(spec - scale).sum(axis=1)
            else:
                gap_norm = np.abs(_hermitian_spectra(x - mean_x)).sum(axis=1)
            cuts.append(cut)
            diffs.append(cut - gap_norm / eta)
    cuts, diffs = np.concatenate(cuts), np.concatenate(diffs)
    se = float(diffs.std(ddof=1) / np.sqrt(trials))
    aggregate_ok = float(diffs.mean()) <= 3 * se
    return PruningReport(trials, seed, eta, path_viol, markov_viol,
                         float(cuts.mean()),
                         float(cuts.mean() - diffs.mean()),
                         bool(aggregate_ok), bool(pre_ok))


# -- bipartite sandwich reduction ---------------------------------------------

@dataclass(frozen=True)
class SandwichReport:
    lhs: float       # sum_y ||sqrt(rho_AB)(Gamma^A (x) Lambda_y^B)sqrt(rho_AB)||_1
    rhs: float       # ||sqrt(rho_A) Gamma^A sqrt(rho_A)||_1
    complete: bool   # sum_y Lambda_y = I within tolerance
    inequality_ok: bool
    equality_ok: bool | None   # None when the POVM is incomplete


def sandwich_reduction_check(rho_ab: DensityOperator, gamma_a, m_y,
                         tol: float = 1e-9) -> SandwichReport:
    """LHS <= RHS always; the report records whether equality held.

    Equality under a complete B-side collection is guaranteed for PSD Gamma^A
    (each sandwich is then PSD and the trace norms telescope), and for product
    states with any Hermitian Gamma^A.  A sign-indefinite Gamma^A on an
    entangled state can make the inequality strict even for projective
    complete measurements (e.g. the Bell state with Gamma^A = Z measured in
    the |+>/|-> basis gives LHS = 0 < RHS = 1), so equality_ok is a report
    field, not an invariant.
    """
    da, db = rho_ab.register_dims
    gamma_a = np.asarray(gamma_a, dtype=complex)
    if gamma_a.shape != (da, da):
        raise ValueError("Gamma^A dimension mismatch")
    elements = list(m_y.elements) if isinstance(m_y, Povm) else [np.asarray(e) for e in m_y]
    root_ab = rho_ab.root
    lhs = 0.0
    total = np.zeros((db, db), dtype=complex)
    for lam in elements:
        lhs += trace_norm(root_ab @ np.kron(gamma_a, lam) @ root_ab)
        total = total + lam
    rho_a = partial_trace_mat(rho_ab.mat, rho_ab.register_dims, keep=[0])
    root_a = psd_sqrt(rho_a)
    rhs = trace_norm(root_a @ gamma_a @ root_a)
    complete = trace_norm(total - np.eye(db)) <= 1e-9
    ineq_ok = lhs <= rhs + tol
    eq_ok = (abs(lhs - rhs) <= tol) if complete else None
    return SandwichReport(float(lhs), float(rhs), bool(complete), bool(ineq_ok), eq_ok)
