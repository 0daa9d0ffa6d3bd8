"""Per-trial, per-point, per-ensemble and per-code loop references for the batched paths.

Each function here is the straightforward loop that ``lab``, ``regions``,
``codes``, ``cq`` and the protocol's side build replace with stacked numpy
passes: one random draw, one small eigendecomposition or one trace per
trial, grid point, ensemble, cq block or code.  The tests compare the
batched results against them.
"""

import itertools
from types import SimpleNamespace

import numpy as np

from povmsim.codes import UccCode, all_vectors, codeword_indices, word_counts
from povmsim.linalg import (
    entropy_bits,
    hermitian_part,
    max_eigenvalue,
    partial_trace_mat,
    pruning_projector,
    trace_norm,
)
from povmsim.protocol import (
    PRUNE_TOL,
    _cond_typical_columns,
    _hstack,
    _ranges,
    _spectrum,
    _typical_factor,
    canonical_ensemble,
    pad_ensemble,
    typical_set,
)


def typical_row(row, probs, delta):
    """Strong typicality of one word, letter by letter: every letter's count N
    has |N / n - P| <= delta P (+1e-12), and a letter with P <= 1e-14 does not occur."""
    n = len(row)
    for a, prob in enumerate(probs):
        count = sum(1 for x in row if x == a)
        if prob <= 1e-14:
            if count:
                return False
        elif abs(count / n - prob) > delta * prob + 1e-12:
            return False
    return True


def _all_a(p, k):
    """Every a in F_p^k, lexicographic, shape (p**k, k)."""
    return np.array(list(itertools.product(range(p), repeat=k)), dtype=np.int64).reshape(p ** k, k)


# -- covering ------------------------------------------------------------------

def iid_draw(inst):
    """One trial of the i.i.d. sampler: occupation counts of M draws from mu."""
    return lambda rng: rng.multinomial(inst.m, inst.mu)


def ucc_draw(inst, p, n, k, l):
    """One trial of the UCC sampler: a fresh G, then a fresh shift table h."""
    a_all = _all_a(p, k)
    pow_vec = p ** np.arange(n - 1, -1, -1, dtype=np.int64)

    def draw(rng):
        g = rng.integers(0, p, size=(k, n))
        h = rng.integers(0, p, size=(p ** l, n))
        words = ((a_all @ g)[:, None, :] + h[None, :, :]) % p
        return np.bincount(words.reshape(-1, n) @ pow_vec, minlength=inst.alphabet_size)

    return draw


def cut_states(inst):
    """The cut state Pi Pi_x sigma_x Pi_x Pi of each letter, one product at a time."""
    return [inst.pi @ px @ s @ px @ inst.pi for s, px in zip(inst.sigmas, inst.pi_x)]


def covering_loop(inst, trials, seed, draw):
    """(raw deviations, cut deviations), one trace norm per trial and version.

    The cut states and both targets are built here letter by letter, not read
    from the instance.
    """
    rng = np.random.default_rng(seed)
    tilde = cut_states(inst)
    target_raw = sum(w * s for w, s in zip(inst.lam, inst.sigmas))
    target_cut = sum(w * c for w, c in zip(inst.lam, tilde))
    ratio = np.where(inst.mu > 0, inst.lam / np.where(inst.mu > 0, inst.mu, 1.0), 0.0)
    raw, cut = np.empty(trials), np.empty(trials)
    for t in range(trials):
        weights = draw(rng) * ratio / inst.m
        raw[t] = trace_norm(target_raw - sum(w * s for w, s in zip(weights, inst.sigmas)))
        cut[t] = trace_norm(target_cut - sum(w * c for w, c in zip(weights, tilde)))
    return raw, cut


# -- pruning -------------------------------------------------------------------

def wishart_draw(sampler):
    """One trial of ScaledWishartSampler: the real parts of g, then the imaginary."""
    def draw(rng):
        g = (rng.standard_normal((sampler.dim, sampler.shots))
             + 1j * rng.standard_normal((sampler.dim, sampler.shots))) / np.sqrt(2)
        return (sampler.scale / sampler.shots) * (g @ g.conj().T)
    return draw


def pruning_loop(mean, trials, eta, seed, draw):
    """Per-trial pruning projector, pathwise and Markov checks, and trace norm."""
    rng = np.random.default_rng(seed)
    cuts, diffs = np.empty(trials), np.empty(trials)
    path_viol = markov_viol = 0
    for t in range(trials):
        x = draw(rng)
        eye = np.eye(x.shape[0])
        cut = float(np.trace(eye - pruning_projector(x)).real)
        cuts[t] = cut
        if cut > float(np.trace(x).real) + 1e-9:
            path_viol += 1
        if float(max_eigenvalue(x - eye) > 1e-12) > cut + 1e-9:
            markov_viol += 1
        diffs[t] = cut - trace_norm(x - mean) / eta
    se = float(diffs.std(ddof=1) / np.sqrt(trials))
    return {"pathwise_violations": path_viol, "markov_violations": markov_viol,
            "mean_cut": float(cuts.mean()), "mean_bound": float(cuts.mean() - diffs.mean()),
            "aggregate_ok": bool(diffs.mean() <= 3 * se)}


# -- surface scan --------------------------------------------------------------

def surface_point(rho, t1, t2, t3, field_p=3):
    """(valid, gain) of one theta triple from Tr{(L_s (x) L_t) rho}."""
    det = t1 * (1.0 - t1) - (t2 * t2 + t3 * t3)
    if not (0.0 <= t1 <= 1.0 and det >= 0.0):
        return False, float("nan")
    lam0 = np.array([[t1, t2 + 1j * t3], [t2 - 1j * t3, 1.0 - t1]], dtype=complex)
    lams = (lam0, np.eye(2) - lam0)
    joint = np.array([[np.trace(np.kron(ls, lt) @ rho).real for lt in lams] for ls in lams])
    joint = np.clip(joint, 0.0, None)
    joint /= joint.sum()
    wdist = np.zeros(field_p)
    for s in range(2):
        for t in range(2):
            wdist[(s + t) % field_p] += joint[s, t]
    return True, 2.0 * entropy_bits(wdist) - entropy_bits(joint)


# -- code ensembles ------------------------------------------------------------

def grand_ensemble(p, n, k, l):
    """Every (G, h) of the grand ensemble, one at a time."""
    vecs = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64)
    for g_rows in itertools.product(range(p ** n), repeat=k):
        G = vecs[list(g_rows)].reshape(k, n)
        for h_rows in itertools.product(range(p ** n), repeat=p ** l):
            yield G, vecs[list(h_rows)]


def _words(G, h, p):
    a_all = _all_a(p, G.shape[0])
    return (((a_all @ G)[:, None, :] + h[None, :, :]) % p).reshape(-1, G.shape[1])


def pairwise_deviations(p, n, k, l):
    """(ensembles, worst single deviation, worst pair deviation) by brute force."""
    num_words, space = p ** (k + l), p ** n
    pow_vec = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    singles = np.zeros((num_words, space), dtype=np.int64)
    pairs = np.zeros((num_words, num_words, space, space), dtype=np.int64)
    total = 0
    for G, h in grand_ensemble(p, n, k, l):
        total += 1
        flat = _words(G, h, p) @ pow_vec
        singles[np.arange(num_words), flat] += 1
        for i in range(num_words):
            for j in range(num_words):
                if i != j:
                    pairs[i, j, flat[i], flat[j]] += 1
    off = ~np.eye(num_words, dtype=bool)
    dev_pair = int(np.abs(pairs[off] - total // space ** 2).max()) if num_words > 1 else 0
    return total, int(np.abs(singles - total // space).max()), dev_pair


def three_way_counts(p, n, k, l):
    """(relation holds on every ensemble, max |joint count - uniform|) by brute force."""
    space = p ** n
    pow_vec = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    rows = [j * p ** (k - 1) * p ** l for j in range(3)]     # a = 0, e_1, 2 e_1; coset 0
    joint = np.zeros((space,) * 3, dtype=np.int64)
    holds = True
    total = 0
    for G, h in grand_ensemble(p, n, k, l):
        total += 1
        w0, w1, w2 = _words(G, h, p)[rows]
        holds = holds and not np.any((w0 - 2 * w1 + w2) % p)
        joint[w0 @ pow_vec, w1 @ pow_vec, w2 @ pow_vec] += 1
    return holds, float(np.abs(joint - total / space ** 3).max())


# -- cq entropies ----------------------------------------------------------------

def cq_entropy(cq, registers):
    """Entropy (bits) on the named registers: one partial trace per block, the
    traced blocks summed per kept classical key, one eigvalsh per key."""
    sel = set(registers)
    if not sel:
        return 0.0
    keep_c = [i for i, (n, _) in enumerate(cq.classical) if n in sel]
    keep_q = [i for i, (n, _) in enumerate(cq.quantum) if n in sel]
    acc = {}
    for label, block in cq.blocks.items():
        key = tuple(label[i] for i in keep_c)
        red = partial_trace_mat(block, cq.quantum_dims(), keep_q)
        acc[key] = acc[key] + red if key in acc else red
    return entropy_bits(np.concatenate([np.linalg.eigvalsh(hermitian_part(red))
                                        for red in acc.values()]))


# -- protocol sides ----------------------------------------------------------------

def cut_directions(y):
    """The eigenvectors of Y Y^dagger with eigenvalue above 1 + PRUNE_TOL, from one
    eigh of the Gram Y^dagger Y; a Y without columns cuts nothing."""
    if not y.shape[1]:
        return y
    s2, v = np.linalg.eigh(y.conj().T @ y)
    keep = s2 > 1.0 + PRUNE_TOL
    return (y @ v[:, keep]) / np.sqrt(s2[keep])


def code_side(codewords, gamma, factors, hits, typical):
    """One code's pruned operators, one Python pass per code.

    ``codewords`` holds the code's codeword indices bin by bin, ``factors``
    maps every built word of the side to X_w and ``hits`` places the
    codewords in ``factors`` by position (-1 if absent).  Returns the
    attributes of ``protocol.SideData`` as a namespace.
    """
    dim = typical.shape[0]
    own = {w: x for w, x in factors.items() if w in gamma}
    v_cut = cut_directions(_hstack([np.sqrt(gamma[w]) * x for w, x in own.items()], dim))
    x = _hstack(own.values(), dim)
    # Every column cut: V_cut spans range(Y) = range(X), so F is exactly 0.
    f = np.zeros_like(x) if v_cut.shape[1] == x.shape[1] else x - v_cut @ (v_cut.conj().T @ x)
    widths = np.array([x_w.shape[1] * (w in gamma) for w, x_w in factors.items()] + [0])
    ends = np.cumsum(widths)
    a_factors = {w: f[:, e - c:e] for w, c, e in zip(factors, widths.tolist(), ends.tolist())
                 if w in gamma}
    found = hits[hits >= 0]
    g = f[:, _ranges(ends[found] - widths[found], ends[found])]
    bounds = np.concatenate([[0], np.cumsum(widths[hits].sum(axis=1))]).tolist()
    bin_factors = [g[:, a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    top = np.linalg.norm(g, 2) if g.any() else 0.0
    return SimpleNamespace(codewords=codewords, gamma=gamma, factors=own, typical=typical, v_cut=v_cut,
                           a_factors=a_factors, bin_factors=bin_factors,
                           defect=max(0.0, float(top) ** 2 - 1.0))


def side_codes(params, m, rho, g, h):
    """``code_side`` of every code (G = g, shift table h[mu]) of one side, code by code.

    X_w is built once per type class and transposed into place word by word.
    """
    ens = pad_ensemble(canonical_ensemble(m, rho), params.p)
    tset = typical_set(ens.weights, params.n, params.delta)
    n, d, p = params.n, rho.dim, params.p
    codes = [UccCode(p, n, g.shape[0], round(np.log(h.shape[1]) / np.log(p)), g, s) for s in h]
    u, inv = _typical_factor(rho.mat, n, params.delta)
    norm = p ** n / ((1.0 + params.eta) * p ** (codes[0].k + codes[0].l))
    indices = [codeword_indices(c.G[None], c.h[None], p)[0] for c in codes]
    gammas = [word_counts(i, p, n) for i in indices]
    used = set().union(*gammas)
    spectra = [_spectrum(s) for s in ens.post_states]
    idx = all_vectors(n, d)
    factors, by_type = {}, {}
    for w in sorted(w for w in used if tset.is_member(w)):
        order = np.argsort(w, kind="stable")
        rep = tuple(w[j] for j in order)
        if rep not in by_type:
            cols, eig = _cond_typical_columns(spectra, rep, params.delta, idx)
            x = cols * np.sqrt(np.clip(eig, 0.0, None) * (norm * ens.weight_of(rep)))
            by_type[rep] = ((u * inv) @ (u.conj().T @ x)).reshape((d,) * n + (x.shape[1],))
        x = by_type[rep]
        factors[w] = x.transpose(tuple(np.argsort(order)) + (n,)).reshape(d ** n, x.shape[-1])
    where = {w: i for i, w in enumerate(factors)}
    place = p ** np.arange(n - 1, -1, -1)
    out = []
    for code, gamma, flat in zip(codes, gammas, indices):
        words = (flat[:, None] // place) % p
        hits = np.array([where.get(tuple(w), -1) for w in words.tolist()])
        # Codeword (a, i) sits at row a p**l + i; bin i holds the codewords a G + h(i).
        out.append(code_side(flat.reshape(-1, code.num_bins).T, gamma, factors,
                             hits.reshape(-1, code.num_bins).T, u))
    return out


def redraw(params):
    """(G, each side's (N, p**l, n) shift tables) drawn from ``params.seed`` one table
    at a time, in the order ``protocol._build`` draws them: G, then side after side."""
    rng = np.random.default_rng(params.seed)
    p, n = params.p, params.n
    g = rng.integers(0, p, size=(params.k, n))
    return g, [np.array([rng.integers(0, p, size=(p ** l, n)) for _ in range(num)])
               for l, num in params.sides]


def decoded_word(inst, mus, messages):
    """The word one message per side decodes to under one mu per side: message i >= 1
    is bin i - 1 of ``inst.decoded``; a completion (message 0) or an entry -1 is w0."""
    k = inst.decoded[tuple(mus) + tuple(i - 1 for i in messages)] if all(messages) else -1
    word = tuple(map(int, np.unravel_index(max(k, 0), (inst.params.p,) * inst.params.n)))
    return word if k >= 0 else inst.w0
