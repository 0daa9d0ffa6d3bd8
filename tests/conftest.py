import numpy as np
import pytest

from povmsim import protocol
from povmsim.cli import bundled_example_path, load_problem
from povmsim.linalg import DensityOperator, Povm, psd_pinv_sqrt


@pytest.fixture(autouse=True)
def fresh_protocol_bases():
    """Each test starts with no memoised protocol basis, so none built in another test is read."""
    protocol._BASES.clear()


def members(tset) -> tuple:
    """The words of a ``TypicalSet`` as a tuple of word tuples, ascending by base-q index."""
    shape = (len(tset.probs),) * tset.n
    return tuple(zip(*(u.tolist() for u in np.unravel_index(np.flatnonzero(tset.mask), shape))))


def bell_matrix():
    m = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            m[i, j] = 0.5
    return m


@pytest.fixture(scope="session")
def bell_state():
    return DensityOperator(bell_matrix(), (2, 2))


@pytest.fixture(scope="session")
def example1():
    return load_problem(bundled_example_path(1))


@pytest.fixture(scope="session")
def example2():
    return load_problem(bundled_example_path(2))


def random_density(rng, dim, dims=None):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real, dims or (dim,))


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_psd(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T


def random_complete_povm(rng, dim, num):
    """num PSD elements renormalized so they sum to the identity exactly."""
    mats = [random_psd(rng, dim) for _ in range(num)]
    isq = psd_pinv_sqrt(sum(mats))
    return Povm(tuple(isq @ m @ isq for m in mats))


def random_rank_one_povm(rng, dim, num):
    """num rank-one elements v_i v_i^dagger from the first dim rows of a random unitary."""
    v = random_unitary(rng, num)[:dim]
    return Povm(tuple(np.outer(v[:, i], v[:, i].conj()) for i in range(num)))


def random_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated_qubit_problem():
    """(rho, M): a qubit state and a projective measurement in a basis rotated against it.

    The post-states are pure and do not commute with rho.  With n = 4, k = 0,
    l = 3, p = 2, N = 2, eta = 0.1, delta = 0.6 and seed 1, pruning cuts 1 and
    2 directions and 12 of the 16 bins are nonzero.
    """
    rho = DensityOperator(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]), (2,))
    u = random_unitary(np.random.default_rng(5), 2)
    return rho, Povm(tuple(np.outer(u[:, i], u[:, i].conj()) for i in range(2)))


def random_consistent_quantities(rng, p=None):
    """A random InfoQuantities vector whose classical entries are the entropies
    of one underlying joint distribution on F_p x F_p (so the identities that
    link S(U), S(V), S(U,V), S(U+V) and the W-mutual-informations hold)."""
    from povmsim.linalg import entropy_bits
    from povmsim.regions import InfoQuantities

    p = int(p or rng.choice([2, 3, 5]))
    joint = rng.random((p, p)) + 1e-3
    joint /= joint.sum()
    s_u = entropy_bits(joint.sum(axis=1))
    s_v = entropy_bits(joint.sum(axis=0))
    s_uv = entropy_bits(joint)
    wdist = np.zeros(p)
    for u in range(p):
        for v in range(p):
            wdist[(u + v) % p] += joint[u, v]
    s_sum = entropy_bits(wdist)
    i_u_v = s_u + s_v - s_uv
    return InfoQuantities(
        i_u_rb=float(rng.uniform(0, 2)),
        i_v_ra=float(rng.uniform(0, 2)),
        i_u_rz=float(rng.uniform(0, 2)),
        i_v_rz=float(rng.uniform(0, 2)),
        i_uv_rz=float(rng.uniform(0, 3)),
        i_w_u=s_sum + s_u - s_uv,
        i_w_v=s_sum + s_v - s_uv,
        i_u_v=i_u_v,
        s_u=s_u, s_v=s_v, s_uv=s_uv, s_sum=s_sum,
        i_u_rzv=float(rng.uniform(0, 2)),
        i_v_rzu=float(rng.uniform(0, 2)),
        log_p=float(np.log2(p)),
    )
