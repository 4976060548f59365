"""Dense n x n oracles for the sparse grid operators, the abelian chain,
the matrix Schrodinger chain and the sparse lowest-mode solver.

The library stores diagonal factors as node vectors and every operator as
a sparse matrix.  Here each is rebuilt densely with plain numpy at small
n, entry by entry from its defining formula or by dense Kronecker and
block-diagonal assembly, and the structured results must match: operators
entrywise, the factorization residuals and the eig spectra bit for bit
(the same floating-point operations produce every entry), and the
weak-form figures and the similarity transform to rounding (sparse and
dense products sum in different orders).  linalg.lowest_modes must find
the lowest(eig(M), k) of dense eig to 1e-10 (1 + |lambda|), and raise
where its certificate cannot be met.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from ptgauge.abelian import (
    ScalarPotentials,
    build_scalar_hamiltonian,
    gauge_factorization,
    interior_test_vectors,
    verify_pseudo_hermiticity,
    weak_pseudo_hermiticity_residual,
)
from ptgauge.cartan import ThetaSignature, make_element, random_element
from ptgauge.linalg import Grid1D, eig, grid_operator, lowest, \
    lowest_common, lowest_modes, operator_norm_estimate
from ptgauge.schrodinger import ConstantGauge, MatrixPotential, \
    build_and_regauge, sample_audited_potential
from ptgauge import jaynes, linalg, schrodinger, verification

GAUGES = {
    "alpha": lambda t: 1.0 + 0j,
    "beta": lambda t: 0.3j * t,
    "mixed": lambda t: np.cos(t) + 0.3j * t,
}
# n = 6, 320, and n = 2, 4, where the first and last block rows meet
GRIDS = [Grid1D(half_count=3, spacing=0.4), Grid1D.from_box(8.0, 0.05),
         Grid1D(half_count=1, spacing=0.5), Grid1D(half_count=2, spacing=0.3)]


def dense_stencils(grid):
    n, h, x = grid.size, grid.spacing, grid.nodes
    D = np.zeros((n, n))
    i = np.arange(n - 1)
    D[i, i + 1] = 1.0 / (2 * h)
    D[i + 1, i] = -1.0 / (2 * h)
    L = np.zeros((n, n))
    L[np.arange(n), np.arange(n)] = 2.0 / h**2
    L[i, i + 1] = L[i + 1, i] = -1.0 / h**2
    return {
        "momentum": -1j * D,
        "second_derivative": L.astype(complex),
        "parity": np.eye(n)[::-1].astype(complex),
        "sign": np.diag(np.sign(x)).astype(complex),
    }


def dense_chain(A, grid):
    """eta, J, |eta| and the factorization residuals from dense matrices."""
    fact = gauge_factorization(A, grid)
    Q, u_u, u_h = fact.Q, fact.u_u, fact.u_h
    u = u_u * u_h
    P = dense_stencils(grid)["parity"]
    eta = np.conj(u)[:, None] * P * u[None, :]
    J = np.exp(1j * Q)[:, None] * P * u_u[None, :]

    def rel(diff, scale):
        return float((np.abs(diff) / np.maximum(1.0, np.abs(scale))).max())

    residuals = {
        "P_Uu": float(np.abs(P * u_u[None, :] - np.conj(u_u)[:, None] * P).max()),
        "P_Uh": rel(P * u_h[None, :] - u_h[:, None] * P, P * u_h[None, :]),
        "P_U": rel(P * u[None, :] - np.conj(u)[:, None] * P, P * u[None, :]),
        "polar": rel(eta - J * (u_h**2)[None, :], eta),
        "J_involution": float(np.abs(
            np.exp(1j * (Q + Q[::-1])) * u_u * u_u[::-1] - 1.0).max()),
        "J_hermitian": float(np.abs(J - J.conj().T).max()),
    }
    if not np.any(Q == 0.0):
        sgn = np.sign(Q)
        residuals["sign_split"] = float(np.abs(sgn * np.abs(Q) - Q).max())
        residuals["P_RQ_anticommute"] = float(
            np.abs(P * sgn[None, :] + sgn[:, None] * P).max())
    return fact, eta, J, residuals


def dense_hamiltonian(A, grid):
    x = grid.nodes
    A_v = np.asarray([A(t) for t in x], dtype=complex)
    st = dense_stencils(grid)
    p, L = st["momentum"], st["second_derivative"]
    return (L - p * A_v[None, :] - A_v[:, None] * p
            + np.diag(A_v**2 + x.astype(complex)**2))


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g.size}")
@pytest.mark.parametrize("kind", ["momentum", "second_derivative", "parity",
                                  "sign"])
def test_stencils_entrywise(grid, kind):
    M = grid_operator(grid, kind)
    assert np.array_equal(M.toarray(), dense_stencils(grid)[kind])


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g.size}")
@pytest.mark.parametrize("name", GAUGES)
def test_factorization_entrywise_and_bitwise(grid, name):
    fact, eta, J, residuals = dense_chain(GAUGES[name], grid)
    assert np.array_equal(fact.eta.toarray(), eta)
    assert np.array_equal(fact.J.toarray(), J)
    assert np.array_equal(fact.abs_eta, fact.u_h**2)
    assert fact.residuals == residuals


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g.size}")
@pytest.mark.parametrize("name", GAUGES)
def test_hamiltonian_entrywise(grid, name):
    A = GAUGES[name]
    H = build_scalar_hamiltonian(ScalarPotentials(A=A, V=lambda t: t**2), grid)
    assert np.array_equal(H.toarray(), dense_hamiltonian(A, grid))
    assert H.nnz == 3 * grid.size - 2


@pytest.mark.parametrize("name", GAUGES)
def test_weak_form_matches_dense(name):
    A = GAUGES[name]
    grid = GRIDS[1]
    fact, eta, J, _ = dense_chain(A, grid)
    H = dense_hamiltonian(A, grid)
    T = interior_test_vectors(grid)
    P = dense_stencils(grid)["parity"]
    norm_H = operator_norm_estimate(H)
    r1_abs = weak_pseudo_hermiticity_residual(H, eta, T)
    r2_abs = weak_pseudo_hermiticity_residual(H, P, T)
    # the weighted-form loop of verify_pseudo_hermiticity, summed densely
    rng = np.random.default_rng(7)
    w = np.diag(fact.u_h**2)
    wf = []
    for _ in range(5):
        phi = T @ rng.standard_normal(T.shape[1])
        psi = T @ rng.standard_normal(T.shape[1])
        lhs = grid.spacing * np.vdot(H @ phi, w @ J @ psi)
        rhs = grid.spacing * np.vdot(phi, w @ J @ H @ psi)
        wf.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))

    out = verify_pseudo_hermiticity(
        build_scalar_hamiltonian(ScalarPotentials(A=A, V=lambda t: t**2), grid),
        fact, tol=1e-8)
    for got, want in ((out.norm_H, norm_H), (out.r1, r1_abs / norm_H),
                      (out.r2_abs, r2_abs),
                      (out.weighted_form_residual, max(wf))):
        assert abs(got - want) <= 1e-10 * abs(want)


def test_weak_residual_order_beyond_dense_reach():
    """r1 keeps its fourth order at n = 5120 -> 10240, where one dense
    complex operator would take 1.6 GB."""
    A = lambda t: 1.0 + 0.3j * t
    pots = ScalarPotentials(A=A, V=lambda t: t**2)
    r1 = []
    for n in (5120, 10240):
        grid = Grid1D(half_count=n // 2, spacing=16.0 / n)
        out = verify_pseudo_hermiticity(build_scalar_hamiltonian(pots, grid),
                                        gauge_factorization(A, grid), tol=1.0)
        r1.append(out.r1)
    assert np.log2(r1[0] / r1[1]) >= 3.5


def matrix_examples():
    """The verification suite's example (alpha sigma_2, harmonic well), a
    random m = 3 gauge with an audited potential that has off-diagonal
    blocks, and a random Hermitian m = 3 gauge and potential."""
    sig = ThetaSignature(1, 1)
    el = make_element(sig, np.zeros((1, 1)), [[-0.3]], np.zeros((1, 1)))
    yield "alpha_sigma2", ConstantGauge(A=el.gauge_potential), \
        MatrixPotential(m=2, V=lambda x: x**2 * np.eye(2))
    rng = np.random.default_rng(4)
    sig = ThetaSignature(2, 1)
    yield "random_m3", ConstantGauge(A=random_element(sig, rng).gauge_potential), \
        sample_audited_potential(sig, rng)
    # Hermitian A whose A @ A is not Hermitian bit for bit, Hermitian V
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    yield "hermitian_m3", ConstantGauge(A=(X + X.conj().T) / 4), MatrixPotential(
        m=3, V=lambda x: x**2 * np.eye(3) + np.exp(-x**2) * (B + B.conj().T))


MATRIX_EXAMPLES = list(matrix_examples())
MATRIX_GRIDS = [Grid1D(half_count=3, spacing=0.4), Grid1D.from_box(8.0, 0.1),
                Grid1D(half_count=1, spacing=0.5), Grid1D(half_count=2, spacing=0.3)]


def dense_matrix_chain(gauge, pot, grid):
    """H_g, H and the block-diagonal U, U^{-1} by dense Kronecker and
    block-diagonal assembly.  When A and every V(x_j) are Hermitian, A^2 and
    the blocks U V U^{-1} are taken as their Hermitian parts (X + X^H) / 2,
    as the library stores them."""
    m, A, x = gauge.m, gauge.A, grid.nodes
    st = dense_stencils(grid)
    p, L = st["momentum"], st["second_derivative"]
    Vs = pot.sample(x)
    hermitian = np.array_equal(A, A.conj().T) and all(
        np.array_equal(V, V.conj().T) for V in Vs)

    def part(X):
        return (X + X.conj().T) / 2 if hermitian else X

    A2 = A @ A
    if not np.array_equal(A2, A2.conj().T):
        A2 = part(A2)
    H_g = (np.kron(L, np.eye(m)) - 2 * np.kron(p, A)
           + np.kron(np.eye(grid.size), A2) + scipy.linalg.block_diag(*Vs))
    U = [scipy.linalg.expm(-1j * A * xj) for xj in x]
    Ui = [scipy.linalg.expm(1j * A * xj) for xj in x]
    H = np.kron(L, np.eye(m)) + scipy.linalg.block_diag(
        *[part(u @ V @ ui) for u, V, ui in zip(U, Vs, Ui)])
    return H_g, H, scipy.linalg.block_diag(*U), scipy.linalg.block_diag(*Ui)


@pytest.mark.parametrize("grid", MATRIX_GRIDS, ids=lambda g: f"n{g.size}")
@pytest.mark.parametrize("name, gauge, pot", MATRIX_EXAMPLES,
                         ids=[e[0] for e in MATRIX_EXAMPLES])
def test_matrix_chain_entrywise(grid, name, gauge, pot):
    res = build_and_regauge(gauge, pot, grid)
    similar = schrodinger.similarity_transform(res, gauge, pot)
    H_g, H, U, Ui = dense_matrix_chain(gauge, pot, grid)
    for got in (res.H_g, res.H, similar):
        assert isinstance(got, scipy.sparse.csr_array)
        if name != "random_m3":   # Hermitian A and V: kept exactly Hermitian
            assert (got != got.conj().T).count_nonzero() == 0
    if name == "alpha_sigma2":   # -iA real: U, H and U H_g U^-1 are real
        assert not (res.H.data.imag.any() or similar.data.imag.any())
    assert np.array_equal(res.H_g.toarray(), H_g)
    assert np.array_equal(eig(res.H_g), eig(H_g))
    # a Hermitian A takes e^{-iAx} from eigh, the oracle from expm; sparse
    # and dense products sum in different orders; U grows like e^{|a| |x|}
    # for a non-Hermitian A, so the rounding bound is taken entrywise from
    # |U||H_g||U^-1|
    bound = 1e-14 * (np.abs(U) @ np.abs(H_g) @ np.abs(Ui))
    assert np.all(np.abs(res.H.toarray() - H) <= bound)
    assert np.all(np.abs(similar.toarray() - U @ H_g @ Ui) <= bound)
    # each eig is backward stable, so two builds that differ at rounding
    # have spectra within a few eps |H| of each other (Weyl)
    e, e_oracle = eig(res.H), eig(H)
    norm = np.abs(H).sum(axis=1).max()
    assert np.abs(e - e_oracle).max() <= 64 * np.finfo(float).eps * norm
    if name == "random_m3":   # the same expm stack: the same bits
        assert np.array_equal(res.H.toarray(), H)
        assert np.array_equal(e, e_oracle)
    # block-tridiagonal storage: at most 3 m^2 entries per block row
    m = gauge.m
    assert res.H_g.nnz <= 3 * m * m * grid.size


def _band_solves(monkeypatch):
    """The (kd + 1, n) shape of each band eig solves, and a count of the
    calls of the public linalg.eig."""
    shapes, calls = [], []
    banded, public = scipy.linalg.eigvals_banded, linalg.eig

    def spy(band, **kw):
        shapes.append(band.shape)
        return banded(band, **kw)

    def counted(*args, **kw):
        calls.append(args[0].shape[0])
        return public(*args, **kw)

    monkeypatch.setattr(scipy.linalg, "eigvals_banded", spy)
    monkeypatch.setattr(linalg, "eig", counted)
    return shapes, calls


@pytest.mark.parametrize("h", [0.1, 0.05, 0.025])
def test_parity_fold_matches_dense(h, monkeypatch):
    """verify-all's example commutes with P_bold = kron(P, Theta) entry for
    entry: eig(M, P_bold) solves H_g, H and U H_g U^-1 as two band
    problems of half the dimension, whose union matches dense eigvalsh
    within 64 eps |M|_inf, with one call of the public eig an operator."""
    sig = ThetaSignature(1, 1)
    grid = Grid1D.from_box(8.0, h)
    res = build_and_regauge(*MATRIX_EXAMPLES[0][1:], grid)
    J = schrodinger.extended_parity(grid, sig)
    shapes, calls = _band_solves(monkeypatch)
    n = 2 * grid.size
    similar = schrodinger.similarity_transform(res, *MATRIX_EXAMPLES[0][1:])
    for M in (res.H_g, res.H, similar):
        D = M.toarray()
        assert np.array_equal(J @ D @ J, D)
        got = linalg.eig(M, J)
        assert got.dtype == complex and not got.imag.any()
        want = np.linalg.eigvalsh(D)
        norm = np.abs(D).sum(axis=1).max()
        assert np.abs(got.real - want).max() <= 64 * np.finfo(float).eps * norm
    assert calls == [n] * 3
    assert [w for _, w in shapes] == [n // 2] * 6
    assert [kd1 - 1 for kd1, _ in shapes] == [3, 3, 2, 2, 3, 3]


def _folded_halves(M, J):
    """eig's J-even and J-odd halves of M, from linalg._fold, densified."""
    read = linalg._entries(M)
    halves = []
    for half, i, j, v, _, _ in linalg._fold(*linalg._involution(J, read[0]),
                                            *read):
        A = np.zeros((half, half), v.dtype)
        A[i, j] = v
        halves.append(A)
    return halves


def _dense_halves(D, J):
    """D[R][:, R] +- D[R][:, pi(R)] * s[R] for the signed permutation J with
    J[k, pi(k)] = s_k, R the indices k < pi(k)."""
    J = J.toarray().real
    pi = np.abs(J).argmax(axis=1)
    s = J[np.arange(len(J)), pi]
    R = np.flatnonzero(np.arange(len(J)) < pi)
    direct, mirror = D[R][:, R], D[R][:, pi[R]] * s[R]
    return direct + mirror, direct - mirror


@pytest.mark.parametrize("h", [0.1, 0.05])
def test_parity_fold_halves_are_the_dense_block_sums(h):
    """Each half eig solves for H_g, H and U H_g U^-1 of verify-all's
    example equals M[R, R] +- M[R, pi(R)] diag(s_R) of dense M exactly:
    at most two entries are summed on one slot, and a sum of two does not
    depend on their order."""
    grid = Grid1D.from_box(8.0, h)
    res = build_and_regauge(*MATRIX_EXAMPLES[0][1:], grid)
    J = schrodinger.extended_parity(grid, ThetaSignature(1, 1))
    for M in (res.H_g, res.H,
              schrodinger.similarity_transform(res, *MATRIX_EXAMPLES[0][1:])):
        for got, want in zip(_folded_halves(M, J),
                             _dense_halves(M.toarray(), J)):
            assert np.array_equal(got, want)


def test_parity_fold_halves_of_a_random_complex_band():
    """A random complex band X made J-symmetric as X + J X J, for the
    reversal J with mixed signs: each half is its dense block sum."""
    rng = np.random.default_rng(11)
    n, kd = 256, 4
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    X = np.triu(np.tril(X, kd), -kd)
    pi = np.arange(n)[::-1]
    s = rng.choice([-1.0, 1.0], n // 2)
    s = np.concatenate((s, s[::-1]))
    J = scipy.sparse.csr_array((s, pi, np.arange(n + 1)), shape=(n, n))
    M = X + np.outer(s, s) * X[np.ix_(pi, pi)]
    halves = _folded_halves(M, J)
    assert all(np.iscomplexobj(A) for A in halves)
    for got, want in zip(halves, _dense_halves(M, J)):
        assert np.array_equal(got, want)


def _noncompact_example():
    """A (2, 1) gauge with a compact and a noncompact part, so that
    Theta A Theta != -A, in the well x^2 I: not P_bold-even, and not
    Hermitian (its noncompact part is real and antisymmetric)."""
    sig = ThetaSignature(2, 1)
    el = make_element(sig, [[0, 0.2], [-0.2, 0]], [[0.3], [0.1]], [[0]])
    return sig, ConstantGauge(A=el.gauge_potential), \
        MatrixPotential(m=3, V=lambda x: x**2 * np.eye(3))


def test_parity_fold_negative_twins(monkeypatch):
    """Operators that do not commute with the parity passed take the route
    eig takes without one, bit for bit: a copy of H_g with one diagonal
    entry moved, P_bold with the Theta sign of one node pair flipped, the
    noncompact gauge above, and random_m3's H_g, for which
    P_bold H_g P_bold = H_g^H != H_g."""
    grid = MATRIX_GRIDS[1]
    J = schrodinger.extended_parity(grid, ThetaSignature(1, 1))
    H_g = build_and_regauge(*MATRIX_EXAMPLES[0][1:], grid).H_g
    moved = H_g.tolil()
    moved[0, 0] += 2.0 ** -20
    flipped = J.tolil()
    n = J.shape[0]
    flipped[0, n - 2] *= -1
    flipped[n - 2, 0] *= -1
    twins = [(moved.tocsr(), J), (H_g, flipped.tocsr())]
    for sig, gauge, pot in (_noncompact_example(),
                            (ThetaSignature(2, 1), *MATRIX_EXAMPLES[1][1:])):
        twins.append((build_and_regauge(gauge, pot, grid).H_g,
                      schrodinger.extended_parity(grid, sig)))
    shapes, _ = _band_solves(monkeypatch)
    for M, P in twins:
        assert (P @ M @ P != M).count_nonzero()
        assert np.array_equal(eig(M, P), eig(M))
    # the two Hermitian twins each solve their whole band, twice
    assert [w for _, w in shapes] == [320] * 4


@pytest.mark.parametrize("box, h", [(8.0, 0.1), (1e3, 1.0)])
@pytest.mark.parametrize("name", ["alpha_sigma2", "hermitian_m3"])
def test_hermitian_gauge_exponentials_match_expm(name, box, h):
    """The closed form W diag(e^{-i lam x_j}) W^H of a Hermitian A agrees
    with expm(-iAx_j) at every node to 8 m eps (1 + |A x_j|), also where
    the phases |A x_j| reach 1e3; it is real where -iA is."""
    A = dict((e[0], e[1].A) for e in MATRIX_EXAMPLES)[name]
    x = Grid1D.from_box(box, h).nodes
    U = schrodinger._exponentials(A, x)
    assert np.isrealobj(U) == (name == "alpha_sigma2")
    m, norm = len(A), np.abs(A).sum(axis=1).max()
    for Uj, xj in zip(U, x):
        err = np.abs(Uj - scipy.linalg.expm(-1j * A * xj)).max()
        assert err <= 8 * m * np.finfo(float).eps * (1 + abs(xj) * norm)


def test_eig_accepts_sparse():
    grid = Grid1D(half_count=4, spacing=0.5)
    M = grid_operator(grid, "second_derivative") \
        + 0.3j * grid_operator(grid, "momentum")
    assert np.array_equal(eig(M), eig(M.toarray()))


def assert_lowest_modes_match_dense(M, k):
    """lowest_modes(M, k) and lowest(eig(M), k), cut at a common k' >= k,
    hold the same values to 1e-10 (1 + |lambda|), matched one to one."""
    sparse, dense = lowest_common(k, lambda j: lowest_modes(M, j), eig(M))
    assert len(sparse) == len(dense) >= k
    rest = list(dense)
    for lam in sparse:
        d = np.abs(np.asarray(rest) - lam)
        assert d.min() <= 1e-10 * (1 + abs(lam)), (lam, rest[int(np.argmin(d))])
        rest.pop(int(np.argmin(d)))
    return sparse


def test_lowest_modes_default_hermitian_example():
    gauge, pot = MATRIX_EXAMPLES[0][1:]
    res = build_and_regauge(gauge, pot, MATRIX_GRIDS[1])
    for M in (res.H_g, res.H):
        assert_lowest_modes_match_dense(M, 16)


def test_lowest_modes_nonhermitian_m3():
    """The random m = 3 gauge with an audited potential at dim 480: most of
    the lowest modes come in conjugate pairs."""
    gauge, pot = MATRIX_EXAMPLES[1][1:]
    res = build_and_regauge(gauge, pot, MATRIX_GRIDS[1])
    assert res.H_g.shape == (480, 480)
    low = assert_lowest_modes_match_dense(res.H_g, 16)
    assert np.sum(np.abs(low.imag) > 1e-3) >= 8


def _upper_blocks(n_blocks, c):
    """Blocks [[j, c], [0, j + 1/2]]: real eigenvalues j, j + 1/2, while the
    skew-Hermitian part, and so the bound on |Im lambda|, is c / 2."""
    j = np.arange(n_blocks, dtype=float)
    blocks = np.zeros((n_blocks, 2, 2), dtype=complex)
    blocks[:, 0, 0] = j
    blocks[:, 1, 1] = j + 0.5
    blocks[:, 0, 1] = c
    return scipy.sparse.csr_array(scipy.sparse.block_diag(list(blocks)))


def _counting(monkeypatch, name):
    """The requested counts of each call of scipy.sparse.linalg.<name>."""
    calls = []
    solver = getattr(scipy.sparse.linalg, name)

    def counted(A, k, **kw):
        calls.append(k)
        return solver(A, k, **kw)

    monkeypatch.setattr(scipy.sparse.linalg, name, counted)
    return calls


def test_lowest_modes_margin_grows_until_certified(monkeypatch):
    calls = _counting(monkeypatch, "eigs")
    assert_lowest_modes_match_dense(_upper_blocks(100, 20.0), 8)
    assert len(calls) >= 2 and calls == sorted(calls)


def test_lowest_modes_raises_without_certificate(monkeypatch):
    """|Im lambda| <= 100 is all the certificate knows, and no disk the
    80 x 80 operator's values can fill is that wide."""
    calls = _counting(monkeypatch, "eigs")
    with pytest.raises(linalg.UncertifiedModes, match="no certified"):
        lowest_modes(_upper_blocks(40, 200.0), 8)
    assert calls[-1] == 78   # grew to the largest request eigs accepts


def test_lowest_modes_small_operator_is_dense():
    M = _upper_blocks(4, 1.0)
    assert np.array_equal(lowest_modes(M, 6), lowest(eig(M), 6))


@pytest.mark.parametrize("build", [
    lambda: _oscillator(Grid1D(half_count=100, spacing=0.05)),
    lambda: _upper_blocks(100, 1.0),
    lambda: _upper_blocks(4, 1.0),   # too small for a request: dense eig
], ids=["lanczos", "arnoldi", "dense"])
def test_lowest_modes_reads_the_callers_operator_once(monkeypatch, build):
    """Every route of lowest_modes reads the caller's own operator object,
    not a copy of it, through the one reader eig uses, once a call."""
    read, entries = [], linalg._entries

    def spy(M):
        read.append(M)
        return entries(M)

    monkeypatch.setattr(linalg, "_entries", spy)
    M = build()
    lowest_modes(M, 6)
    assert len(read) == 1 and read[0] is M


def test_lowest_modes_of_integer_entries_as_of_float64():
    """Integer entries are read as float64: the Lanczos route shifts and
    factors the band as it does for the float64 copy, with the same bits."""
    M = scipy.sparse.csr_array(2 * np.eye(200, dtype=int)
                               - np.eye(200, k=1, dtype=int)
                               - np.eye(200, k=-1, dtype=int))
    assert M.dtype.kind == "i"
    assert np.array_equal(lowest_modes(M, 6), lowest_modes(M.astype(float), 6))


@pytest.mark.parametrize("build", [
    lambda: _upper_blocks(300, 1.0),
    lambda: _oscillator(Grid1D(half_count=300, spacing=0.05)),
], ids=["arnoldi", "lanczos"])
def test_lowest_modes_names_its_cap_before_any_solve(monkeypatch, build):
    """Past dense eig's sizes no request of at most MAX_ARNOLDI_MODES values
    certifies that many modes or more, so both routes refuse them first."""
    def no_solve(*args):
        raise AssertionError("a shift-invert request was made")

    monkeypatch.setattr(linalg, "_lanczos_request", no_solve)
    monkeypatch.setattr(linalg, "_arnoldi_request", no_solve)
    k = linalg.MAX_ARNOLDI_MODES
    with pytest.raises(ValueError, match="at most 255 .MAX_ARNOLDI_MODES - 1."):
        lowest_modes(build(), k)
    linalg.require_mode_count(600, k - 1)
    linalg.require_mode_count(k + 5, k)   # solved by dense eig


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lowest_modes_rejects_nonfinite(bad):
    M = _upper_blocks(20, 1.0).tolil()
    M[3, 4] = bad
    with pytest.raises(ValueError):
        lowest_modes(scipy.sparse.csr_array(M), 4)


def _oscillator(grid):
    """-d^2/dx^2 + x^2 on grid: real symmetric tridiagonal."""
    return scipy.sparse.csr_array(grid_operator(grid, "second_derivative")
                                  + scipy.sparse.diags_array(grid.nodes**2))


def test_lowest_modes_hermitian_examples_make_one_lanczos_request(monkeypatch):
    """The verify-all operators are Hermitian and banded: the default
    example's H_g and H at dim 640, and the JC grid build, each take one
    eigsh request and no eigs call."""
    lanczos = _counting(monkeypatch, "eigsh")
    arnoldi = _counting(monkeypatch, "eigs")
    params = verification.SpectrumMatrixParams()
    res = build_and_regauge(*verification.matrix_example(params.gauge_alpha)[1:],
                            params.grid())
    for M in (res.H_g, res.H):
        assert M.shape == (640, 640)
        lowest_modes(M, params.n_low)
        assert (len(lanczos), arnoldi) == (1, [])
        lanczos.clear()
    jc = verification.JcParams()
    _, el, omega = verification._jc_model(jc)
    jaynes.jc_equivalence_check(el, omega, jc.grid(), jc.n_max)
    assert (len(lanczos), arnoldi) == (1, [])


def test_lowest_modes_counts_every_degenerate_copy(monkeypatch):
    """On kron(H_1, I_2) every level is doubly degenerate.  An eigsh that
    drops one copy of the lowest pair makes lowest_modes raise: the inertia
    count below each cut is one more than the values returned.  Before
    Hermitian input had this route it went through eigs, and the Bendixson
    certificate saw nothing when eigs dropped the same copy: the lowest 8
    came back with one level missing."""
    M = scipy.sparse.csr_array(scipy.sparse.kron(
        _oscillator(MATRIX_GRIDS[1]), scipy.sparse.eye_array(2)))
    assert_lowest_modes_match_dense(M, 8)
    eigsh = scipy.sparse.linalg.eigsh

    def dropped(A, k, **kw):
        vals = np.sort(eigsh(A, k, **kw))
        return np.delete(vals, 1)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", dropped)
    with pytest.raises(RuntimeError, match="inertia count"):
        lowest_modes(M, 8)


def test_count_below_gives_none_where_the_factor_cannot_count():
    """_count_below has no count where M - cI is exactly singular (splu
    raises) or where SuperLU permutes rows despite diag_pivot_thresh=0 (a
    zero diagonal pivot): the congruence to diag(U) is lost."""
    D = scipy.sparse.csr_array(np.diag([1.0, 2.0, 3.0]))
    swap = scipy.sparse.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert linalg._count_below(D, 2.0) is None
    assert linalg._count_below(swap, 0.0) is None
    assert (linalg._count_below(D, 2.5), linalg._count_below(swap, 0.5)) == (2, 1)


@pytest.mark.parametrize("coupling", [0.0, 0.7], ids=["real", "complex"])
def test_lowest_modes_hermitian_values_are_real(coupling, monkeypatch):
    """A real and a complex-Hermitian tridiagonal operator (the oscillator
    plus coupling times the momentum stencil) take the Lanczos route:
    exactly real values, equal to lowest(eig(M), k) of the dense band
    driver to 1e-10 (1 + |lambda|)."""
    grid = MATRIX_GRIDS[1]
    M = _oscillator(grid) + coupling * grid_operator(grid, "momentum")
    assert (M != M.conj().T).count_nonzero() == 0
    arnoldi = _counting(monkeypatch, "eigs")
    got = lowest_modes(M, 10)
    assert arnoldi == [] and np.all(got.imag == 0.0)
    want = lowest(eig(M), 10)
    assert np.all(np.abs(got - want) <= 1e-10 * (1 + np.abs(want)))


def test_lowest_modes_wide_band_hermitian_takes_general_route(monkeypatch):
    """Bandwidth kd = 8 at n = 160, so 32 kd >= n: not the band route."""
    grid = MATRIX_GRIDS[1]
    far = scipy.sparse.diags_array([np.full(grid.size - 8, 0.1)], offsets=[8])
    M = scipy.sparse.csr_array(_oscillator(grid) + far + far.T)
    calls = _counting(monkeypatch, "eigs")
    assert_lowest_modes_match_dense(M, 8)
    assert calls


@pytest.mark.parametrize("k", [0, -1])
def test_lowest_modes_rejects_cut_below_one(k):
    M = _oscillator(Grid1D.from_box(8.0, 0.025))   # dim 640
    with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
        lowest_modes(M, k)
