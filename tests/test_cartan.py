import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptgauge import cartan
from ptgauge.cartan import (
    ThetaSignature,
    cartan_split,
    elements_from_draws,
    exp_compact,
    exp_noncompact,
    group_polar,
    GaugeAlgebraElement,
    ParityRelationsReport,
    lts_check,
    make_element,
    membership_residual,
    parity_relations_check,
    random_element,
    structure_check,
)
from ptgauge.linalg import expm, max_abs
from ptgauge.reporting import CheckRecord

SIGS = [(1, 1), (2, 1), (2, 2), (3, 1), (2, 0)]

sig_strategy = st.sampled_from(SIGS)
seed_strategy = st.integers(min_value=0, max_value=10_000)


def _el(sig_pq, seed, scale=1.0):
    sig = ThetaSignature(*sig_pq)
    rng = np.random.default_rng(seed)
    return random_element(sig, rng, scale=scale)


def _wick_residual(a):
    """The residual behind the `cartan/wick_membership` record."""
    return membership_residual(a.matrix, a.sig)


def _wick_reference(a):
    """The Wick rotation's residuals computed directly, the reference for
    membership_residual: f = -i a against su(p,q) and so(m,C), and -i b,
    -i c against the blocks they must avoid; the largest of the six, NaN
    if any is NaN."""
    p, f, comp = a.sig.p, -1j * a.matrix, cartan_split(a)
    fb, fc = -1j * comp.b, -1j * comp.c
    return np.maximum.reduce([
        max_abs(a.sig.mask * f.conj().mT + f), max_abs(f + f.mT),
        max_abs(fb[..., :p, :p]), max_abs(fb[..., p:, p:]),
        max_abs(fc[..., :p, p:]), max_abs(fc[..., p:, :p])])


class TestElements:
    @given(sig_strategy, seed_strategy)
    @settings(max_examples=60)
    def test_membership(self, sig_pq, seed):
        el = _el(sig_pq, seed)
        assert membership_residual(el.matrix, el.sig) <= 1e-12

    def test_symmetric_u_rejected(self):
        sig = ThetaSignature(2, 1)
        with pytest.raises(ValueError):
            make_element(sig, np.ones((2, 2)), np.zeros((2, 1)),
                         np.zeros((1, 1)))

    @pytest.mark.parametrize("bad, value",
                             [("u", np.nan), ("v", np.inf), ("w", -np.inf)])
    def test_nonfinite_input_rejected(self, bad, value):
        parts = {name: np.zeros((2, 2)) for name in "uvw"}
        parts[bad][0, 1] = value
        with pytest.raises(ValueError, match=f"{bad} must be finite"):
            make_element(ThetaSignature(2, 2), **parts)

    @given(sig_strategy, seed_strategy)
    @settings(max_examples=30)
    def test_membership_residual_matches_matrix_products(self, sig_pq, seed):
        """The sign mask gives the Theta X^H Theta of two matrix products,
        bit for bit."""
        sig = ThetaSignature(*sig_pq)
        rng = np.random.default_rng(seed)
        X = (rng.standard_normal((sig.m, sig.m))
             + 1j * rng.standard_normal((sig.m, sig.m)))
        th = np.diag(np.r_[np.ones(sig.p), -np.ones(sig.q)])
        expected = max(np.abs(X + X.T).max(),
                       np.abs(th @ X.conj().T @ th - X).max())
        assert membership_residual(X, sig) == expected

    def test_element_is_its_matrix(self):
        assert [f.name for f in fields(GaugeAlgebraElement)] == \
            ["sig", "matrix"]
        sig = ThetaSignature(3, 2)
        rng = np.random.default_rng(4)
        u, w = (M - M.T for M in (rng.standard_normal((n, n)) for n in (3, 2)))
        v = rng.standard_normal((3, 2))
        el = make_element(sig, u, v, w)
        assert np.array_equal(el.matrix, _block_matrix(u, v, w))
        with pytest.raises(ValueError, match="read-only"):
            el.matrix[...] = 0

    @pytest.mark.parametrize("bad, shape", [("u", (4, 3, 3)), ("v", (2, 3)),
                                            ("v", (6,)), ("v", (4, 3, 2)),
                                            ("w", (4, 2, 2))])
    def test_block_shape_checked(self, bad, shape):
        """One element's blocks only: v is not reshaped, and a stack of
        blocks is rejected (stacks come from draws)."""
        parts = {"u": np.zeros((3, 3)), "v": np.zeros((3, 2)),
                 "w": np.zeros((2, 2))}
        expected = {name: f"{name} must be {M.shape[0]}x{M.shape[1]} real"
                    for name, M in parts.items()}
        parts[bad] = np.zeros(shape)
        with pytest.raises(ValueError, match=expected[bad]):
            make_element(ThetaSignature(3, 2), **parts)

    def test_cached_arrays_read_only(self):
        el = _el((2, 1), 0)
        for a in (el.sig.signs, el.sig.theta, el.sig.mask, el.matrix):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        assert el.matrix is el.matrix

    def test_generic_antisymmetric_complex_not_member(self):
        """Negative control: so(m, C) elements without Theta-Hermiticity."""
        sig = ThetaSignature(2, 1)
        X = np.zeros((3, 3), dtype=complex)
        X[0, 1], X[1, 0] = 1 + 1j, -(1 + 1j)
        assert np.abs(X + X.T).max() == 0.0
        assert membership_residual(X, sig) > 0.5


class TestCartanSplit:
    @given(sig_strategy, seed_strategy)
    @settings(max_examples=60)
    def test_reconstruction(self, sig_pq, seed):
        el = _el(sig_pq, seed)
        comp = cartan_split(el)
        assert np.abs(comp.b + comp.c - el.matrix).max() <= 1e-14

    @given(sig_strategy, seed_strategy)
    @settings(max_examples=40)
    def test_b_antihermitian_c_hermitian(self, sig_pq, seed):
        comp = cartan_split(_el(sig_pq, seed))
        assert np.abs(comp.b + comp.b.conj().T).max() <= 1e-14
        assert np.abs(comp.c - comp.c.conj().T).max() <= 1e-14

    @given(sig_strategy, seed_strategy)
    @settings(max_examples=40)
    def test_wick_rotation_block_placement(self, sig_pq, seed):
        el = _el(sig_pq, seed)
        assert _wick_residual(el) <= 1e-13 * max(1.0, np.abs(el.matrix).max())

    def test_wick_check_fails_on_nan(self):
        sig = ThetaSignature(2, 1)
        a = np.zeros((3, 3), dtype=complex)
        a[:2, 2] = [0.5, np.nan]
        a[2, :2] = -a[:2, 2]
        el = GaugeAlgebraElement(sig, a)
        assert not CheckRecord("cartan/wick_membership", _wick_residual(el),
                               1e-12).passed

    @given(st.sampled_from(SIGS + [(3, 2), (1, 3)]), seed_strategy,
           st.integers(min_value=1, max_value=4),
           st.sampled_from([0.0, 1e-9, 1.0]),
           st.sampled_from([None, np.nan, complex(0.5, np.nan)]))
    @settings(max_examples=80)
    def test_membership_is_the_wick_reference_bit_for_bit(self, sig_pq, seed,
                                                          k, push, bad):
        """On elements pushed off g_Theta, with or without a NaN entry, as
        a stack and one at a time."""
        sig = ThetaSignature(*sig_pq)
        rng = np.random.default_rng(seed)
        shape = (k, sig.m, sig.m)
        X = elements_from_draws(sig, rng.standard_normal((k, sig.n_draws))
                                ).matrix + push * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        if bad is not None:
            X[tuple(rng.integers(0, shape))] = bad
        got = membership_residual(X, sig)
        ref = _wick_reference(GaugeAlgebraElement(sig, X))
        assert np.array_equal(got, ref, equal_nan=True)
        for i in range(k):
            one = membership_residual(X[i], sig)
            assert type(one) is float
            assert np.array_equal(one, _wick_reference(
                GaugeAlgebraElement(sig, X[i])), equal_nan=True)


class TestLts:
    @given(sig_strategy, seed_strategy)
    @settings(max_examples=60)
    def test_ternary_closure(self, sig_pq, seed):
        rng = np.random.default_rng(seed)
        sig = ThetaSignature(*sig_pq)
        a1, a2, a3 = (random_element(sig, rng) for _ in range(3))
        out = lts_check(a1, a2, a3)
        assert out.closure_residual <= 1e-12 * out.scale

    def test_binary_escape_mixed_parts(self):
        """[compact, noncompact] leaves g_Theta whenever it is nonzero."""
        sig = ThetaSignature(2, 1)
        ak = make_element(sig, np.zeros((2, 2)), [[1.0], [0.5]],
                          np.zeros((1, 1)))
        u = np.array([[0.0, 1.0], [-1.0, 0.0]])
        ap = make_element(sig, u, np.zeros((2, 1)), np.zeros((1, 1)))
        out = lts_check(ak, ap, ap)
        assert out.binary_escape > 0.5

    def test_signature_mismatch(self):
        with pytest.raises(ValueError):
            lts_check(_el((2, 1), 0), _el((2, 2), 0), _el((2, 1), 0))

    @pytest.mark.parametrize("pq, d, escaping", [
        ((2, 1), 7, 10), ((2, 2), 12, 40), ((3, 1), 13, 54), ((3, 2), 19, 114),
        ((1, 2), 7, 10), ((3, 0), 9, 24)])
    def test_structure_check_counts(self, pq, d, escaping):
        """Over the d unit elements the closure is exact, every nonzero
        bracket escapes with residual twice its largest entry, and the
        escaping ordered pairs are exact counts out of d^2."""
        sig = ThetaSignature(*pq)
        assert sig.n_draws == d
        out = structure_check(sig)
        assert out.closure_residual == 0.0
        assert out.min_escape_ratio == 2.0
        assert out.escaping_pairs == escaping

    @pytest.mark.parametrize("pq", [(1, 0), (1, 1), (2, 0)])
    def test_structure_check_without_a_nonzero_bracket(self, pq):
        """g_Theta of dimension <= 1 has no nonzero bracket: no pair
        escapes, and the smallest ratio over none is inf."""
        out = structure_check(ThetaSignature(*pq))
        assert out.closure_residual == 0.0
        assert out.min_escape_ratio == np.inf and out.escaping_pairs == 0

    def test_structure_check_batches_equal_one_stack(self, monkeypatch):
        """Batches of a1 of any size give the same bits as one stack."""
        sig = ThetaSignature(3, 2)
        ref = structure_check(sig)
        for batch_bytes in (1, 10**9):
            monkeypatch.setattr(cartan, "BATCH_BYTES", batch_bytes)
            assert structure_check(sig) == ref


class TestExponentials:
    @given(sig_strategy, seed_strategy,
           st.floats(min_value=-5, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_closed_forms_match_expm(self, sig_pq, seed, x):
        el = _el(sig_pq, seed)
        comp = cartan_split(el)
        Uk = exp_compact(comp, el.sig, x)
        Up = exp_noncompact(comp, el.sig, x)
        assert np.abs(Uk - expm(comp.b * x)).max() <= 1e-10
        assert _same(Up, expm(comp.c * x))

    @pytest.mark.parametrize("pq", [(1, 0), (2, 0), (1, 1), (2, 1), (2, 2),
                                    (3, 1), (3, 2)])
    def test_noncompact_factor_is_one_expm(self, pq):
        """exp(c x) is expm of the whole block-diagonal c x, bit for bit,
        and its off-diagonal blocks are exactly zero: for one element at a
        number x, for a stack at one x per element, and for a stack against
        an (11, 1) grid of x.  Exponentiating each block on its own differs
        from the whole-matrix Pade by up to 8e-15 relative."""
        sig = ThetaSignature(*pq)
        p = sig.p
        rng = np.random.default_rng(sum(pq))
        one = cartan_split(random_element(sig, rng))
        stack = cartan_split(elements_from_draws(
            sig, rng.standard_normal((5, sig.n_draws))))
        for comp, x in ((one, 2.3), (stack, rng.uniform(-5, 5, 5)),
                        (stack, np.linspace(-5, 5, 11)[:, None])):
            Up = exp_noncompact(comp, sig, x)
            assert _same(Up, expm(comp.c * np.asarray(x)[..., None, None]))
            assert not Up[..., :p, p:].any() and not Up[..., p:, :p].any()

    @given(sig_strategy, seed_strategy, st.floats(min_value=-3, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_compact_factor_orthogonal(self, sig_pq, seed, x):
        el = _el(sig_pq, seed)
        Uk = exp_compact(cartan_split(el), el.sig, x)
        assert np.abs(Uk.imag).max() == 0.0
        assert np.abs(Uk.T @ Uk - np.eye(el.sig.m)).max() <= 1e-12

    @given(sig_strategy, seed_strategy, st.floats(min_value=-3, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_noncompact_factor_positive(self, sig_pq, seed, x):
        el = _el(sig_pq, seed)
        Up = exp_noncompact(cartan_split(el), el.sig, x)
        assert np.abs(Up - Up.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(Up).min() > 0

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_compact_factor_is_the_identity_at_q_zero(self, p):
        """At q = 0, b = 0, and the general formula (the SVD of the p x 0
        block v) gives I bit for bit, signs of zero included: on one element,
        and on a stack of 4 with a (3, 1) grid of x broadcast against it."""
        sig = ThetaSignature(p, 0)
        one = cartan_split(_el((p, 0), p))
        stack = cartan_split(elements_from_draws(
            sig, np.random.default_rng(p).standard_normal((4, sig.n_draws))))
        x = np.linspace(-5, 5, 3)[:, None]
        for comp, x, lead in ((one, 0.7, ()), (stack, x, (3, 4))):
            Uk = exp_compact(comp, sig, x)
            eye = np.broadcast_to(np.eye(p), lead + (p, p))
            assert Uk.dtype == float and Uk.shape == eye.shape
            assert np.array_equal(Uk.view(np.uint64), eye.view(np.uint64))

    def test_tiny_coupling_uses_series_limit(self):
        sig = ThetaSignature(1, 1)
        el = make_element(sig, np.zeros((1, 1)), [[1e-12]], np.zeros((1, 1)))
        Uk = exp_compact(cartan_split(el), sig, 1.0)
        assert np.abs(Uk - expm(cartan_split(el).b)).max() <= 1e-12


class TestPolar:
    @given(sig_strategy, seed_strategy, st.floats(min_value=-2, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, sig_pq, seed, x):
        el = _el(sig_pq, seed)
        comp = cartan_split(el)
        U = exp_compact(comp, el.sig, x) @ exp_noncompact(comp, el.sig, x)
        fac = group_polar(U, el.sig)
        assert np.abs(fac.U_k @ fac.U_p - U).max() <= 1e-9
        assert max(fac.residuals.values()) <= 1e-8

    def test_ill_conditioned_factors(self):
        """cond(U) = e^12 = 1.6e5.  Factors taken from U^H U (cond 2.6e10)
        miss the 1e-8 bound of cartan/group_polar_structure by 66x."""
        sig = ThetaSignature(2, 1)
        u = 3.0 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        comp = cartan_split(make_element(sig, u, [[0.3], [-0.7]],
                                         np.zeros((1, 1))))
        Uk, Up = exp_compact(comp, sig, 2.0), exp_noncompact(comp, sig, 2.0)
        fac = group_polar(Uk @ Up, sig)
        assert max(fac.residuals.values()) <= 1e-10
        assert np.abs(fac.U_k - Uk).max() <= 1e-10
        assert np.abs(fac.U_p - Up).max() <= 1e-12 * np.abs(Up).max()

    def test_singular_input_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            group_polar(np.zeros((2, 2)), ThetaSignature(1, 1))


class TestParityRelations:
    def test_one_expm_per_check(self, monkeypatch):
        """The factors at x and -x come from one expm call on their stack,
        for one element and for a stack against a grid of x."""
        calls = []
        real = cartan.expm
        monkeypatch.setattr(cartan, "expm",
                            lambda M: calls.append(M.shape) or real(M))
        sig = ThetaSignature(2, 1)
        rng = np.random.default_rng(7)
        parity_relations_check(random_element(sig, rng), 0.8)
        assert calls == [(2, 3, 3)]
        calls.clear()
        stack = elements_from_draws(sig, rng.standard_normal((4, sig.n_draws)))
        parity_relations_check(stack, np.linspace(-2, 2, 5)[:, None])
        assert calls == [(2, 5, 4, 3, 3)]

    def test_max_residual_propagates_nan(self):
        out = ParityRelationsReport(compact_residual=0.0,
                                    noncompact_residual=np.nan,
                                    metric_residual=0.0)
        assert np.isnan(out.max_residual)

    @given(sig_strategy, seed_strategy, st.floats(min_value=-2, max_value=2))
    @settings(max_examples=60, deadline=None)
    def test_relations_hold(self, sig_pq, seed, x):
        out = parity_relations_check(_el(sig_pq, seed), x)
        assert out.max_residual <= 1e-10

    def test_compact_half_exact_by_construction(self, monkeypatch):
        """Theta U_k(-x) Theta = U_k(x) holds bit for bit: cos is even and
        sin odd in IEEE arithmetic, and Theta only negates the off-diagonal
        blocks.  A mutant exp_compact that breaks that symmetry, with
        sin(s|x|) for sin(s x), makes the residual nonzero."""
        rng = np.random.default_rng(11)
        sigs = [ThetaSignature(*pq)
                for pq in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (1, 3)]]
        draws = [(elements_from_draws(
                      sig, rng.standard_normal((200, sig.n_draws))),
                  rng.uniform(-3, 3, 200)) for sig in sigs]
        for el, x in draws:
            assert np.all(parity_relations_check(el, x).compact_residual == 0.0)

        real = cartan.exp_compact
        monkeypatch.setattr(cartan, "exp_compact",
                            lambda comp, sig, x: real(comp, sig, np.abs(x)))
        for el, x in draws:
            assert parity_relations_check(el, x).compact_residual.max() > 0.1

    def test_nonhermitian_noncompact_part_fails(self):
        """Negative control: the metric identity U(x)^H Theta U(-x) = Theta
        needs a Hermitian noncompact generator; i times a real diagonal
        breaks it at O(1)."""
        sig = ThetaSignature(1, 1)
        th = sig.theta
        b = np.array([[0.0, 0.7], [-0.7, 0.0]], dtype=complex)
        c_bad = np.diag([0.3j, 0.0])
        U_pos = expm(b) @ expm(c_bad)
        U_neg = expm(-b) @ expm(-c_bad)
        assert np.abs(U_pos.conj().T @ th @ U_neg - th).max() > 1e-3


def _same(a, b) -> bool:
    """Equal bit for bit: the same dtype, shape and values."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


class TestStacks:
    """A stack of k elements is k per-element calls, bit for bit."""

    @given(st.sampled_from(SIGS + [(3, 2), (1, 3)]), seed_strategy,
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_stack_equals_per_element_calls(self, sig_pq, seed, k):
        sig = ThetaSignature(*sig_pq)
        rng_stack, rng_each = (np.random.default_rng(seed) for _ in range(2))
        stack = elements_from_draws(
            sig, rng_stack.standard_normal((k, 3, sig.n_draws)))
        each = [random_element(sig, rng_each) for _ in range(3 * k)]
        assert rng_stack.bit_generator.state == rng_each.bit_generator.state
        x = np.random.default_rng(seed + 1).uniform(-3, 3, k)

        a1, a2, a3 = stack[:, 0], stack[:, 1], stack[:, 2]
        comp = cartan_split(a1)
        lts = lts_check(a1, a2, a3)
        parity = parity_relations_check(a1, x)
        Uk, Up = exp_compact(comp, sig, x), exp_noncompact(comp, sig, x)
        polar = group_polar(Uk @ Up, sig)
        for i in range(k):
            e1, e2, e3 = each[3 * i:3 * i + 3]
            for j, e in enumerate((e1, e2, e3)):
                assert _same(e.matrix, stack[i, j].matrix)
            c1 = cartan_split(e1)
            assert _same(c1.b, comp.b[i]) and _same(c1.c, comp.c[i])
            assert membership_residual(e1.matrix, sig) == \
                membership_residual(a1.matrix, sig)[i]
            for stacked, single in ((lts, lts_check(e1, e2, e3)),
                                    (parity, parity_relations_check(e1, x[i]))):
                for f, value in vars(single).items():
                    assert type(value) is float and value == vars(stacked)[f][i]
            assert parity.max_residual[i] == \
                parity_relations_check(e1, x[i]).max_residual
            uk, up = exp_compact(c1, sig, x[i]), exp_noncompact(c1, sig, x[i])
            assert _same(uk, Uk[i]) and _same(up, Up[i])
            fac = group_polar(uk @ up, sig)
            assert _same(fac.U_k, polar.U_k[i]) and _same(fac.U_p, polar.U_p[i])
            assert all(r == polar.residuals[f][i]
                       for f, r in fac.residuals.items())

    def test_x_broadcasts_against_the_stack(self):
        """exp_compact at an (n, 1) grid of x over k elements: entry [j, i]
        is element i at x[j]."""
        sig = ThetaSignature(2, 2)
        stack = elements_from_draws(
            sig, np.random.default_rng(3).standard_normal((4, sig.n_draws)))
        comp = cartan_split(stack)
        x = np.linspace(-5, 5, 11)[:, None]
        Uk, Up = exp_compact(comp, sig, x), exp_noncompact(comp, sig, x)
        assert Uk.shape == Up.shape == (11, 4, 4, 4)
        for j, i in np.ndindex(11, 4):
            c = cartan_split(stack[i])
            assert _same(Uk[j, i], exp_compact(c, sig, float(x[j, 0])))
            assert _same(Up[j, i], exp_noncompact(c, sig, float(x[j, 0])))


def _blocks(sig, z):
    """u, v, w cut from one element's draws, u and w antisymmetrized as
    (M - M^T) / 2."""
    p, q = sig.p, sig.q
    U = z[:p * p].reshape(p, p)
    W = z[p * p:p * p + q * q].reshape(q, q)
    return (U - U.T) / 2, z[p * p + q * q:].reshape(p, q), (W - W.T) / 2


def _block_matrix(u, v, w):
    """[[i u, v], [-v^T, i w]], assembled here by np.block."""
    return np.block([[1j * u, v], [-v.T, 1j * w]])


class TestDrawRoute:
    """elements_from_draws scatters the draws into the matrix; it equals
    the block matrix of the same draws, assembled here by np.block, and
    make_element's element of them, slice by slice."""

    @pytest.mark.parametrize("pq", [(1, 0), (2, 0), (1, 1), (2, 1), (3, 2),
                                    (4, 3), (9, 7), (7, 0)])
    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
    @pytest.mark.parametrize("scale", [1.0, 1e-310, 1e300])
    def test_equals_make_element(self, pq, shape, scale):
        sig = ThetaSignature(*pq)
        rng = np.random.default_rng(10 * pq[0] + pq[1])
        z = rng.standard_normal(shape + (sig.n_draws,)) * scale
        el = elements_from_draws(sig, z)
        assert el.matrix.shape == shape + (sig.m, sig.m)
        for i in np.ndindex(shape):
            u, v, w = _blocks(sig, z[i])
            ref = _block_matrix(u, v, w)
            assert np.array_equal(el.matrix[i], ref)
            assert np.array_equal(make_element(sig, u, v, w).matrix, ref)
            assert np.array_equal(el[i].matrix, ref)

    @pytest.mark.filterwarnings("ignore:(overflow|invalid value):RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, 1, 5, 8])   # u diagonal, u, w, v
    def test_nonfinite_draw_rejected(self, value, index):
        sig = ThetaSignature(2, 2)
        z = np.zeros((3, sig.n_draws))
        z[1, index] = value
        with pytest.raises(ValueError, match="must be finite"):
            elements_from_draws(sig, z)
        with pytest.raises(ValueError, match="must be finite"):
            make_element(sig, *_blocks(sig, z[1]))

    @pytest.mark.filterwarnings("ignore:(overflow|invalid value):RuntimeWarning")
    @pytest.mark.parametrize("ij, ji", [(1, 2), (5, 6)])   # in u, in w
    def test_overflowing_pair_rejected(self, ij, ji):
        """z_ij - z_ji overflows though both draws are finite."""
        sig = ThetaSignature(2, 2)
        z = np.zeros(sig.n_draws)
        z[ij], z[ji] = 1e308, -1e308
        with pytest.raises(ValueError, match="must be finite"):
            elements_from_draws(sig, z)
        with pytest.raises(ValueError, match="must be finite"):
            make_element(sig, *_blocks(sig, z))

    def test_matrix_and_blocks_read_only(self):
        sig = ThetaSignature(3, 2)
        el = elements_from_draws(
            sig, np.random.default_rng(0).standard_normal((4, sig.n_draws)))
        for a in (el.matrix, sig.draw_slots, sig.draw_scale):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_one_element_allocates_o_m_squared(self):
        """One element at a fresh (20, 20) signature peaks under 1 MiB: its
        slots, scale and matrix are m x m, and no n_draws x m^2 map is built
        (that one alone took 41 MB)."""
        sig = ThetaSignature(20, 20)
        z = np.random.default_rng(0).standard_normal(sig.n_draws)
        tracemalloc.start()
        try:
            el = elements_from_draws(sig, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert el.matrix.shape == (40, 40)
        assert peak < 2**20


def _parity_by_four_exponentials(a, x):
    """parity_relations_check's residuals with exp_compact and
    exp_noncompact called once each at x and at -x: the oracle that the
    stacked evaluation of x and -x must equal bit for bit."""
    sig = a.sig
    comp = cartan_split(a)
    x = np.asarray(x, dtype=float)
    Uk_p, Uk_m = exp_compact(comp, sig, x), exp_compact(comp, sig, -x)
    Up_p, Up_m = exp_noncompact(comp, sig, x), exp_noncompact(comp, sig, -x)
    scale = max_abs(Up_p) * max_abs(Up_m)
    r_k = max_abs(sig.mask * Uk_m - Uk_p)
    r_p = max_abs(sig.mask * Up_m - np.linalg.inv(Up_p)) / scale
    U_pos, U_neg = Uk_p @ Up_p, Uk_m @ Up_m
    r_eta = max_abs((U_pos.conj().mT * sig.signs) @ U_neg - sig.theta) / scale
    return r_k, r_p, r_eta


@pytest.mark.parametrize("pq", [(2, 1), (3, 2), (2, 0)])
def test_parity_relations_pinned_to_four_exponentials(pq):
    sig = ThetaSignature(*pq)
    rng = np.random.default_rng(5)
    one = random_element(sig, rng)
    stack = elements_from_draws(sig, rng.standard_normal((6, sig.n_draws)))
    for el, x in ((one, 1.3), (one, -0.4), (stack, rng.uniform(-3, 3, 6)),
                  (stack, 0.7), (stack, np.linspace(-2, 2, 3)[:, None])):
        out = parity_relations_check(el, x)
        expected = _parity_by_four_exponentials(el, x)
        got = (out.compact_residual, out.noncompact_residual,
               out.metric_residual)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)
