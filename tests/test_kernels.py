import numpy as np
import pytest
from scipy.spatial import cKDTree

from pmm.forward import edge_points_2d, interior_grid_2d
from pmm.kernels import (
    IDENTITY,
    EmptyDesign,
    Matern72Kernel,
    OperatorTag,
    SqExpKernel,
    UnsupportedOperatorPair,
    fill_distance,
    gram,
    op_gram,
    unit_interval_probe,
    unit_square_probe,
    _sqexp_gram,
)
from pmm.linalg import chol_jitter
from pmm.problems import Poisson1D
from reference import default_fd_step, fd_check, sqexp_gram_three_term

ID = OperatorTag.identity()
NL = OperatorTag(1.0, 0.0)
BT = OperatorTag.boundary_trace()
TAGS = [ID, NL, OperatorTag(0.7, -2.0), OperatorTag(0.04, -25.0)]


def entry(left, right, k, x, y) -> float:
    """``(left_x right_y k)(x, y)`` at one pair of points."""
    return float(op_gram(left, right, k, x, y)[0, 0])


class TestKernelEval:
    def test_zero_distance(self):
        assert entry(ID, ID, SqExpKernel(0.3), 0.4, 0.4) == 1.0

    def test_plug_in(self):
        # |x - y| = sqrt(2), l = 1  ->  exp(-1)
        val = entry(ID, ID, SqExpKernel(1.0), 0.0, np.sqrt(2.0))
        assert val == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_symmetry_random_pairs(self):
        rng = np.random.default_rng(0)
        k1 = SqExpKernel(0.7, dim=1)
        k2 = SqExpKernel(0.7, dim=2)
        for _ in range(100):
            x, y = rng.uniform(0, 1, 2)
            assert entry(ID, ID, k1, x, y) == entry(ID, ID, k1, y, x)
            p, q = rng.uniform(0, 1, (2, 2))
            assert entry(ID, ID, k2, p, q) == entry(ID, ID, k2, q, p)

    def test_validation(self):
        for kernel in (SqExpKernel, Matern72Kernel):
            with pytest.raises(ValueError):
                kernel(0.0)
            with pytest.raises(ValueError):
                kernel(1.0, dim=3)


class TestOperatorTag:
    def test_boundary_trace_is_identity(self):
        k = SqExpKernel(0.5)
        assert entry(BT, ID, k, 0.2, 0.7) == entry(ID, ID, k, 0.2, 0.7)

    def test_invalid_boundary_tag(self):
        with pytest.raises(ValueError):
            OperatorTag(1.0, 0.0, boundary=True)


class TestOpKernelEval:
    def test_identity_pair_matches_kernel(self):
        k = SqExpKernel(0.4)
        want = np.exp(-0.5 * (0.9 - 0.1) ** 2 / 0.4**2)
        assert entry(ID, ID, k, 0.1, 0.9) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("ell", [0.3, 1.0, 1.7])
    def test_coincident_anchors(self, ell):
        # symbolic values at x = y in 1D: 1/l^2 and 3/l^4
        k = SqExpKernel(ell)
        assert entry(NL, ID, k, 0.5, 0.5) == pytest.approx(1 / ell**2, rel=1e-10)
        assert entry(NL, NL, k, 0.5, 0.5) == pytest.approx(3 / ell**4, rel=1e-10)

    def test_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        x1, y1, x2, y2 = sympy.symbols("x1 y1 x2 y2")
        ell = 0.61
        expr1 = sympy.exp(-((x1 - y1) ** 2) / (2 * ell**2))
        expr2 = sympy.exp(-(((x1 - y1) ** 2 + (x2 - y2) ** 2)) / (2 * ell**2))

        def apply_tag(expr, tag, args):
            lap = sum(sympy.diff(expr, v, 2) for v in args)
            return tag.a * (-lap) + tag.c * expr

        rng = np.random.default_rng(1)
        for left in TAGS:
            for right in TAGS:
                ref1 = apply_tag(apply_tag(expr1, right, [y1]), left, [x1])
                ref2 = apply_tag(apply_tag(expr2, right, [y1, y2]), left, [x1, x2])
                xa, ya = rng.uniform(0, 1, 2)
                got = entry(left, right, SqExpKernel(ell, 1), xa, ya)
                want = float(ref1.subs({x1: xa, y1: ya}))
                assert got == pytest.approx(want, rel=1e-11, abs=1e-13)
                p = rng.uniform(0, 1, 2)
                q = rng.uniform(0, 1, 2)
                got = entry(left, right, SqExpKernel(ell, 2), p, q)
                want = float(ref2.subs({x1: p[0], x2: p[1], y1: q[0], y2: q[1]}))
                assert got == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_adjoint_block_symmetry(self):
        rng = np.random.default_rng(2)
        for dim in (1, 2):
            k = SqExpKernel(0.45, dim)
            for left in TAGS:
                for right in TAGS:
                    x = rng.uniform(0, 1, dim)
                    y = rng.uniform(0, 1, dim)
                    assert entry(left, right, k, x, y) == entry(
                        right, left, k, y, x
                    )

    def test_unsupported_kernel(self):
        with pytest.raises(UnsupportedOperatorPair):
            op_gram(ID, ID, object(), [[0.5]], [[0.5]])


class TestFdCheck:
    def test_neg_laplacian_identity(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2):
            k = SqExpKernel(1.0, dim)
            x, y = rng.uniform(0, 1, (2, dim))
            assert fd_check(NL, ID, k, x, y, 1e-4) < 1e-5

    def test_bilaplacian_2d(self):
        k = SqExpKernel(0.8, dim=2)
        err = fd_check(NL, NL, k, [0.3, 0.4], [0.6, 0.2], default_fd_step(NL, NL, k))
        assert err < 1e-4

    def test_identity_pair_is_exact(self):
        k = SqExpKernel(0.5)
        assert fd_check(ID, ID, k, 0.2, 0.8, 1e-4) == 0.0

    def test_200_random_cases(self):
        # module-level property: closed forms vs finite differences
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(200):
            ell = rng.uniform(0.1, 2.0)
            dim = int(rng.integers(1, 3))
            k = SqExpKernel(ell, dim)
            left = TAGS[rng.integers(0, len(TAGS))]
            right = TAGS[rng.integers(0, len(TAGS))]
            x, y = rng.uniform(0, 1, (2, dim))
            worst = max(worst, fd_check(left, right, k, x, y, default_fd_step(left, right, k)))
        assert worst < 1e-4

    def test_200_random_cases_matern72(self):
        # the same property for the Matern-7/2 closed forms
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(200):
            ell = rng.uniform(0.1, 2.0)
            dim = int(rng.integers(1, 3))
            k = Matern72Kernel(ell, dim)
            left = TAGS[rng.integers(0, len(TAGS))]
            right = TAGS[rng.integers(0, len(TAGS))]
            x, y = rng.uniform(0, 1, (2, dim))
            worst = max(worst, fd_check(left, right, k, x, y, default_fd_step(left, right, k)))
        assert worst < 1e-4

    def test_step_window_enforced(self):
        k = SqExpKernel(1.0)
        with pytest.raises(ValueError):
            fd_check(NL, ID, k, 0.2, 0.8, 1e-2)


class TestGramPsd:
    def test_mixed_tag_gram_factorizes(self):
        rng = np.random.default_rng(5)
        for dim in (1, 2):
            k = SqExpKernel(0.1, dim)
            pts = rng.uniform(0.02, 0.98, (20, dim))
            tags = [TAGS[i] for i in rng.integers(0, len(TAGS), 20)]
            gram = np.empty((20, 20))
            for i in range(20):
                for j in range(20):
                    gram[i, j] = entry(tags[i], tags[j], k, pts[i], pts[j])
            f = chol_jitter(gram)
            assert f.jitter_used <= 1e-6 * np.mean(np.diag(gram))


class TestPolynomialForm:
    """``_sqexp_gram``'s one polynomial in ``r2`` against the sum of its
    three bilinear terms, for scalar and per-row (a, c) on either side."""

    SCALAR = [IDENTITY, (1.0, 0.0), (0.7, -2.0), (0.04, -25.0), (0.0406, -24.6)]

    @pytest.mark.parametrize("ell", [0.05, 0.1, 0.2, 0.3])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_within_8_ulp_of_three_term_form(self, dim, ell):
        rng = np.random.default_rng(int(100 * ell) + dim)
        x, y = rng.uniform(0.0, 1.0, (20, dim)), rng.uniform(0.0, 1.0, (15, dim))
        r2 = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=-1)

        def per_row(n):
            picks = [self.SCALAR[i] for i in rng.integers(0, len(self.SCALAR), n)]
            return tuple(np.array([p[k] for p in picks]) for k in (0, 1))

        for left in self.SCALAR + [per_row(20)]:
            for right in self.SCALAR + [per_row(15)]:
                want = sqexp_gram_three_term(r2, left, right, ell, dim)
                got = _sqexp_gram(r2, left, right, ell, dim)
                assert got.shape == want.shape == (20, 15)
                gap = np.max(np.abs(got - want))
                assert gap <= 8 * np.spacing(np.max(np.abs(want))), (left, right, gap)


class TestFillDistance:
    def test_single_centered_point(self):
        h = fill_distance(np.array([[0.5]]), unit_interval_probe())
        assert h == pytest.approx(0.5, abs=1e-4)

    def test_design_equals_probe(self):
        probe = unit_interval_probe(101)
        assert fill_distance(probe, probe) == 0.0

    def test_uniform_grid_half_spacing(self):
        # m points with spacing s, endpoints included -> h = s/2; a flat
        # design works too, and a flat pair is two 1D points, not one 2D point
        for m in (2, 5, 9):
            grid = np.linspace(0.0, 1.0, m)
            s = 1.0 / (m - 1)
            for pts in (grid[:, None], grid):
                h = fill_distance(pts, unit_interval_probe())
                assert h == pytest.approx(s / 2, abs=2e-4)

    def test_2d_probe(self):
        h = fill_distance(np.array([[0.5, 0.5]]), unit_square_probe())
        assert h == pytest.approx(np.sqrt(0.5), abs=5e-3)

    def test_empty_design(self):
        with pytest.raises(EmptyDesign):
            fill_distance(np.empty((0, 1)), unit_interval_probe())

    def test_matches_kd_tree_query(self):
        # the brute-force minimum equals scipy's nearest-neighbour query bit
        # for bit, on every design of the converge experiment and on 2D designs
        cases = [
            (np.vstack([b.points for b in Poisson1D().blocks(m, design)]), unit_interval_probe())
            for m in (5, 10, 20, 40, 80) for design in ("uniform", "nested")
        ]
        rng = np.random.default_rng(7)
        cases += [(pts, unit_square_probe()) for pts in (
            np.vstack([interior_grid_2d(5), edge_points_2d(5)]), rng.uniform(0, 1, (30, 2)))]
        for design, probe in cases:
            want = float(np.max(cKDTree(design).query(probe)[0]))
            assert fill_distance(design, probe) == want


class TestMatern72Kernel:
    @pytest.mark.parametrize("ell", [0.2, 1.0, 1.7])
    def test_coincident_anchors(self, ell):
        # at r = 0: (-lap) k = 7 d / (5 l^2), (-lap)(-lap) k = 49 d (d+2) / (15 l^4)
        for dim in (1, 2):
            k = Matern72Kernel(ell, dim)
            x = np.full(dim, 0.4)
            want1 = 7.0 * dim / (5.0 * ell**2)
            want2 = 49.0 * dim * (dim + 2) / (15.0 * ell**4)
            assert entry(NL, ID, k, x, x) == pytest.approx(want1, rel=1e-10)
            assert entry(NL, NL, k, x, x) == pytest.approx(want2, rel=1e-10)

    def test_symmetric_and_psd(self):
        # mixed operator rows on 20 random points: an exactly symmetric Gram
        # that factors without jitter
        rng = np.random.default_rng(6)
        for dim in (1, 2):
            pts = rng.uniform(0.02, 0.98, (20, dim))
            tags = [TAGS[i] for i in rng.integers(0, len(TAGS), 20)]
            coeffs = (np.array([t.a for t in tags]), np.array([t.c for t in tags]))
            g = gram(Matern72Kernel(0.2, dim), pts, coeffs)
            np.testing.assert_array_equal(g, g.T)
            assert chol_jitter(g).jitter_used == 0.0
