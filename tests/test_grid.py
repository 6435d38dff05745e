"""Weighted difference operators, the five-point stencil, and grid I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    div_w_2d,
    grad_matrices,
    grad_w_2d,
    laplacian_matrix,
    laplacian_w,
    read_grid,
    system_matrix,
)
from wtv.errors import ConfigError
from wtv.grid import (
    WeightField,
    div_w,
    grad_w,
    laplacian_inf_norm,
    unit_weights,
    weighted_tv,
    write_grid,
    write_pgm,
)


class TestWeightField:
    def test_rejects_nonpositive(self):
        w = np.ones((4, 4))
        bad = w.copy()
        bad[2, 1] = 0.0
        with pytest.raises(ValueError):
            WeightField(wx=bad, wy=w)
        bad[2, 1] = -0.5
        with pytest.raises(ValueError):
            WeightField(wx=w, wy=bad)

    def test_rejects_nonfinite(self):
        w = np.ones((4, 4))
        bad = w.copy()
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            WeightField(wx=w, wy=bad)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            WeightField(wx=np.ones((4, 4)), wy=np.ones((4, 5)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="wx must be a square 2-D array"):
            WeightField(wx=np.ones((4, 5)), wy=np.ones((4, 5)))

    def test_side_length(self):
        assert unit_weights(7).n == 7


class TestGrad:
    def test_constant_image_zero_gradient(self, random_weights):
        w = random_weights(8)
        gx, gy = grad_w(np.full((8, 8), 3.7), w)
        assert np.all(gx == 0) and np.all(gy == 0)

    def test_hand_evaluated_2x2(self):
        u = np.array([[0.0, 1.0], [0.0, 1.0]])
        gx, gy = grad_w(u, unit_weights(2))
        assert np.array_equal(gx, [[1.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(gy, [[0.0, 0.0], [0.0, 0.0]])

    def test_matches_dense_matrices(self, rng, random_weights):
        w = random_weights(8)
        u = rng.normal(size=(8, 8))
        Gx, Gy = grad_matrices(w)
        gx, gy = grad_w(u, w)
        assert np.allclose(gx.ravel(), Gx @ u.ravel(), atol=1e-13)
        assert np.allclose(gy.ravel(), Gy @ u.ravel(), atol=1e-13)

    def test_boundary_rows_cols_zero(self, rng, random_weights):
        w = random_weights(6)
        gx, gy = grad_w(rng.normal(size=(6, 6)), w)
        assert np.all(gx[:, -1] == 0)
        assert np.all(gy[-1, :] == 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            grad_w(np.zeros((4, 4)), unit_weights(5))


class TestDiv:
    def test_zero_fields_give_zero(self):
        out = div_w(np.zeros((2, 5, 5)), unit_weights(5))
        assert np.all(out == 0)

    def test_adjointness_randomized(self, rng, random_weights):
        # <grad u, (gx, gy)> == <u, div(gx, gy)> for 100 random triples
        w = random_weights(16)
        for _ in range(100):
            u = rng.normal(size=(16, 16))
            gx = rng.normal(size=(16, 16))
            gy = rng.normal(size=(16, 16))
            ax, ay = grad_w(u, w)
            lhs = np.sum(ax * gx) + np.sum(ay * gy)
            rhs = np.sum(u * div_w(np.stack((gx, gy)), w))
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_interior_impulse_two_entries(self):
        # one column of the transposed difference matrix: +1 and -1
        n = 6
        gx = np.zeros((n, n))
        gx[3, 2] = 1.0
        out = div_w(np.stack((gx, np.zeros((n, n)))), unit_weights(n))
        assert out[3, 3] == 1.0
        assert out[3, 2] == -1.0
        out[3, 3] = out[3, 2] = 0.0
        assert np.all(out == 0)


def _signed_zeros(rng, shape):
    # only -0.0 and +0.0: every sum is a zero whose sign depends on the
    # order of the terms, also at the boundaries and row starts, where the
    # flat shifts could flip it
    return np.where(rng.random(shape) < 0.5, -0.0, 0.0)


class TestFlatOperatorsMatch2DFormulas:
    """grad_w and div_w on the flattened image equal the 2-D slice formulas
    of tests/oracles.py byte for byte, signed zeros included, grad_w with
    and without out=.  div_w's shift by 1 adds each row's ignored last
    entry to the next row's first; that entry is -0.0 at the time, so -0.0
    results at row starts stay -0.0 (a +0.0 there would turn them into
    +0.0)."""

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_grad_w_bytes(self, rng, random_weights, n):
        w = random_weights(n)
        for u in (rng.normal(size=(n, n)), _signed_zeros(rng, (n, n))):
            ref = grad_w_2d(u, w).tobytes()
            assert grad_w(u, w).tobytes() == ref
            out = np.full((2, n, n), np.nan)
            assert grad_w(u, w, out=out) is out
            assert out.tobytes() == ref

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_div_w_bytes(self, rng, random_weights, n):
        w = random_weights(n)
        for signed_zeros in (False, True):
            g = np.stack([
                _signed_zeros(rng, (n, n)) if signed_zeros else rng.normal(size=(n, n))
                for _ in range(2)
            ])
            assert div_w(g, w).tobytes() == div_w_2d(g, w).tobytes()

    def test_div_w_keeps_negative_zero_at_row_starts(self):
        # 2-D: ((-wx*0) - wy*0) + wy*(-0.0) = -0.0 at pixel (1, 0)
        n = 3
        g = np.zeros((2, n, n))
        g[1, 0, 0] = -0.0
        out = div_w(g, unit_weights(n))
        assert out.tobytes() == div_w_2d(g, unit_weights(n)).tobytes()
        assert np.signbit(out[1, 0])

    @pytest.mark.parametrize(
        "make_out, field_shape",
        [
            (lambda shape: np.empty(shape[:-1] + (shape[-1] + 1,)), None),  # wrong shape
            (lambda shape: np.empty(shape, np.float32), None),  # wrong dtype
            (lambda shape: np.empty(shape[:-1] + (2 * shape[-1],))[..., ::2], None),  # strided
            (lambda shape: np.asfortranarray(np.empty(shape)), None),  # not C order
            # div_w's field must be stacked (2, n, n) like grad_w's result
            (None, (4, 4)),  # one plane, unstacked
            (None, (3, 4, 4)),  # three planes
            (None, (2, 5, 5)),  # another grid's field
        ],
        ids=["shape", "dtype", "strided", "fortran", "field_2d", "field_3_planes",
             "field_size"],
    )
    def test_bad_out_rejected(self, rng, random_weights, make_out, field_shape):
        # a bad out for grad_w, or a bad field for div_w
        n = 4
        w = random_weights(n)
        if field_shape is None:
            with pytest.raises(ValueError, match="out must be"):
                grad_w(rng.normal(size=(n, n)), w, out=make_out((2, n, n)))
        else:
            with pytest.raises(ValueError, match="field must be stacked"):
                div_w(rng.normal(size=field_shape), w)


class TestLaplacian:
    def test_constant_in_null_space(self, random_weights):
        w = random_weights(9)
        out = laplacian_w(np.full((9, 9), -2.2), w)
        assert np.allclose(out, 0.0, atol=1e-13)

    def test_equals_minus_div_grad(self, rng, random_weights):
        w = random_weights(8)
        u = rng.normal(size=(8, 8))
        direct = laplacian_w(u, w)
        composed = -div_w(grad_w(u, w), w)
        assert np.allclose(direct, composed, rtol=1e-13, atol=1e-14)

    def test_unit_weight_impulse_five_point_pattern(self):
        n = 7
        u = np.zeros((n, n))
        u[3, 3] = 1.0
        out = laplacian_w(u, unit_weights(n))
        assert out[3, 3] == -4.0
        for i, j in ((2, 3), (4, 3), (3, 2), (3, 4)):
            assert out[i, j] == 1.0
        assert np.sum(np.abs(out)) == 8.0

    def test_negative_semidefinite(self, rng, random_weights):
        w = random_weights(12)
        for _ in range(30):
            u = rng.normal(size=(12, 12))
            assert np.sum(u * laplacian_w(u, w)) <= 1e-10

    def test_matches_dense_assembly(self, rng, random_weights):
        w = random_weights(8)
        L = laplacian_matrix(w)
        u = rng.normal(size=(8, 8))
        assert np.allclose(laplacian_w(u, w).ravel(), L @ u.ravel(), atol=1e-12)
        assert np.allclose(L, L.T, atol=1e-14)


class TestLaplacianInfNorm:
    def test_unit_weights_eight(self):
        assert laplacian_inf_norm(unit_weights(5)) == 8.0

    def test_constant_weights_scale_squared(self):
        c = 1.7
        w = WeightField(wx=np.full((6, 6), c), wy=np.full((6, 6), c))
        assert np.isclose(laplacian_inf_norm(w), 8.0 * c * c, rtol=1e-14)

    def test_equals_dense_max_row_sum(self, random_weights):
        w = random_weights(16)
        L = laplacian_matrix(w)
        dense_norm = np.max(np.sum(np.abs(L), axis=1))
        assert np.isclose(laplacian_inf_norm(w), dense_norm, rtol=1e-13)


class TestDense:
    def test_system_matrix_identity_shift(self, random_weights):
        w = random_weights(6)
        A = system_matrix(w, beta=0.5, theta=0.1)
        L = laplacian_matrix(w)
        assert np.allclose(A, np.eye(36) - 0.05 * L, atol=1e-14)

    def test_system_matrix_strictly_diagonally_dominant(self, random_weights):
        # off-diagonal row mass stays strictly below the diagonal for any
        # positive theta because of the +1 identity shift
        w = random_weights(8)
        A = system_matrix(w, beta=0.9, theta=0.05)
        diag = np.abs(np.diag(A))
        off = np.sum(np.abs(A), axis=1) - diag
        assert np.all(off < diag)

    def test_size_gate(self):
        with pytest.raises(ConfigError):
            grad_matrices(unit_weights(33))


class TestWeightedTV:
    def test_constant_zero(self, random_weights):
        assert weighted_tv(np.full((8, 8), 4.0), random_weights(8)) == 0.0

    def test_matches_manual_sum(self, rng, random_weights):
        w = random_weights(10)
        u = rng.normal(size=(10, 10))
        gx, gy = grad_w(u, w)
        manual = np.sum(np.abs(gx)) + np.sum(np.abs(gy))
        assert np.isclose(weighted_tv(u, w), manual, rtol=1e-14)


class TestGridIO:
    def test_real_roundtrip(self, tmp_path, rng):
        arr = rng.normal(size=(12, 12))
        p = tmp_path / "a.grid"
        write_grid(p, arr)
        back = read_grid(p)
        assert back.dtype == np.float64
        assert np.array_equal(back, arr)

    def test_complex_roundtrip(self, tmp_path, rng):
        arr = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        p = tmp_path / "c.grid"
        write_grid(p, arr)
        back = read_grid(p)
        assert back.dtype == np.complex128
        assert np.array_equal(back, arr)

    def test_header_layout(self, tmp_path):
        p = tmp_path / "h.grid"
        write_grid(p, np.zeros((4, 4)))
        raw = p.read_bytes()
        assert raw[:8] == b"WTVGRID1"
        assert int.from_bytes(raw[8:12], "little") == 4
        assert raw[12] == 0
        assert len(raw) == 13 + 4 * 4 * 8

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.grid"
        p.write_bytes(b"NOTAGRID" + bytes(16))
        with pytest.raises(ConfigError):
            read_grid(p)

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "t.grid"
        write_grid(p, np.zeros((4, 4)))
        whole = p.read_bytes()
        # inside the payload, then inside the 5-byte size and kind header
        for end in (len(whole) - 8, 10):
            p.write_bytes(whole[:end])
            with pytest.raises(ConfigError):
                read_grid(p)


class TestPGM:
    def test_header_and_size(self, tmp_path):
        p = tmp_path / "i.pgm"
        write_pgm(p, np.linspace(0, 1, 16).reshape(4, 4))
        raw = p.read_bytes()
        header = b"P5\n4 4\n65535\n"
        assert raw.startswith(header)
        assert len(raw) == len(header) + 4 * 4 * 2

    def test_full_scale_big_endian(self, tmp_path):
        p = tmp_path / "s.pgm"
        img = np.array([[0.0, 1.0], [0.5, 2.0]])
        write_pgm(p, img)  # clips at hi=1
        payload = p.read_bytes().split(b"65535\n", 1)[1]
        vals = np.frombuffer(payload, dtype=">u2").reshape(2, 2)
        assert vals[0, 0] == 0
        assert vals[0, 1] == 65535
        assert vals[1, 1] == 65535
        assert vals[1, 0] == round(0.5 * 65535)


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_adjointness_property(n, seed):
    rng = np.random.default_rng(seed)
    w = WeightField(
        wx=rng.uniform(0.1, 3.0, size=(n, n)), wy=rng.uniform(0.1, 3.0, size=(n, n))
    )
    u = rng.normal(size=(n, n))
    gx = rng.normal(size=(n, n))
    gy = rng.normal(size=(n, n))
    ax, ay = grad_w(u, w)
    lhs = np.sum(ax * gx) + np.sum(ay * gy)
    rhs = np.sum(u * div_w(np.stack((gx, gy)), w))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)
