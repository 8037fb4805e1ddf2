
import numpy as np
import pytest

from whitney_lab.functions import (
    CapabilityError,
    corpus,
    get_function,
    tensor_polynomial_spec,
)


def test_corpus_contract_ids_and_tags():
    by_id = {f.id: f for f in corpus()}
    assert "poly_d1_deg0" in by_id
    ones = by_id["poly_d1_deg0"](np.array([[0.0], [0.37], [1.0]]))
    assert np.all(ones == 1.0)
    assert not by_id["abspow_d1"].is_sobolev
    assert not by_id["abspow_d2"].is_sobolev
    for f in by_id.values():
        if f.is_sobolev:
            assert all(v >= 4 for v in f.r_max)


def test_exp_d2_mixed_derivative_at_origin():
    f = get_function("exp_d2")
    val = f.derivative((2, 1), np.array([[0.0, 0.0]]))
    assert float(val[0]) == pytest.approx(1.0, rel=1e-14)


def test_derivative_of_order_zero_is_the_function():
    for f in corpus():
        x = np.full((3, f.dimension), 0.3)
        assert np.allclose(f.derivative((0,) * f.dimension, x), f(x))


def test_lp_only_entries_refuse_derivatives():
    f = get_function("abspow_d1")
    with pytest.raises(CapabilityError):
        f.derivative((1,), np.array([[0.5]]))


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        get_function("no_such_function")


def test_tensor_polynomial_factory_degrees():
    f = tensor_polynomial_spec("tmp", [[1.0, 2.0], [0.0, 0.0, 3.0]])
    assert f.poly_degrees == (1, 2)
    assert f.in_poly_class((2, 3))
    assert not f.in_poly_class((2, 2))
    x = np.array([[0.5, 2.0]])
    assert float(f(x)[0]) == pytest.approx((1 + 2 * 0.5) * 3 * 4.0)


def _fd4(fn, x, axis, h):
    """Fourth-order central first-derivative stencil along one axis."""
    coeff = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    steps = np.array([-2.0, -1.0, 1.0, 2.0]) * h
    total = np.zeros(x.shape[0])
    for c, s in zip(coeff, steps):
        shifted = x.copy()
        shifted[:, axis] += s
        total += c * fn(shifted)
    return total


@pytest.mark.parametrize("fid", ["exp_d1", "sin_d1", "runge_d1", "poly_d1_deg3"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_analytic_derivatives_match_finite_differences_1d(fid, order):
    f = get_function(fid)
    x = np.linspace(0.12, 0.88, 10).reshape(-1, 1)
    lower = f.derivative_fn((order - 1,))
    got = f.derivative((order,), x)
    fd = _fd4(lower, x, 0, 3e-3)
    scale = np.max(np.abs(got)) + 1.0
    assert np.max(np.abs(fd - got)) / scale < 1e-5


@pytest.mark.parametrize("fid", ["exp_d2", "sinprod_d2", "runge_d2", "poly_d2_deg32"])
def test_analytic_mixed_derivatives_match_finite_differences_2d(fid):
    f = get_function(fid)
    pts = np.stack([np.linspace(0.15, 0.8, 10), np.linspace(0.2, 0.85, 10)], axis=1)
    for k, axis in [((2, 1), 0), ((1, 2), 1), ((2, 2), 0)]:
        below = list(k)
        below[axis] -= 1
        got = f.derivative(k, pts)
        fd = _fd4(f.derivative_fn(tuple(below)), pts, axis, 3e-3)
        scale = np.max(np.abs(got)) + 1.0
        assert np.max(np.abs(fd - got)) / scale < 1e-5
