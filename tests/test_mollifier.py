import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from colwave.mollifier import (
    EpsilonLadder,
    Mollifier,
    ScaleFn,
    phi_antideriv,
    phi_deriv,
    phi_eval,
    phi_moment,
)


@pytest.fixture(params=["polynomial", "bump"])
def moll(request):
    return Mollifier(request.param)


def test_polynomial_normalizer_n2():
    # C_2 = 5!/(2^5 * 2!^2) = 120/128
    assert Mollifier("polynomial", 2).normalization == pytest.approx(15.0 / 16.0, rel=1e-15)


def test_unit_mass(moll):
    xs = np.linspace(-1.0, 1.0, 20001)
    mass = np.trapezoid(phi_eval(moll, xs), xs)
    assert mass == pytest.approx(1.0, abs=2e-8)


def test_support_and_symmetry(moll):
    assert phi_eval(moll, 1.0) == 0.0
    assert phi_eval(moll, -1.2) == 0.0
    xs = np.linspace(-0.97, 0.97, 101)
    assert np.allclose(phi_eval(moll, xs), phi_eval(moll, -xs), rtol=0, atol=1e-15)


def test_monotone_on_left_half(moll):
    xs = np.linspace(-0.999, 0.0, 500)
    d = phi_deriv(moll, xs, 1)
    assert np.all(d >= -1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_derivatives_match_finite_differences(moll, k):
    xs = np.linspace(-0.9, 0.9, 37)
    step = 1e-5
    if k == 1:
        fd = (phi_eval(moll, xs + step) - phi_eval(moll, xs - step)) / (2 * step)
    else:
        fd = (phi_deriv(moll, xs + step, k - 1) - phi_deriv(moll, xs - step, k - 1)) / (2 * step)
    assert np.allclose(phi_deriv(moll, xs, k), fd, rtol=1e-6, atol=1e-4)


def test_antideriv_endpoints(moll):
    assert phi_antideriv(moll, -1.0) == 0.0
    assert phi_antideriv(moll, 1.0) == 1.0
    assert phi_antideriv(moll, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert phi_antideriv(moll, 5.0) == 1.0


def test_antideriv_is_primitive(moll):
    xs = np.linspace(-0.95, 0.95, 41)
    step = 1e-6
    fd = (phi_antideriv(moll, xs + step) - phi_antideriv(moll, xs - step)) / (2 * step)
    # the bump antiderivative is tabulated + interpolated: ~1e-5 derivative accuracy
    tol = 1e-6 if moll.family == "polynomial" else 1e-4
    assert np.allclose(fd, phi_eval(moll, xs), rtol=tol, atol=tol)


@pytest.mark.parametrize("family, n", [("polynomial", 1), ("polynomial", 2), ("polynomial", 3), ("bump", 2)])
def test_moment_vs_quadrature(family, n):
    m = Mollifier(family, n)
    f = lambda y: y * phi_eval(m, y)
    for z in (-1.5, -1.0, -0.999, -0.7, -0.2, 0.0, 0.35, 0.9, 0.9999, 1.0, 2.0):
        # M(1) = 0: integrate over the shorter side, so that no cancellation enters the reference
        lo, hi, sign = (-1.0, z, 1.0) if z <= 0.0 else (min(z, 1.0), 1.0, -1.0)
        ref = sign * quad(f, lo, hi, epsabs=1e-15, epsrel=1e-13)[0]
        assert phi_moment(m, z) == pytest.approx(ref, abs=1e-15)
    zs = np.linspace(-1.2, 1.2, 49)
    assert np.array_equal(phi_moment(m, zs), phi_moment(m, -zs))


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_antideriv_monotone(a, b):
    m = Mollifier()
    lo, hi = min(a, b), max(a, b)
    assert phi_antideriv(m, lo) <= phi_antideriv(m, hi) + 1e-15


def test_max_deriv_order_guard():
    m = Mollifier("polynomial", 2)
    assert m.max_deriv_order == 3
    with pytest.raises(ValueError):
        phi_deriv(m, 0.3, 4)
    assert Mollifier("bump").max_deriv_order == 4


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        Mollifier("sinc")


def test_scales():
    eps = 0.01
    assert ScaleFn("standard")(eps) == eps
    assert ScaleFn("logarithmic")(eps) == pytest.approx(1.0 / abs(np.log(eps)))
    assert ScaleFn("slow_scale", p=4.0)(eps) == pytest.approx(eps**0.25)
    with pytest.raises(ValueError):
        ScaleFn("standard")(-1.0)
    with pytest.raises(ValueError):
        ScaleFn("logarithmic")(1.5)
    with pytest.raises(ValueError):
        ScaleFn("slow_scale", p=0.5)


def test_slow_scale_beats_any_power():
    # eps^(1/p) / eps -> infinity as eps -> 0
    s = ScaleFn("slow_scale", p=4.0)
    eps = np.array([1e-2, 1e-4, 1e-8])
    assert np.all(np.diff(s(eps) / eps) > 0)


def test_ladder():
    lad = EpsilonLadder()
    v = lad.values
    assert len(v) == 10
    assert v[0] == pytest.approx(0.1)
    assert np.allclose(v[1:] / v[:-1], 0.7)
    assert lad.eps_min == pytest.approx(0.1 * 0.7**9)
    with pytest.raises(ValueError):
        EpsilonLadder(eps0=1.5)
    with pytest.raises(ValueError):
        EpsilonLadder(count=2)
