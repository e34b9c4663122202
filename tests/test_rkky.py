import math

import numpy as np
import pytest

from tikm import rkky
from tikm.errors import DomainError

from oracles import f3_quad, si_quad


def test_f3_at_pi():
    assert abs(rkky.f3(math.pi) - 1.0 / math.pi**3) <= 1e-15


def test_f3_root_location():
    # the zero sits where tan x = x; bracket it independently by bisection
    lo, hi = 4.4, 4.6
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if math.tan(mid) - mid > 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert abs(rkky.f3(root)) <= 1e-6
    assert abs(root - 4.493409) <= 1e-5


def test_f3_series_branch():
    # frozen from 40-digit evaluation of (sin x - x cos x)/x^4 at x = 0.01
    assert abs(rkky.f3(0.01) - 33.333000001190474) <= 1e-10
    assert abs(rkky.f3(0.01) - (1.0 / 0.03 - 0.01 / 30.0)) <= 2e-9


def test_f3_domain():
    with pytest.raises(DomainError):
        rkky.f3(0.0)
    with pytest.raises(DomainError):
        rkky.f3(-1.0)


def test_f3_matches_quadrature():
    for x in np.logspace(-3, math.log10(50.0), 50):
        ref = f3_quad(float(x))
        val = rkky.f3(float(x))
        if x < 1.0:
            assert abs(val - ref) <= 1e-8 * abs(ref)
        else:
            assert abs(val - ref) <= 1e-10


def test_f3_sign_alternation():
    assert rkky.f3(4.4) > 0.0 > rkky.f3(4.6)
    assert rkky.f3(7.7) < 0.0 < rkky.f3(7.8)


def test_f1_at_zero():
    assert abs(rkky.f1(0.0) - (-math.pi / 8.0)) <= 1e-9


def test_f1_tail():
    assert abs(rkky.f1(1000.0)) < 1e-3


def test_f1_at_pi():
    oracle = -(0.5 * math.pi - si_quad(math.pi)) / 4.0
    assert abs(rkky.f1(math.pi) - oracle) <= 1e-9
    assert abs(rkky.f1(math.pi) - 0.0702851812968924) <= 1e-9


def test_f1_domain():
    with pytest.raises(DomainError):
        rkky.f1(-0.1)


def test_f1_consistency_with_sine_integral():
    # the tail integral plus the quadrature head must assemble pi/2:
    # f1(x) = Si(x)/4 - pi/8, so f1(x) - Si(x)/4 is constant
    for x in (0.5, 1.0, 2.0, 5.0, 10.0):
        assert abs(rkky.f1(x) - 0.25 * si_quad(x) - (-math.pi / 8.0)) <= 1e-8


def test_kondo_temperature_value():
    # sqrt(0.4) * exp(-2.5)
    assert abs(rkky.kondo_temperature(1.0, 0.4) - 0.05191511147666147) <= 1e-15


def test_kondo_temperature_suppression():
    assert rkky.kondo_temperature(1.0, 0.01) < 1e-40


def test_kondo_temperature_linearity_in_bandwidth():
    assert rkky.kondo_temperature(2.0, 0.4) == 2.0 * rkky.kondo_temperature(1.0, 0.4)


def test_kondo_temperature_monotone():
    grid = np.linspace(0.05, 0.95, 19)
    vals = [rkky.kondo_temperature(1.0, float(g)) for g in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_kondo_temperature_domain():
    with pytest.raises(DomainError):
        rkky.kondo_temperature(1.0, 0.0)
    with pytest.raises(DomainError):
        rkky.kondo_temperature(1.0, -0.2)


def _params(dim, distance, kf=0.5, j=0.2):
    return rkky.RkkyParams(
        j=j,
        fermi_energy=1.0,
        fermi_wavevector=kf,
        dos_fermi=1.0,
        bandwidth=1.0,
        dimension=dim,
        distance=distance,
    )


def test_coupling_afm_at_pi():
    # with 2 kf R = pi the 3D range function is 1/pi^3
    res = rkky.coupling(_params(3, math.pi))
    expected = 4.0 * math.pi * 0.2**2 * 1.0 / math.pi**3
    assert abs(res.coupling - expected) <= 1e-15
    assert res.sign_class == "AFM"
    assert res.ratio == res.coupling / res.kondo_temperature


@pytest.mark.parametrize("dim, f", [(3, rkky.f3), (1, rkky.f1)])
def test_coupling_carries_range_function(dim, f):
    res = rkky.coupling(_params(dim, 2.7))
    assert res.x == 2.0 * 0.5 * 2.7
    assert res.f == f(res.x)
    assert res.coupling == 4.0 * math.pi * 0.2**2 * 1.0 * res.f


def test_coupling_sign_flip_with_distance():
    assert rkky.coupling(_params(3, 4.4)).sign_class == "AFM"
    assert rkky.coupling(_params(3, 4.6)).sign_class == "FM"


def test_coupling_one_dimensional_short_distance():
    res = rkky.coupling(_params(1, 1e-6))
    assert res.sign_class == "FM"
    assert res.coupling < 0.0


def test_params_validation():
    with pytest.raises(DomainError):
        _params(2, 1.0)
    with pytest.raises(DomainError):
        _params(3, -1.0)
    with pytest.raises(DomainError):
        _params(3, 1.0, j=2.0)  # g = 2 outside (0, 1)
    with pytest.raises(DomainError):
        rkky.RkkyParams(j=0.2, fermi_energy=0.0, fermi_wavevector=1.0, dos_fermi=1.0, bandwidth=1.0, dimension=3, distance=1.0)


@pytest.mark.parametrize("field", ["j", "fermi_energy", "fermi_wavevector", "dos_fermi", "bandwidth", "distance"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_reject_non_finite(field, value):
    fields = dict(j=0.2, fermi_energy=1.0, fermi_wavevector=0.5, dos_fermi=1.0, bandwidth=1.0, dimension=3, distance=1.0)
    with pytest.raises(DomainError, match="finite"):
        rkky.RkkyParams(**dict(fields, **{field: value}))


@pytest.mark.parametrize(
    "j, fermi_energy, match",
    [
        (0.001, 1.0, "underflows"),  # exp(-1/g) underflows, so T_K = 0
        (0.0014, 1e10, "finite"),  # T_K is subnormal (about 2e-312), so I/T_K overflows
        (0.5, 1e308, "finite"),  # I itself overflows
    ],
)
def test_coupling_rejects_kondo_scale_out_of_float_range(j, fermi_energy, match):
    fields = dict(fermi_wavevector=0.5, dos_fermi=1.0, bandwidth=1.0, dimension=3, distance=0.5)
    with pytest.raises(DomainError, match=match):
        rkky.coupling(rkky.RkkyParams(j=j, fermi_energy=fermi_energy, **fields))
