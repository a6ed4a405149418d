import math

import mpmath
import pytest
from scipy.special import gammaln as scipy_gammaln
from scipy.special import polygamma as scipy_polygamma

from randcert.specialfn import log_gamma, polygamma1, stirling_tail


def test_half_integer_identities():
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)


def test_trigamma_identities():
    assert polygamma1(0.5) == pytest.approx(math.pi**2 / 2, rel=1e-13)
    assert polygamma1(1.0) == pytest.approx(math.pi**2 / 6, rel=1e-13)


def test_trigamma_recurrence():
    for x in (0.7, 3.2, 11.5, 400.0):
        assert polygamma1(x) == pytest.approx(polygamma1(x + 1) + 1.0 / x**2, rel=1e-12)


@pytest.mark.parametrize("x", [0.5, 0.9, 1.5, 7.3, 13.0, 100.0, 1e6, 1e9, 1e12])
def test_log_gamma_against_scipy(x):
    assert log_gamma(x) == pytest.approx(float(scipy_gammaln(x)), rel=1e-13)


@pytest.mark.parametrize("z", [0.5, 1.5, 7.3, 12.9, 13.0, 100.0, 1e6, 1e12])
def test_stirling_tail_against_mpmath(z):
    with mpmath.workdps(50):
        main = (z - 0.5) * mpmath.log(z) - z + mpmath.log(2 * mpmath.pi) / 2
        expected = float(mpmath.loggamma(z) - main)
    assert stirling_tail(z) == pytest.approx(expected, rel=1e-11)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.5, 9.9, 10.0, 123.4, 1e6, 1e9])
def test_trigamma_against_scipy(x):
    assert polygamma1(x) == pytest.approx(float(scipy_polygamma(1, x)), rel=1e-12)


def test_domain_errors():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.0)
    with pytest.raises(ValueError):
        polygamma1(0.0)
