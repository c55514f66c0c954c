import mpmath
import numpy as np

from signoise import quadrature

from helpers import curved_model


def _curved_oracle(a, b, lo, hi):
    """Rate and gradient integrals of ``curved_model`` over [lo, hi] at 30 digits."""
    with mpmath.workdps(30):
        a, b, lo, hi = (mpmath.mpf(float(x)) for x in (a, b, lo, hi))
        sin_gap = mpmath.sin(hi) - mpmath.sin(lo)
        s2 = mpmath.exp(b) * (2 * (hi - lo) + mpmath.cos(lo) - mpmath.cos(hi))
        return [float(mpmath.sin(a) * sin_gap), float(mpmath.cos(a) * sin_gap)], [
            float(s2),
            float(s2),
        ]


def test_integrate_matches_mpmath_oracle():
    model, _, theta = curved_model()
    alpha, beta = theta.alpha, theta.beta
    starts = np.repeat([0.3, 1e4], 3)
    ends = starts + np.tile([1e-6, 0.37, 5.0], 2)

    got_drift = quadrature.integrate(lambda ts: model.signal.rates(alpha, ts), starts, ends)
    got_var = quadrature.integrate(lambda ts: model.noise.rates(beta, ts), starts, ends)
    for i, (lo, hi) in enumerate(zip(starts, ends)):
        want_drift, want_var = _curved_oracle(alpha[0], beta[0], lo, hi)
        for got, want in ((got_drift[i], want_drift), (got_var[i], want_var)):
            want = np.asarray(want)
            assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want) + 1e-14), (lo, hi, got, want)
