"""Two-sided one-sample Kolmogorov-Smirnov test against a centred normal.

``ks_normal(x, sd)`` returns the statistic and p-value that
``scipy.stats.kstest(x, "norm", args=(0, sd))`` returns, bit for bit,
without importing ``scipy.stats`` (hundreds of modules and tens of MiB for
one function).  The statistic is D = max(D+, D-) of the sorted sample's
normal CDF values.  The p-value is the exact survival function of D_n,
``kstwo.sf``, by the algorithm of Simard & L'Ecuyer (J. Stat. Softw.
39(11), 2011), whose Durbin-matrix branch is Marsaglia, Tsang & Wang
(J. Stat. Softw. 8(18), 2003); ``_branch`` picks the method.  Every branch
is ported from scipy's ``stats/_ksstats.py`` (BSD-3-Clause) with its
formulas, its operation order and its ``longdouble`` 2^128 rescaling
kept, so no p-value moves in its last bit.  Only ``scipy.special``
(``ndtr``, ``smirnov``) is used, imported when the test first runs.
"""

from __future__ import annotations

import numpy as np

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi**2
_PI_FOUR = np.pi**4
_PI_SIX = np.pi**6

# Stirling series coefficients B_2j / (2j (2j - 1)), j = 8, ..., 1
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def ks_normal(x: np.ndarray, sd: float = 1.0) -> tuple[float, float]:
    """(D, p) of the two-sided KS test of the sample x (N,) against N(0, sd^2)."""
    from scipy.special import ndtr  # deferred: only a study's KS check needs scipy

    n = len(x)
    cdfvals = ndtr(np.sort(x) / sd)
    dplus = (np.arange(1.0, n + 1) / n - cdfvals).max()
    dminus = (cdfvals - np.arange(0.0, n) / n).max()
    d = dplus if dplus > dminus else dminus
    return float(d), _sf(n, d)


def _sf(n: int, x: float) -> float:
    """P(D_n >= x), as ``kstwo.sf(x, n)`` rounds it to a double."""
    if np.isnan(x):
        return np.nan
    return float(_SF[_branch(n, x)](n, x))


def _branch(n: int, x: float) -> str:
    """The method ``kstwo.sf`` uses at (n, x): the support ends, then Simard & L'Ecuyer."""
    if x <= 0.5 / n:
        return "below-support"
    if x >= 1.0:
        return "above-support"
    t = n * x
    if t <= 1.0:
        return "t<=0.5" if t <= 0.5 else "ruben-gambino"
    if t >= n - 1:
        return "ruben-gambino-tail"
    if x >= 0.5:
        return "smirnov-exact"
    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            return "dmtw"
        return "pomeranz" if nxsquared <= 4 else "miller"
    if nxsquared >= 370.0:
        return "zero"
    if nxsquared >= 2.2:
        return "smirnov"
    # scipy's CDF is 1 from n x^2 >= 18 on, which the two tests above exclude
    if n <= 100000 and n * x**1.5 <= 1.4:
        return "dmtw"
    return "pelz-good"


def _clip(p):
    return np.clip(p, 0.0, 1.0)


def _twice_smirnov(n: int, x: float):
    from scipy.special import smirnov

    return _clip(2 * smirnov(n, x))


def _ruben_gambino(n: int, x: float):
    t = n * x
    if n <= 140:
        prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
    else:
        prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
    return _clip(1.0 - prob)


def _log_nfactorial_div_n_pow_n(n: int):
    """log(n! / n^n) by Stirling's series, with n log n removed up front."""
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _dmtw_cdf(n: int, d: float):
    """P(D_n <= d) by the Durbin matrix, as Marsaglia, Tsang & Wang compute it.

    With d = (k - h)/n, the k-th diagonal entry of H^n, H (2k-1, 2k-1),
    times n!/n^n; powers are taken by squaring, rescaled by 2^128.
    """
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])
    intm = np.arange(1, m + 1)
    v = 1.0 - h**intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1 :, i] = w[: m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):  # times n!/n^n
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return _clip(p)


def _pomeranz_j1j2(i: int, n: int, ll: int, ceilf: int, roundf: int) -> tuple[int, int]:
    """The first and last nonzero column of row i of Pomeranz's recursion."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _pomeranz_cdf(n: int, x: float):
    """P(D_n <= x) by Pomeranz's recursion (Comm. ACM 17(12), 1974).

    Each of the 2n + 1 rows convolves the previous one with one of three
    near-Poisson weight vectors; two rows are kept, each only over its
    nonzero stretch, rescaled by 2^128 against underflow.  The answer is
    n! times the last entry.
    """
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)
    g = min(f, 1.0 - f)
    ceilf = 1 if f > 0 else 0
    roundf = 1 if f > 0.5 else 0
    npwrs = 2 * (ll + 1)
    gpower = np.empty(npwrs)  # (g/n)^m/m!
    twogpower = np.empty(npwrs)  # (2g/n)^m/m!
    onem2gpower = np.empty(npwrs)  # ((1-2g)/n)^m/m!

    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g / n, 2 * g / n, (1 - 2 * g) / n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1
    V0s, V1s = 0, 0  # start indices of the two rows

    j1, j2 = _pomeranz_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = twogpower if i % 2 else onem2gpower
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s : k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1
            conv_len = j2 - j1 + 1
            V1[:conv_len] = conv[conv_start : conv_start + conv_len]
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    ans = V1[n - V1s]
    for m in range(1, n + 1):  # times n!
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return _clip(ans)


def _pelz_good_cdf(n: int, x: float):
    """P(D_n <= x) by Pelz & Good (J. R. Stat. Soc. B 38(2), 1976).

    The Li-Chien/Korolyuk expansion K0 + K1/sqrt(n) + K2/n + K3/n^1.5 in
    z = x sqrt(n), each K_i turned by the Jacobi theta functional equation
    into a series that converges fast at small z.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.0417
        return 0.0
    q = np.exp(qlog)

    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Horner in q over the odd integers m = 2k - 1: sum c_i q^(m^2)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the terms of K2 and K3 over all integers k: (pi k)^2 q^(k^2), ...
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks**2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q**ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)


def _sf_of(cdf):
    return lambda n, x: _clip(1.0 - cdf(n, x))


_SF = {
    "below-support": lambda n, x: 1.0,
    "above-support": lambda n, x: 0.0,
    "t<=0.5": lambda n, x: 1.0,
    "ruben-gambino": _ruben_gambino,
    "ruben-gambino-tail": lambda n, x: _clip(2 * (1.0 - x) ** n),
    "smirnov-exact": _twice_smirnov,
    "dmtw": _sf_of(_dmtw_cdf),
    "pomeranz": _sf_of(_pomeranz_cdf),
    "miller": _twice_smirnov,
    "zero": lambda n, x: 0.0,
    "smirnov": _twice_smirnov,
    "pelz-good": _sf_of(_pelz_good_cdf),
}
