import math

import numpy as np
import pytest
from scipy.special import erfc
from scipy.stats import ks_2samp

from helpers import disc_sample_w, float_series, mp_oracle
from macgeo.aloha import (MAX_TRIALS, AlohaResult, SeriesParams, aloha_prob,
                          aloha_prob_exponential, curve, laplace_transform_w,
                          mc_aloha_prob, optimize_range, prob_w_below,
                          sample_w)
from macgeo.cli import RunConfig, run
from macgeo.errors import UnsupportedFadingError
from macgeo.propagation import ChannelModel

P144 = SeriesParams(1.0, 1.0, 4.0)


def levy_cdf(x, lam=1.0):
    """Exact Pr(W < x) at alpha = 4: the stable-1/2 (Levy) CDF."""
    return erfc(math.pi ** 1.5 * lam / (2.0 * math.sqrt(x)))


def test_series_matches_levy_closed_form():
    # x = 0.2 sits in the deep lower tail (p ~ 1.3e-18).
    for x in (0.2, 0.7, 1.0, 2.0, 5.0, 20.0, 200.0, 1e4, 1e8):
        err = abs(prob_w_below(x, P144) - levy_cdf(x))
        assert err <= 1e-9 and err <= 1e-6 * levy_cdf(x)


def test_aloha_prob_matches_levy_grid():
    """alpha = 4 without fading: p = erfc(pi^1.5 sqrt(beta) r^2 / 2) over
    the whole r range, lower tail included."""
    rs = np.linspace(0.02, 5.0, 250)
    for beta in (0.1, 1.0, 10.0, 100.0):
        got = aloha_prob(rs, SeriesParams(1.0, beta, 4.0))
        want = erfc(math.pi ** 1.5 * math.sqrt(beta) * rs ** 2 / 2.0)
        err = np.abs(got - want)
        assert err.max() < 1e-10
        live = want > 1e-300
        assert np.all(err[live] <= 1e-6 * want[live])


def test_deep_lower_tail_matches_mpmath():
    # p ~ 5.8e-39 in the deep lower tail, where the alternating series
    # cancels down to garbage.
    got = aloha_prob(2.0, SeriesParams(1.0, 10.0, 6.0))
    want = mp_oracle(2.0 ** -6 / 10.0, 1.0, 6.0)
    assert want is not None and want < 1e-38
    assert got == pytest.approx(want, rel=1e-6, abs=0.0)


def test_agrees_with_series_and_mpmath_oracles():
    """mpmath to 1e-10 wherever it returns a value; the float series, whose
    own error reaches ~1e-7 under fading, to 1e-6 wherever it converges."""
    for alpha in (3.0, 6.0):
        for fading in ("none", "log_uniform"):
            for beta in (0.1, 1.0, 10.0, 100.0):
                for r in (0.1, 0.2, 0.3, 0.5, 1.0):
                    x = r ** -alpha / beta
                    cell = (alpha, fading, beta, r)
                    got = aloha_prob(r, SeriesParams(1.0, beta, alpha),
                                     fading, 1.0)
                    want = mp_oracle(x, 1.0, alpha, fading, 1.0)
                    if want is not None:
                        assert abs(got - want) < 1e-10, cell
                    want = float_series(x, 1.0, alpha, fading, 1.0)
                    if want is not None:
                        assert abs(got - want) < 1e-6, cell


def test_series_limits():
    assert prob_w_below(1e12, P144) == pytest.approx(1.0, abs=1e-5)
    dilute = SeriesParams(1e-8, 1.0, 4.0)
    assert prob_w_below(3.0, dilute) == pytest.approx(1.0, abs=1e-6)
    assert aloha_prob(1e-3, P144) == pytest.approx(1.0, abs=1e-5)


def test_series_monotone_in_x():
    xs = np.geomspace(0.8, 1e6, 40)
    ps = [prob_w_below(float(x), P144) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(ps, ps[1:]))
    assert all(0.0 <= p <= 1.0 for p in ps)


def test_aloha_prob_monotone_in_r_and_beta():
    for beta in (0.1, 1.0, 10.0, 100.0):
        params = SeriesParams(1.0, beta, 4.0)
        ps = aloha_prob(np.linspace(0.05, 1.0, 12), params)
        assert np.all(np.diff(ps) <= 1e-12)
    for r in (0.1, 0.3, 0.5):
        ps = [aloha_prob(r, SeriesParams(1.0, beta, 4.0))
              for beta in (0.1, 1.0, 10.0, 100.0)]
        assert all(b <= a + 1e-12 for a, b in zip(ps, ps[1:]))


def test_fading_series_crosses_once_above_at_large_r():
    diffs = []
    for r in np.linspace(0.1, 0.9, 33):
        pn = aloha_prob(float(r), P144)
        pf = aloha_prob(float(r), P144, "log_uniform", 1.0)
        diffs.append(pf - pn)
    signs = np.sign(diffs)
    changes = np.nonzero(np.diff(signs))[0]
    assert len(changes) == 1
    assert signs[0] < 0 and signs[-1] > 0  # fading above at large r


def test_exponential_fading_rejected_by_series():
    with pytest.raises(UnsupportedFadingError):
        aloha_prob(0.3, P144, "exponential")
    # Past a fade shift of 10 in log z the fixed fading rule loses accuracy.
    with pytest.raises(UnsupportedFadingError):
        aloha_prob(0.3, P144, "log_uniform", 10.5)


def test_laplace_transform():
    assert laplace_transform_w(0.0, 1.0, 4.0) == 1.0
    assert laplace_transform_w(1.0, 1.0, 4.0) == pytest.approx(
        math.exp(-math.pi ** 1.5))
    # Monte Carlo check of E[exp(-theta W)].
    rng = np.random.default_rng(123)
    w = sample_w(1.0, 3.0, 200_000, rng)
    for theta in (0.5, 1.0, 3.0):
        emp = np.exp(-theta * w)
        se = emp.std() / math.sqrt(len(emp))
        assert abs(emp.mean() - laplace_transform_w(theta, 1.0, 3.0)) < 3 * se


def test_laplace_transform_with_fading():
    rng = np.random.default_rng(99)
    w = sample_w(1.0, 4.0, 200_000, rng, fading="log_uniform", spread=1.0)
    got = np.exp(-2.0 * w)
    se = got.std() / math.sqrt(len(got))
    want = laplace_transform_w(2.0, 1.0, 4.0, "log_uniform", 1.0)
    assert abs(got.mean() - want) < 3 * se


def test_mc_matches_series():
    p_mc, se = mc_aloha_prob(0.3, 1.0, ChannelModel(4.0, 1.0), 200_000, seed=42)
    p_s = aloha_prob(0.3, P144)
    assert abs(p_mc - p_s) < 3 * se
    # Same draw at the spec's example threshold x = 0.3^-4.
    p2 = prob_w_below(0.3 ** -4, P144)
    assert abs(p_mc - p2) < 3 * se


def test_mc_beta_zero_always_succeeds():
    p, se = mc_aloha_prob(0.5, 1.0, ChannelModel(4.0, 0.0), 1000, seed=1)
    assert p == 1.0 and se == 0.0


def test_mc_log_uniform_fading():
    model = ChannelModel(4.0, 1.0, fading="log_uniform", spread=1.0)
    p_mc, se = mc_aloha_prob(0.4, 1.0, model, 200_000, seed=5)
    p_s = aloha_prob(0.4, P144, "log_uniform", 1.0)
    assert abs(p_mc - p_s) < 3 * se


def test_mc_exponential_closed_form():
    model = ChannelModel(4.0, 1.0, fading="exponential")
    p_mc, se = mc_aloha_prob(0.3, 1.0, model, 200_000, seed=7)
    p_cf = aloha_prob_exponential(0.3, 1.0, 1.0, 4.0)
    assert abs(p_mc - p_cf) < 3 * se


def test_mc_validation():
    model = ChannelModel(4.0, 1.0)
    for lam, trials in ((1.0, 10), (1.0, MAX_TRIALS + 1), (0.0, 1000),
                        (math.nan, 1000), (math.inf, 1000)):
        with pytest.raises(ValueError):
            mc_aloha_prob(0.3, lam, model, trials, seed=0)


def test_sample_w_deterministic():
    a = sample_w(1.0, 4.0, 1000, 42)
    b = sample_w(1.0, 4.0, 1000, 42)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("lam, alpha, trials", [
    (1.0, 1.5, 5),
    (1.0, 2.0, 5),
    (1.0, math.inf, 5),
    (0.0, 4.0, 5),
    (-1.0, 4.0, 5),
    (math.nan, 4.0, 5),
    (math.inf, 4.0, 5),
    (1.0, 4.0, 0),
    (1.0, 4.0, MAX_TRIALS + 1),
])
def test_sample_w_rejects_bad_arguments(lam, alpha, trials):
    with pytest.raises(ValueError):
        sample_w(lam, alpha, trials, 0)


@pytest.mark.parametrize("alpha", [2.5, 8.0])
@pytest.mark.parametrize("fading", ["none", "log_uniform"])
def test_sample_w_matches_disc_reference(alpha, fading):
    # Two-sample Kolmogorov-Smirnov distance between the ordered-arrival
    # sampler and the independent Poisson-disc sampler, at fixed seeds,
    # against its 99.9% critical value.
    n = 40_000
    a = sample_w(1.0, alpha, n, 11, fading=fading)
    b = disc_sample_w(1.0, alpha, n, 12, fading=fading)
    d = ks_2samp(a, b).statistic
    assert d < math.sqrt(-0.5 * math.log(0.0005)) * math.sqrt(2.0 / n)


def test_optimizer_beta10():
    res = optimize_range(SeriesParams(1.0, 10.0, 4.0))
    assert isinstance(res, AlohaResult)
    # Independent dense-scan oracle on the Levy closed form.
    rs = np.linspace(1e-3, 1.0, 20000)
    f = rs * erfc(math.pi ** 1.5 * math.sqrt(10.0) * rs ** 2 / 2.0)
    k = int(np.argmax(f))
    assert res.r == pytest.approx(rs[k], abs=2e-4)
    assert res.rp == pytest.approx(f[k], rel=1e-6)
    assert res.inv_rp == pytest.approx(1.0 / f[k], rel=1e-6)


def test_optimizer_homothety():
    # sqrt(lam) r* must not drift with lam, however far lam is from 1.
    r1 = [math.sqrt(lam) * optimize_range(SeriesParams(lam, 10.0, 4.0)).r
          for lam in (0.25, 1.0, 4.0, 1e4, 1e8, 1e10)]
    assert max(r1) - min(r1) <= 1e-9 * r1[0]
    assert r1[0] == pytest.approx(0.19053, abs=1e-4)


def test_optimizer_fading_penalty():
    base = optimize_range(SeriesParams(1.0, 10.0, 4.0))
    fad = optimize_range(SeriesParams(1.0, 10.0, 4.0), "log_uniform", 1.0)
    penalty = 1.0 - fad.r / base.r
    assert 0.01 < penalty < 0.05


def test_curve_rows_and_csv(tmp_path):
    rows = curve(P144, [0.1, 0.5, 3.0])
    assert len(rows) == 3
    for r, p, rp in rows:
        assert p == pytest.approx(levy_cdf(r ** -4.0), rel=1e-6, abs=0.0)
        assert rp == r * p
    out = tmp_path / "c.csv"
    run(RunConfig("aloha-curve", {"lam": 1.0, "beta": 1.0, "alpha": 4.0,
                                  "rmin": 0.1, "rmax": 3.0, "n": 3,
                                  "fading": "none", "spread": 1.0},
                  0, str(out)))
    lines = out.read_text().splitlines()
    assert lines[0] == "r,p,rp,method"
    assert len(lines) == 4
    assert all(line.endswith(",none") for line in lines[1:])


def test_series_params_validation():
    with pytest.raises(ValueError):
        SeriesParams(0.0, 1.0, 4.0)
    with pytest.raises(ValueError):
        SeriesParams(1.0, -1.0, 4.0)
    with pytest.raises(ValueError):
        SeriesParams(1.0, 1.0, 2.0)
    assert SeriesParams(1.0, 1.0, 4.0).gamma == pytest.approx(0.5)
    assert P144.series_constant() == pytest.approx(math.pi ** 1.5)
    assert P144.series_constant("log_uniform", 1.0) == pytest.approx(
        math.pi ** 1.5 * math.sinh(0.5) / 0.5)
