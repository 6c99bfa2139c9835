import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erfc
from scipy.stats import ks_2samp

from helpers import (arrival_sample_w, disc_sample_w, float_series,
                     laplace_transform_w, mp_fading_quadrature, mp_oracle)
from macgeo import aloha
from macgeo.aloha import (_MC_CHUNK, MAX_TRIALS, AlohaResult, _e1_laguerre,
                          _e1_series, aloha_prob, aloha_prob_exponential,
                          curve, mc_aloha_prob, optimize_range, prob_w_below,
                          sample_w)
from macgeo.cli import RunConfig, run
from macgeo.errors import FloatRangeError
from macgeo.propagation import ChannelModel

M44 = ChannelModel(4.0, 1.0)


def log_uniform(alpha, beta, spread):
    return ChannelModel(alpha, beta, "log_uniform", spread)


def levy_cdf(x, lam=1.0):
    """Exact Pr(W < x) at alpha = 4: the stable-1/2 (Levy) CDF."""
    return erfc(math.pi ** 1.5 * lam / (2.0 * math.sqrt(x)))


def test_series_matches_levy_closed_form():
    # x = 0.2 sits in the deep lower tail (p ~ 1.3e-18).
    for x in (0.2, 0.7, 1.0, 2.0, 5.0, 20.0, 200.0, 1e4, 1e8):
        err = abs(prob_w_below(x, 1.0, 4.0) - levy_cdf(x))
        assert err <= 1e-9 and err <= 1e-6 * levy_cdf(x)


def test_aloha_prob_matches_levy_grid():
    """alpha = 4 without fading: p = erfc(pi^1.5 sqrt(beta) r^2 / 2) over
    the whole r range, lower tail included."""
    rs = np.linspace(0.02, 5.0, 250)
    for beta in (0.1, 1.0, 10.0, 100.0):
        got = aloha_prob(rs, 1.0, ChannelModel(4.0, beta))
        want = erfc(math.pi ** 1.5 * math.sqrt(beta) * rs ** 2 / 2.0)
        err = np.abs(got - want)
        assert err.max() < 1e-10
        live = want > 1e-300
        assert np.all(err[live] <= 1e-6 * want[live])


def test_deep_lower_tail_matches_mpmath():
    # p ~ 5.8e-39 in the deep lower tail, where the alternating series
    # cancels down to garbage.
    got = aloha_prob(2.0, 1.0, ChannelModel(6.0, 10.0))
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
                    got = aloha_prob(r, 1.0,
                                     ChannelModel(alpha, beta, fading, 1.0))
                    want = mp_oracle(x, 1.0, alpha, fading, 1.0)
                    if want is not None:
                        assert abs(got - want) < 1e-10, cell
                    want = float_series(x, 1.0, alpha, fading, 1.0)
                    if want is not None:
                        assert abs(got - want) < 1e-6, cell


def test_series_limits():
    assert prob_w_below(1e12, 1.0, 4.0) == pytest.approx(1.0, abs=1e-5)
    assert prob_w_below(3.0, 1e-8, 4.0) == pytest.approx(1.0, abs=1e-6)
    assert aloha_prob(1e-3, 1.0, M44) == pytest.approx(1.0, abs=1e-5)


def test_series_monotone_in_x():
    xs = np.geomspace(0.8, 1e6, 40)
    ps = [prob_w_below(float(x), 1.0, 4.0) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(ps, ps[1:]))
    assert all(0.0 <= p <= 1.0 for p in ps)


def test_aloha_prob_monotone_in_r_and_beta():
    for beta in (0.1, 1.0, 10.0, 100.0):
        ps = aloha_prob(np.linspace(0.05, 1.0, 12), 1.0,
                        ChannelModel(4.0, beta))
        assert np.all(np.diff(ps) <= 1e-12)
    for r in (0.1, 0.3, 0.5):
        ps = [aloha_prob(r, 1.0, ChannelModel(4.0, beta))
              for beta in (0.1, 1.0, 10.0, 100.0)]
        assert all(b <= a + 1e-12 for a, b in zip(ps, ps[1:]))


def test_fading_series_crosses_once_above_at_large_r():
    diffs = []
    for r in np.linspace(0.1, 0.9, 33):
        pn = aloha_prob(float(r), 1.0, M44)
        pf = aloha_prob(float(r), 1.0, log_uniform(4.0, 1.0, 1.0))
        diffs.append(pf - pn)
    signs = np.sign(diffs)
    changes = np.nonzero(np.diff(signs))[0]
    assert len(changes) == 1
    assert signs[0] < 0 and signs[-1] > 0  # fading above at large r


def test_exponential_fading_closed_form():
    # aloha_prob answers exponential fading with its closed form, for a
    # scalar and for an array of link lengths.
    model = ChannelModel(4.0, 3.0, "exponential")
    rs = np.linspace(0.05, 1.5, 7)
    want = [aloha_prob_exponential(r, 0.7, 3.0, 4.0) for r in rs]
    assert aloha_prob(rs, 0.7, model) == pytest.approx(want, rel=1e-14)
    assert aloha_prob(0.3, 0.7, model) == \
        pytest.approx(aloha_prob_exponential(0.3, 0.7, 3.0, 4.0), rel=1e-14)
    assert isinstance(aloha_prob(0.3, 0.7, model), float)


def test_log_uniform_small_spreads_match_mpmath():
    # At small spreads E1(a) - E1(a e^2w), taken as it stands, would cancel
    # to eps / w (6e-11 off at f = 1e-8, 1e-6 at 1e-12); the fade average
    # holds 2e-14 here.
    cells = 0
    for spread in (1e-12, 1e-8, 1e-4, 1e-2):
        for alpha in (3.0, 6.0):
            for beta in (1.0, 100.0):
                for r in (0.2, 0.5, 1.0):
                    want = mp_oracle(r ** -alpha / beta, 1.0, alpha,
                                     "log_uniform", spread)
                    if want is None:
                        continue
                    cells += 1
                    got = aloha_prob(r, 1.0, log_uniform(alpha, beta, spread))
                    assert abs(got - want) < 1e-12, (spread, alpha, beta, r)
    assert cells >= 40


@pytest.mark.parametrize("alpha, beta, r, spread", [(4.0, 1.0, 0.3, 10.5),
                                                    (4.0, 1.0, 0.3, 20.0),
                                                    (2.5, 10.0, 0.05, 20.0)])
def test_log_uniform_wide_spreads_match_double_quadrature(alpha, beta, r,
                                                          spread):
    # Past a fade shift of 10 in log z, where the series oracle runs out.
    got = aloha_prob(r, 1.0, log_uniform(alpha, beta, spread))
    want = mp_fading_quadrature(r, beta, alpha, spread)
    assert abs(got - want) < 1e-10


def test_log_uniform_deep_lower_tail_matches_mpmath():
    for alpha, beta, r, size in ((4.0, 100.0, 1.0, 1.567e-139),
                                 (6.0, 100.0, 2.0, 2.13e-77)):
        got = aloha_prob(r, 1.0, log_uniform(alpha, beta, 1.0))
        want = mp_oracle(r ** -alpha / beta, 1.0, alpha, "log_uniform", 1.0,
                         dps_cap=2500)
        assert want == pytest.approx(size, rel=1e-2, abs=0.0)
        assert got == pytest.approx(want, rel=1e-6, abs=0.0)


def test_log_uniform_any_finite_spread():
    rs = np.geomspace(1e-3, 30.0, 40)
    base = aloha_prob(rs, 1.0, M44)
    # A fade below 1e-300 leaves exp(-y) to the last bit or so.
    for spread in (5e-324, 1e-300):
        got = aloha_prob(rs, 1.0, log_uniform(4.0, 1.0, spread))
        assert np.abs(got - base).max() <= 4e-16
    for alpha in (2.05, 4.0, 100.0):
        for spread in (800.0, 1e5, 1e15, 1e298):
            ps = aloha_prob(rs, 1.0, log_uniform(alpha, 1.0, spread))
            assert np.all((ps >= 0.0) & (ps <= 1.0))
            assert np.all(np.diff(ps) <= 1e-15)
    # Past w ~ 1e3 every node has a = A z0 << 1 << a e^2w, where
    # G = (-gamma_E - ln a) / (2w) to O(a): p is that averaged over t.
    with mp.workdps(30):
        g, f = mp.mpf(0.5), mp.mpf(1e298)
        log_z0 = 2 * (mp.log(mp.pi * mp.gamma(1 - g) * 0.09)
                      - mp.log(2 * f * g))
        # At alpha = 4, A(t) = sin(t/2)^2 / sin(t)^2.
        mean_log_a = mp.quad(lambda t: 2 * mp.log(mp.sin(t / 2) / mp.sin(t)),
                             [0, mp.pi]) / mp.pi
        want = float((-mp.euler - log_z0 - mean_log_a) / (2 * f))
    assert aloha_prob(0.3, 1.0, log_uniform(4.0, 1.0, 1e298)) == pytest.approx(
        want, rel=1e-12, abs=0.0)
    with pytest.raises(FloatRangeError):
        aloha_prob(0.3, 1.0, log_uniform(4.0, 1.0, 1.7e308))
    for spread in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            aloha_prob(0.3, 1.0, log_uniform(4.0, 1.0, spread))


def test_e1_matches_mpmath():
    # Both sides of the x = 2 edge, from 1e-300 to where e^-x leaves the
    # normal range.
    below = np.concatenate([np.geomspace(1e-300, 1.0, 120),
                            np.linspace(1.0, 2.0, 41)[1:-1],
                            [np.nextafter(2.0, 0.0)]])
    above = np.concatenate([[2.0], np.linspace(2.0, 10.0, 41)[1:],
                            np.geomspace(10.0, 700.0, 80)[1:]])
    for got, xs in ((_e1_series(np.log(below)), below),
                    (_e1_laguerre(above), above)):
        want = np.array([float(mp.e1(x)) for x in xs])
        assert np.all(np.abs(got - want) <= 1e-13 * want)
    # Past the float range E1 underflows to 0.
    assert np.array_equal(_e1_laguerre(np.array([750.0, 1e300, math.inf])),
                          np.zeros(3))


def test_laplace_transform():
    assert laplace_transform_w(0.0, 1.0, 4.0) == 1.0
    assert laplace_transform_w(1.0, 1.0, 4.0) == pytest.approx(
        math.exp(-math.pi ** 1.5))
    # Monte Carlo check of E[exp(-theta W)], with the exact standard
    # deviation sqrt(L(2 theta) - L(theta)^2): at theta = 3 the sample one
    # of so skewed a variable reads low too often.
    rng = np.random.default_rng(123)
    w = sample_w(1.0, 3.0, 200_000, rng)
    for theta in (0.5, 1.0, 3.0):
        emp = np.exp(-theta * w)
        want = laplace_transform_w(theta, 1.0, 3.0)
        sd = math.sqrt(laplace_transform_w(2.0 * theta, 1.0, 3.0) - want ** 2)
        se = sd / math.sqrt(len(emp))
        assert abs(emp.mean() - want) < 3 * se


def test_laplace_transform_with_fading():
    rng = np.random.default_rng(99)
    w = sample_w(1.0, 4.0, 200_000, rng, fading="log_uniform", spread=1.0)
    got = np.exp(-2.0 * w)
    want = laplace_transform_w(2.0, 1.0, 4.0, "log_uniform", 1.0)
    sd = math.sqrt(laplace_transform_w(4.0, 1.0, 4.0, "log_uniform", 1.0)
                   - want ** 2)
    se = sd / math.sqrt(len(got))
    assert abs(got.mean() - want) < 3 * se


def test_mc_matches_series():
    p_mc, se = mc_aloha_prob(0.3, 1.0, ChannelModel(4.0, 1.0), 200_000, seed=42)
    p_s = aloha_prob(0.3, 1.0, M44)
    assert abs(p_mc - p_s) < 3 * se
    # Same draw at the spec's example threshold x = 0.3^-4.
    p2 = prob_w_below(0.3 ** -4, 1.0, 4.0)
    assert abs(p_mc - p2) < 3 * se


def test_mc_beta_zero_always_succeeds():
    p, se = mc_aloha_prob(0.5, 1.0, ChannelModel(4.0, 0.0), 1000, seed=1)
    assert p == 1.0 and se == 0.0


def test_mc_log_uniform_fading():
    model = ChannelModel(4.0, 1.0, fading="log_uniform", spread=1.0)
    p_mc, se = mc_aloha_prob(0.4, 1.0, model, 200_000, seed=5)
    p_s = aloha_prob(0.4, 1.0, log_uniform(4.0, 1.0, 1.0))
    assert abs(p_mc - p_s) < 3 * se


def test_mc_exponential_closed_form():
    model = ChannelModel(4.0, 1.0, fading="exponential")
    p_mc, se = mc_aloha_prob(0.3, 1.0, model, 200_000, seed=7)
    p_cf = aloha_prob_exponential(0.3, 1.0, 1.0, 4.0)
    assert abs(p_mc - p_cf) < 3 * se


@pytest.mark.parametrize("r, lam, beta, alpha, match", [
    (0.3, 1.0, 1.0, 1.5, "alpha"),      # Gamma(1 - 2/alpha) < 0: p = 3.93
    (0.3, 1.0, 1.0, 2.0, "alpha"),      # Gamma(0): a bare math domain error
    (0.3, 1.0, 1.0, math.inf, "alpha"),
    (0.3, 1.0, -1.0, 4.0, "beta"),
    (0.3, 1.0, math.inf, 4.0, "beta"),
    (0.3, -1.0, 1.0, 4.0, "intensity"),  # p = 1.56
    (0.3, 0.0, 1.0, 4.0, "intensity"),
    (0.3, math.inf, 1.0, 4.0, "intensity"),
    (0.3, math.nan, 1.0, 4.0, "intensity"),
    (-0.3, 1.0, 1.0, 4.0, "link length"),
    (math.inf, 1.0, 1.0, 4.0, "link length"),
    (math.nan, 1.0, 1.0, 4.0, "link length"),
])
def test_exponential_closed_form_refuses_bad_arguments(r, lam, beta, alpha,
                                                       match):
    with pytest.raises(ValueError, match=match):
        aloha_prob_exponential(r, lam, beta, alpha)


def test_exponential_closed_form_edges():
    # The checks still admit a zero-length link and beta = 0.
    assert aloha_prob_exponential(0.0, 1.0, 1.0, 4.0) == 1.0
    assert aloha_prob_exponential(0.3, 1.0, 0.0, 4.0) == 1.0


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
@pytest.mark.parametrize("fading", ["none", "log_uniform", "exponential"])
def test_sample_w_matches_disc_reference(alpha, fading):
    # Two-sample Kolmogorov-Smirnov distance between the ordered-arrival
    # sampler and the independent Poisson-disc sampler, at fixed seeds,
    # against its 99.9% critical value.
    n = 40_000
    a = sample_w(1.0, alpha, n, 11, fading=fading)
    b = disc_sample_w(1.0, alpha, n, 12, fading=fading)
    d = ks_2samp(a, b).statistic
    assert d < math.sqrt(-0.5 * math.log(0.0005)) * math.sqrt(2.0 / n)


@pytest.mark.parametrize("alpha", [2.5, 8.0])
@pytest.mark.parametrize("fading", ["none", "log_uniform", "exponential"])
def test_sample_w_matches_arrival_reference(alpha, fading):
    # The order-statistics sampler against cumulative Exp(1) arrivals: the
    # same law, drawn another way.  Two-sample KS distance at fixed seeds
    # against its 99.9% critical value.
    n = 40_000
    a = sample_w(1.0, alpha, n, 13, fading=fading)
    assert np.all(np.isfinite(a) & (a > 0))
    b = arrival_sample_w(1.0, alpha, n, 14, fading=fading)
    d = ks_2samp(a, b).statistic
    assert d < math.sqrt(-0.5 * math.log(0.0005)) * math.sqrt(2.0 / n)


@pytest.mark.parametrize("fading", ["none", "log_uniform", "exponential"])
def test_sample_w_chunk_edges(fading):
    # One full chunk and a partial one: the full chunk reads the same
    # stream as a run of exactly _MC_CHUNK trials, and the 5 trials of the
    # partial chunk are valid samples.
    w = sample_w(1.0, 4.0, _MC_CHUNK + 5, 17, fading=fading)
    assert np.array_equal(w[:_MC_CHUNK],
                          sample_w(1.0, 4.0, _MC_CHUNK, 17, fading=fading))
    assert np.all(np.isfinite(w[_MC_CHUNK:]) & (w[_MC_CHUNK:] > 0))


@pytest.mark.parametrize("alpha, fading, spread", [
    *((a, f, 1.0) for a in (2.05, 3.0, 4.0, 8.0, 100.0)
      for f in ("none", "log_uniform")),
    (2.05, "log_uniform", 800.0)])
def test_optimizer_evaluation_budget(monkeypatch, alpha, fading, spread):
    # Brent's method reaches the 1e-5 bracket in log rho in at most 20
    # evaluations of p, where golden section took 30, and no dense scan in
    # log rho beats the optimum it finds.
    unit = ChannelModel(alpha, 1.0, fading, spread)
    rho = np.exp(np.linspace(-5.0, 10.0, 3001))
    scan = np.max(rho * aloha_prob(rho, 1.0, unit))
    calls = []

    def counted(*args):
        calls.append(args)
        return aloha_prob(*args)

    monkeypatch.setattr(aloha, "aloha_prob", counted)
    res = optimize_range(1.0, unit)
    assert len(calls) <= 20
    assert res.rp >= scan * (1.0 - 1e-9)


def test_optimizer_beta10():
    res = optimize_range(1.0, ChannelModel(4.0, 10.0))
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
    r1 = [math.sqrt(lam) * optimize_range(lam, ChannelModel(4.0, 10.0)).r
          for lam in (0.25, 1.0, 4.0, 1e4, 1e8, 1e10)]
    assert max(r1) - min(r1) <= 1e-9 * r1[0]
    assert r1[0] == pytest.approx(0.19053, abs=1e-4)


def test_optimizer_fading_penalty():
    base = optimize_range(1.0, ChannelModel(4.0, 10.0))
    fad = optimize_range(1.0, log_uniform(4.0, 10.0, 1.0))
    penalty = 1.0 - fad.r / base.r
    assert 0.01 < penalty < 0.05


def test_optimizer_wide_fading():
    # A wide fade moves the optimum to s = C rho^2 ~ f gamma / 4, past the
    # bracket that serves f gamma <= 1; a dense scan in log rho must not
    # beat the optimizer.
    for alpha, spread in ((2.05, 800.0), (4.0, 1e4)):
        unit = log_uniform(alpha, 1.0, spread)
        rho = np.exp(np.linspace(-5.0, 10.0, 3001))
        f = rho * aloha_prob(rho, 1.0, unit)
        k = int(np.argmax(f))
        res = optimize_range(1.0, unit)
        assert res.rp >= f[k] * (1.0 - 1e-9)
        assert res.r == pytest.approx(rho[k], rel=0.02)


def test_curve_rows_and_csv(tmp_path):
    rows = curve(1.0, M44, [0.1, 0.5, 3.0])
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


def test_aloha_entry_points_validate():
    # The model checks alpha, beta and spread where it is built; the
    # entry points check the intensity and refuse beta = 0, which the
    # stable law has no finite z for.
    for lam in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="intensity"):
            aloha_prob(0.3, lam, M44)
        with pytest.raises(ValueError, match="intensity"):
            optimize_range(lam, M44)
        with pytest.raises(ValueError, match="intensity"):
            prob_w_below(1.0, lam, 4.0)
    zero = ChannelModel(4.0, 0.0)
    for call in (lambda: aloha_prob(0.3, 1.0, zero),
                 lambda: optimize_range(1.0, zero),
                 lambda: curve(1.0, zero, [0.3])):
        with pytest.raises(ValueError, match="threshold"):
            call()
    for alpha in (2.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha"):
            prob_w_below(1.0, 1.0, alpha)
    for spread in (0.0, math.inf):
        with pytest.raises(ValueError, match="spread"):
            sample_w(1.0, 4.0, 5, 0, fading="log_uniform", spread=spread)
