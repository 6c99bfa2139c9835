import math

import mpmath as mp
import numpy as np
import pytest
from helpers import brute_lattice_sum

from macgeo import asymptotics
from macgeo.asymptotics import (TABLE_PATTERNS, alpha_inf_range,
                                alpha_inf_table, beta_inf_range,
                                beta_inf_table)
from macgeo.cli import RunConfig, run
from macgeo.propagation import ChannelModel
from macgeo.reception import grid_range
from macgeo.spatial import GridSpec

# Large-beta normalized ranges at alpha = 4, unit density.
BETA_TABLE = {
    ("square", 1.0): 0.638232,
    ("rectangular", 0.5): 0.554905,
    ("rectangular", 0.25): 0.409452,
    ("hexagonal", 1.0): 0.609856,
    ("triangular", 1.0): 0.644845,
}

# The five table rows at large alpha, as the truncated brute sums gave
# them (radius 200 unit lengths plus a continuum tail).
LARGE_ALPHA_TABLE = {
    50.0: (0.972654946832538, 0.6973718331752028, 0.49311635224667955,
           0.8583148560513822, 1.036744306790101),
    100.0: (0.9862327044933592, 0.7022224378689986, 0.49654624771851796,
            0.867796395851906, 1.0554876877850876),
    300.0: (0.9953896791032291, 0.7054749035590243, 0.4988460882635116,
            0.8741755399198469, 1.0681711564527894),
    1000.0: (0.9986146661010289, 0.7066168219413649, 0.49965354649522625,
             0.876419301196921, 1.072646284843835),
}
# Table rows plus two linear patterns far from square.
SUM_PATTERNS = TABLE_PATTERNS + (("linear", 1.0, 2.0), ("linear", 1.0, 16.0))


def test_beta_table_values():
    for kind, ratio, val in beta_inf_table(4.0):
        assert val == pytest.approx(BETA_TABLE[(kind, ratio)], abs=1e-3)


def test_beta_table_ordering_alpha4():
    vals = {(k, r): v for k, r, v in beta_inf_table(4.0)}
    assert vals[("triangular", 1.0)] > vals[("square", 1.0)] \
        > vals[("hexagonal", 1.0)] > vals[("rectangular", 0.5)] \
        > vals[("rectangular", 0.25)]


def test_beta_range_scale_invariant():
    a = beta_inf_range(GridSpec("square", 1.0), 4.0)
    b = beta_inf_range(GridSpec("square", 25.0), 4.0)
    assert a == pytest.approx(b, rel=1e-9)


def test_beta_range_monotone_in_aspect():
    vals = []
    for ratio in (0.8, 0.5, 0.3, 0.15):
        spec = GridSpec("rectangular", 1.0, 1.0, 1.0 / ratio)
        vals.append(beta_inf_range(spec, 4.0))
    assert all(b < a for a, b in zip(vals, vals[1:]))


def _epstein_mp(kind, alpha):
    """Unit-density I from the Epstein-zeta closed forms (mpmath):
    square 4 zeta(s) beta(s), triangular 6 zeta(s) L_-3(s) at spacing
    d^2 = 2/sqrt(3), s = alpha/2."""
    with mp.workdps(40):
        s = mp.mpf(alpha) / 2
        if kind == "square":
            dbeta = (mp.zeta(s, 0.25) - mp.zeta(s, 0.75)) / 4 ** s
            return float(4 * mp.zeta(s) * dbeta)
        l3 = (mp.zeta(s, mp.mpf(1) / 3) - mp.zeta(s, mp.mpf(2) / 3)) / 3 ** s
        return float((mp.sqrt(3) / 2) ** s * 6 * mp.zeta(s) * l3)


@pytest.mark.parametrize("kind", ["square", "triangular"])
def test_matches_epstein_closed_forms(kind):
    for alpha in np.r_[2.001, np.linspace(2.05, 30.0, 15), 19.99, 20.0]:
        got = beta_inf_range(GridSpec(kind, 1.0), alpha) ** -alpha
        assert got == pytest.approx(_epstein_mp(kind, alpha), rel=1e-13)


def test_upper_gamma_against_mpmath():
    # The Ewald sums take Gamma(s, t) and Gamma(1 - s, y) for s = alpha/2
    # below DIRECT_SUM_ALPHA and t, y from the nearest squared spacing
    # times pi (pi / 16 on the linear 1:16 pattern) up to EWALD_CUT.
    x = np.geomspace(0.15, asymptotics.EWALD_CUT + 1.0, 30)
    for s in np.r_[1.0005, np.linspace(1.01, 10.25, 25)]:
        for a in (float(s), 1.0 - float(s)):
            with mp.workdps(30):
                want = [float(mp.gammainc(mp.mpf(a), mp.mpf(float(v))))
                        for v in x]
            np.testing.assert_allclose(asymptotics._upper_gamma(a, x), want,
                                       rtol=2e-15, atol=0.0)


def test_matches_brute_lattice_sum():
    # Within the oracle's tail, plus 1e-14 relative for its rounding.
    alphas = (2.5, 3.0, 4.0, 8.0)
    for kind, k1, k2 in SUM_PATTERNS:
        spec = GridSpec(kind, 1.0, k1, k2)
        for alpha, (brute, tail) in brute_lattice_sum(spec, alphas).items():
            err = abs(beta_inf_range(spec, alpha) ** -alpha - brute)
            assert err <= tail + 1e-14 * brute


def test_branches_agree_at_switch(monkeypatch):
    for alpha in (19.5, asymptotics.DIRECT_SUM_ALPHA, 20.5):
        vals = []
        for switch in (math.inf, 2.0):
            monkeypatch.setattr(asymptotics, "DIRECT_SUM_ALPHA", switch)
            vals.append([beta_inf_range(GridSpec(kind, 1.0, k1, k2), alpha)
                         for kind, k1, k2 in SUM_PATTERNS])
        assert vals[0] == pytest.approx(vals[1], rel=1e-13)


def test_large_alpha_table():
    for alpha, want in LARGE_ALPHA_TABLE.items():
        got = [v for _, _, v in beta_inf_table(alpha)]
        assert got == pytest.approx(want, rel=1e-12)
    vals = [v for _, _, v in beta_inf_table(1e4)]
    assert all(math.isfinite(v) and v > 0 for v in vals)


def test_triangular_beta_inf_pin():
    spec = GridSpec("triangular", 1.0)
    assert beta_inf_range(spec, 4.0) == pytest.approx(
        0.644845, abs=1e-3)


def test_beta_range_alpha3():
    # Slow-decay sanity: still converges for any alpha > 2.
    val = beta_inf_range(GridSpec("square", 1.0), 3.0)
    assert 0.3 < val < 0.8


def test_divergent_sum_signal():
    # The sum diverges at alpha <= 2; ChannelModel refuses such an alpha.
    for alpha in (2.0, 1.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            beta_inf_range(GridSpec("square", 1.0), alpha)


def test_alpha_closed_forms():
    assert alpha_inf_range("square") == pytest.approx(1 / math.sqrt(2))
    assert alpha_inf_range("hexagonal") == pytest.approx(
        2 / math.sqrt(3 * math.sqrt(3)))
    assert alpha_inf_range("triangular") == pytest.approx(
        math.sqrt(2 / (3 * math.sqrt(3))))
    assert alpha_inf_range("rectangular", 1.0, 2.0) == pytest.approx(
        0.5 * math.sqrt(1.25 / 0.5))
    assert alpha_inf_range("linear", 1.0, 4.0) == pytest.approx(
        0.5 * math.sqrt((0.0625 + 1) / 0.25))
    rows = dict((k, v) for k, _, v in alpha_inf_table() if k == "square")
    assert rows["square"] == pytest.approx(0.707, abs=5e-4)
    for kind, k1, k2 in (("rectangular", 2.0, 1.0), ("square", 1.0, 2.0),
                         ("dodecagonal", 1.0, 1.0)):
        with pytest.raises(ValueError):
            alpha_inf_range(kind, k1, k2)


def test_voronoi_limit_square():
    r1 = grid_range(GridSpec("square", 1.0), ChannelModel(100.0, 1.0),
                    extent=60.0).r1
    limit = alpha_inf_range("square")
    assert abs(r1 - limit) / limit < 0.02


def test_table_csv(tmp_path):
    out = tmp_path / "t.csv"
    run(RunConfig("asympt-alpha", {}, 0, str(out)))
    lines = out.read_text().splitlines()
    assert lines[0] == "pattern,k1_over_k2,value"
    assert len(lines) == 6
    assert lines[1].startswith("square,1,")
