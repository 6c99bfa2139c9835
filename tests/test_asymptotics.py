import math

import pytest

from macgeo.asymptotics import (LatticeSumConfig, TABLE_PATTERNS,
                                alpha_inf_range, alpha_inf_table,
                                beta_inf_range, beta_inf_table,
                                save_table_csv, voronoi_limit_check)
from macgeo.errors import DivergentSumError
from macgeo.spatial import GridSpec

# Large-beta normalized ranges at alpha = 4, unit density.
BETA_TABLE = {
    ("square", 1.0): 0.638232,
    ("rectangular", 0.5): 0.554905,
    ("rectangular", 0.25): 0.409452,
    ("hexagonal", 1.0): 0.609856,
    ("triangular", 1.0): 0.644845,
}


def test_beta_table_values():
    for kind, ratio, val in beta_inf_table(4.0):
        assert val == pytest.approx(BETA_TABLE[(kind, ratio)], abs=1e-3)


def test_beta_table_ordering_alpha4():
    vals = {(k, r): v for k, r, v in beta_inf_table(4.0)}
    assert vals[("triangular", 1.0)] > vals[("square", 1.0)] \
        > vals[("hexagonal", 1.0)] > vals[("rectangular", 0.5)] \
        > vals[("rectangular", 0.25)]


def test_beta_range_scale_invariant():
    a = beta_inf_range(LatticeSumConfig(GridSpec("square", 1.0), 4.0))
    b = beta_inf_range(LatticeSumConfig(GridSpec("square", 25.0), 4.0))
    assert a == pytest.approx(b, rel=1e-9)


def test_beta_range_monotone_in_aspect():
    vals = []
    for ratio in (0.8, 0.5, 0.3, 0.15):
        spec = GridSpec("rectangular", 1.0, 1.0, 1.0 / ratio)
        vals.append(beta_inf_range(LatticeSumConfig(spec, 4.0)))
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_lattice_sum_doubling_within_tail_bound():
    for kind, k1, k2 in TABLE_PATTERNS:
        spec = GridSpec(kind, 1.0, k1, k2)
        R = 200.0
        r1 = beta_inf_range(LatticeSumConfig(spec, 4.0, truncation_radius=R))
        r2 = beta_inf_range(LatticeSumConfig(spec, 4.0, truncation_radius=2 * R))
        I1, I2 = r1 ** -4.0, r2 ** -4.0
        tail = 2.0 * math.pi * R ** -2.0 / 2.0
        assert abs(I2 - I1) <= tail


def test_triangular_beta_inf_pin():
    spec = GridSpec("triangular", 1.0)
    assert beta_inf_range(LatticeSumConfig(spec, 4.0)) == pytest.approx(
        0.644845, abs=1e-3)


def test_beta_range_alpha3():
    # Slow-decay sanity: still converges for any alpha > 2.
    val = beta_inf_range(LatticeSumConfig(GridSpec("square", 1.0), 3.0))
    assert 0.3 < val < 0.8


def test_divergent_sum_signal():
    with pytest.raises(DivergentSumError):
        beta_inf_range(LatticeSumConfig(GridSpec("square", 1.0), 2.0))
    with pytest.raises(ValueError):
        beta_inf_range(LatticeSumConfig(GridSpec("square", 1.0), 4.0,
                                        truncation_radius=5.0))


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


def test_voronoi_limit_square():
    rep = voronoi_limit_check(GridSpec("square", 1.0), 100.0)
    assert rep["rel_deviation"] < 0.02
    with pytest.raises(ValueError):
        voronoi_limit_check(GridSpec("square", 1.0), 10.0)


def test_table_csv(tmp_path):
    out = tmp_path / "t.csv"
    save_table_csv(alpha_inf_table(), out)
    lines = out.read_text().splitlines()
    assert lines[0] == "pattern,k1_over_k2,value"
    assert len(lines) == 6
    assert lines[1].startswith("square,1,")
