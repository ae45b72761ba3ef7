"""Metrics, report plumbing and the two comparison experiments."""

import itertools
import math
import time

import numpy as np
import pytest

from mvlci.experiments import (
    CSV_HEADER,
    SATURATION_DB,
    CaseResult,
    ExperimentReport,
    Verdict,
    psnr,
    run_measurement_increase,
    run_superres,
    ssim,
    upsample2x_horizontal,
)


# ---------------------------------------------------------------------------
# PSNR
# ---------------------------------------------------------------------------

def test_psnr_constant_offset_closed_form():
    a = np.full((16, 16), 0.5)
    b = a + 0.1
    assert abs(psnr(a, b) - 20.0) < 1e-12


def test_psnr_identical_images_is_infinite():
    a = np.random.default_rng(0).uniform(size=(12, 12))
    assert psnr(a, a.copy()) == math.inf


def test_psnr_matches_double_loop_oracle():
    rng = np.random.default_rng(1)
    a = rng.uniform(size=(16, 16))
    b = np.clip(a + 0.05 * rng.standard_normal((16, 16)), 0.0, 1.0)
    total = 0.0
    for i in range(16):
        for j in range(16):
            total += (a[i, j] - b[i, j]) ** 2
    expected = 10.0 * math.log10(1.0 / (total / 256.0))
    assert abs(psnr(a, b) - expected) < 1e-12


def test_psnr_mask_restricts_the_error_region():
    a = np.zeros((10, 10))
    b = np.zeros((10, 10))
    b[:, 5:] = 0.2
    left = np.zeros((10, 10), dtype=bool)
    left[:, :5] = True
    assert psnr(a, b, left) == math.inf
    assert abs(psnr(a, b, ~left) - 10.0 * math.log10(1.0 / 0.04)) < 1e-12


def test_psnr_validates_inputs():
    with pytest.raises(ValueError, match="shape"):
        psnr(np.zeros((4, 4)), np.zeros((4, 5)))
    with pytest.raises(ValueError, match="no pixels"):
        psnr(np.zeros((4, 4)), np.ones((4, 4)), np.zeros((4, 4), dtype=bool))
    # an integer 0/1 mask would index rows, not select pixels
    rows_1_to_3 = np.zeros((4, 4), dtype=int)
    rows_1_to_3[1:] = 1
    top_row_off = np.zeros((4, 4))
    top_row_off[0] = 0.5
    rows_1_to_3_bool = rows_1_to_3.astype(bool)
    assert psnr(np.zeros((4, 4)), top_row_off, rows_1_to_3_bool) == math.inf
    with pytest.raises(ValueError, match="boolean"):
        psnr(np.zeros((4, 4)), top_row_off, rows_1_to_3)
    with pytest.raises(ValueError, match="boolean"):
        psnr(np.zeros((4, 4)), np.ones((4, 4)), np.ones((4, 3), dtype=bool))


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------

def test_ssim_identical_images_is_one():
    a = np.random.default_rng(2).uniform(size=(16, 20))
    assert ssim(a, a.copy()) == pytest.approx(1.0, abs=1e-12)


def test_ssim_degrades_with_noise_and_stays_bounded():
    rng = np.random.default_rng(3)
    a = rng.uniform(size=(32, 32))
    light = np.clip(a + 0.02 * rng.standard_normal(a.shape), 0.0, 1.0)
    heavy = np.clip(a + 0.4 * rng.standard_normal(a.shape), 0.0, 1.0)
    s_light = ssim(a, light)
    s_heavy = ssim(a, heavy)
    assert s_heavy < s_light < 1.0
    assert -1.0 <= s_heavy <= 1.0


def test_ssim_validates_inputs():
    with pytest.raises(ValueError, match="shape"):
        ssim(np.zeros((8, 8)), np.zeros((8, 9)))
    with pytest.raises(ValueError, match="8x8"):
        ssim(np.zeros((7, 8)), np.zeros((7, 8)))


# ---------------------------------------------------------------------------
# upsampling
# ---------------------------------------------------------------------------

def test_upsample_doubles_width_only():
    out = upsample2x_horizontal(np.zeros((5, 9)))
    assert out.shape == (5, 18)


def test_upsample_recovers_a_pair_averaged_ramp():
    """Pair-averaging a linear ramp then upsampling returns the ramp on
    the interior (the two edge columns are replicated)."""
    hr = np.tile(0.1 + 0.02 * np.arange(20.0), (4, 1))
    lo = 0.5 * (hr[:, 0::2] + hr[:, 1::2])
    up = upsample2x_horizontal(lo)
    assert np.allclose(up[:, 1:-1], hr[:, 1:-1], atol=1e-12)


def test_upsample_keeps_constants_constant():
    up = upsample2x_horizontal(np.full((6, 7), 0.3))
    assert np.allclose(up, 0.3, atol=1e-15)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def sample_report():
    rep = ExperimentReport(experiment="demo", params={"rate": 0.25})
    rep.cases.append(CaseResult(case="one", mode="single", sensors="1",
                                rate=0.25, psnr_db=21.5, ssim=0.9,
                                iterations=42, wall_time_s=0.5))
    rep.cases.append(CaseResult(case="two", mode="joint", sensors="1+2",
                                rate=0.25, psnr_db=24.0, ssim=0.95,
                                iterations=77, wall_time_s=1.25))
    rep.verdicts.append(Verdict(claim="a-claim", passed=True, margin_db=2.5))
    rep.verdicts.append(Verdict(claim="b-claim", passed=False, margin_db=-0.5,
                                detail="why"))
    rep.images["truth"] = np.full((8, 8), 0.5)
    return rep


def test_csv_text_structure():
    lines = sample_report().csv_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "demo" and first[1] == "one"
    assert first[4] == "0.25" and first[5] == "21.5000"


def test_summary_text_reports_verdicts():
    text = sample_report().summary_text()
    assert "[PASS] a-claim (margin +2.500 dB)" in text
    assert "[FAIL] b-claim (margin -0.500 dB) why" in text


def test_verdict_lookup():
    rep = sample_report()
    assert rep.verdict("a-claim").passed
    assert not all(v.passed for v in rep.verdicts)
    with pytest.raises(KeyError):
        rep.verdict("missing")


def test_verdict_saturates_only_when_every_operand_does():
    at = Verdict.judge("c", False, -0.25, "detail", SATURATION_DB, SATURATION_DB + 5.0)
    assert at.passed and at.margin_db == -0.25
    assert at.detail == "detail (saturated)"
    assert Verdict.judge("c", False, 0.0, "d", SATURATION_DB, SATURATION_DB).passed

    below = Verdict.judge("c", False, -0.25, "detail",
                          SATURATION_DB + 5.0, SATURATION_DB - 0.001)
    assert not below.passed and below.detail == "detail"
    assert Verdict.judge("c", True, 0.5, "d", SATURATION_DB - 0.001).passed

    # with no operands (fig4's claim) only the margin decides
    assert not Verdict.judge("c", False, -0.25, "detail").passed
    assert Verdict.judge("c", False, -0.25, "detail").detail == "detail"


def test_report_write_creates_files(tmp_path):
    sample_report().write(tmp_path / "out")
    assert (tmp_path / "out" / "report.csv").is_file()
    assert (tmp_path / "out" / "summary.txt").is_file()
    assert (tmp_path / "out" / "truth.pgm").is_file()


# ---------------------------------------------------------------------------
# measurement-increase experiment
# ---------------------------------------------------------------------------

def test_measurement_increase_structure_and_determinism(tmp_path):
    kwargs = dict(width=32, height=32, rate_low=0.125, scene_seed=7,
                  meas_seed=42)
    rep = run_measurement_increase(**kwargs)
    rep.write(tmp_path / "fig")
    assert [c.case for c in rep.cases] == [
        "single-low-sensor1", "single-low-sensor2",
        "single-high-sensor1", "single-high-sensor2", "joint-low",
    ]
    assert [v.claim for v in rep.verdicts] == [
        "rate-increase-helps", "joint-beats-single-low",
        "joint-matches-single-high",
    ]
    assert len(rep.csv_text().strip().split("\n")) == 6
    assert (tmp_path / "fig" / "report.csv").is_file()
    assert (tmp_path / "fig" / "joint_view1.pgm").is_file()

    again = run_measurement_increase(**kwargs)
    for c1, c2 in zip(rep.cases, again.cases):
        assert c1.psnr_db == c2.psnr_db
        assert c1.ssim == c2.ssim
        assert c1.iterations == c2.iterations


def test_case_wall_time_is_the_solve_alone(monkeypatch):
    """With a clock that ticks 1.0 per read, a case reads exactly 1.0 only
    if the clock is read right before and right after the solve."""
    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
    fig3 = run_measurement_increase(width=16, height=16, rate_low=1.0)
    fig4 = run_superres(width=16, height=16, rate=1.0)
    assert [c.wall_time_s for c in fig3.cases + fig4.cases] == [1.0] * 8


def test_measurement_increase_rejects_uneven_rates():
    """The high rate is twice rate_low, so a rate_low above 0.5 other than
    the degenerate 1.0 has no high rate."""
    with pytest.raises(ValueError, match="rate_low must be at most 0.5"):
        run_measurement_increase(rate_low=0.75)


def test_degenerate_full_rate_run_passes_by_saturation():
    rep = run_measurement_increase(width=32, height=32, rate_low=1.0,
                                   scene_seed=7, meas_seed=42)
    assert all(v.passed for v in rep.verdicts)
    for v in rep.verdicts:
        assert "(saturated)" in v.detail
    for c in rep.cases:
        assert c.psnr_db > 40.0


def test_measurement_increase_seed_changes_results():
    a = run_measurement_increase(width=32, height=32, scene_seed=7,
                                 meas_seed=42)
    b = run_measurement_increase(width=32, height=32, scene_seed=7,
                                 meas_seed=43)
    assert any(c1.psnr_db != c2.psnr_db for c1, c2 in zip(a.cases, b.cases))


# ---------------------------------------------------------------------------
# super-resolution experiment
# ---------------------------------------------------------------------------

def test_superres_structure(tmp_path):
    rep = run_superres(width=32, height=32, rate=0.5, scene_seed=7,
                       meas_seed=42)
    rep.write(tmp_path / "sr")
    assert [c.case for c in rep.cases] == [
        "upsampled-single-sensor1", "upsampled-single-sensor2",
        "superres-joint",
    ]
    assert [v.claim for v in rep.verdicts] == ["superres-beats-upsampled"]
    assert rep.images["superres"].shape == (32, 64)
    assert (tmp_path / "sr" / "superres.pgm").is_file()
    # at half rate the doubled system is near determined: strong margin
    assert rep.verdict("superres-beats-upsampled").passed
    assert rep.verdict("superres-beats-upsampled").margin_db > 5.0


def test_superres_integer_offset_raises():
    with pytest.raises(ValueError, match="fractional"):
        run_superres(width=32, height=32, dx=3.0, rate=0.5)


@pytest.mark.parametrize("dx", [math.inf, -math.inf, math.nan])
def test_superres_non_finite_offset_raises(dx):
    with pytest.raises(ValueError, match="finite dx"):
        run_superres(width=32, height=32, dx=dx, rate=0.5)


def test_superres_full_rate_quality_bound():
    # near-determined sanity bound: with every row measured the doubled
    # system still has to interpolate the missing phase, but should land
    # well above 35 dB on the common region
    rep = run_superres(rate=1.0, scene_seed=7, meas_seed=42)
    sup = next(c for c in rep.cases if c.mode == "superres")
    assert sup.psnr_db >= 35.0


def test_superres_smooth_scene_reported_not_gated():
    # low-frequency scenes gain little from doubling the grid, so the
    # margin is informational here; the claim itself stays threshold 0
    rep = run_superres(kind="gradient-bars", scene_seed=7, meas_seed=42)
    margin = rep.verdict("superres-beats-upsampled").margin_db
    print(f"gradient-bars superres margin {margin:+.3f} dB (report only)")
    assert math.isfinite(margin)
