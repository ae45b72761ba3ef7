"""Packaged comparison studies with named, quantitative verdicts.

Two harnesses:

* run_measurement_increase: reconstruct each sensor independently at a low
  and a high measurement rate, then jointly at the low rate, and check
  that joint reconstruction buys roughly what doubling the measurement
  count buys.
* run_superres: reconstruct a double-horizontal-resolution image from two
  sensors with a fractional-pixel offset and check that it beats linear
  upsampling of a single-sensor reconstruction.

Both solve with the default SolverConfig at their noise_sigma.  Every
verdict is named and carries its measured margin, and reports are
deterministic given the scene seed, measurement seed and noise level.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import build_region_masks, build_shift
from .pgm import clamp01, write_pgm
from .scene import make_test_scene, render_pair
from .sensing import acquire
from .solver import Component, SolverConfig, check_fractional_dx, reconstruct_joint, reconstruct_single, reconstruct_superres

CSV_HEADER = ["experiment", "case", "mode", "sensors", "rate",
              "psnr_db", "ssim", "iterations", "wall_time_s"]

# Above this PSNR the reconstructions agree with the truth to solver
# precision, so dB differences between cases are numerical noise; the
# comparison verdicts treat such cases as ties that satisfy the claim.
SATURATION_DB = 40.0


# ---------------------------------------------------------------------------
# image quality metrics
# ---------------------------------------------------------------------------

def psnr(reference: np.ndarray, candidate: np.ndarray,
         mask: np.ndarray | None = None) -> float:
    """Peak signal-to-noise ratio in dB for [0, 1] images.

    Identical inputs return inf.  With a mask, which must be boolean and
    of the images' shape, only the selected pixels enter the mean squared
    error.
    """
    a = np.asarray(reference, dtype=np.float64)
    b = np.asarray(candidate, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    diff = a - b
    if mask is not None:
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != a.shape:
            raise ValueError(f"mask must be boolean of shape {a.shape}, "
                             f"got {mask.dtype} {mask.shape}")
        diff = diff[mask]
        if diff.size == 0:
            raise ValueError("mask selects no pixels")
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def ssim(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Mean structural similarity over sliding 8x8 windows.

    Plain uniform windows with the standard constants C1 = 0.01^2,
    C2 = 0.03^2 for a [0, 1] dynamic range.
    """
    a = np.asarray(reference, dtype=np.float64)
    b = np.asarray(candidate, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.shape[0] < 8 or a.shape[1] < 8:
        raise ValueError("ssim needs images at least 8x8")
    c1 = 0.01 ** 2
    c2 = 0.03 ** 2
    mu_a = _box8(a)
    mu_b = _box8(b)
    var_a = _box8(a * a) - mu_a * mu_a
    var_b = _box8(b * b) - mu_b * mu_b
    cov = _box8(a * b) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def _box8(img: np.ndarray) -> np.ndarray:
    """Means over all 8x8 windows (valid positions), via summed-area table."""
    s = np.zeros((img.shape[0] + 1, img.shape[1] + 1))
    s[1:, 1:] = np.cumsum(np.cumsum(img, axis=0), axis=1)
    k = 8
    total = s[k:, k:] - s[:-k, k:] - s[k:, :-k] + s[:-k, :-k]
    return total / (k * k)


def upsample2x_horizontal(image: np.ndarray) -> np.ndarray:
    """Linear 2x horizontal upsampling aligned with pair-average sampling.

    High-res column u interpolates the low-res samples at position
    (u - 0.5) / 2, with replicated ends, so pair-averaging the result of a
    pair-averaged image is consistent with the forward model.
    """
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape
    pos = (np.arange(2 * w) - 0.5) / 2.0
    i0 = np.clip(np.floor(pos).astype(np.int64), 0, w - 1)
    i1 = np.clip(i0 + 1, 0, w - 1)
    frac = np.clip(pos - np.floor(pos), 0.0, 1.0)
    frac[pos < 0] = 0.0
    frac[pos > w - 1] = 0.0
    return (1.0 - frac) * img[:, i0] + frac * img[:, i1]


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

@dataclass
class CaseResult:
    case: str
    mode: str
    sensors: str
    rate: float
    psnr_db: float
    ssim: float
    iterations: int
    wall_time_s: float


@dataclass
class Verdict:
    claim: str
    passed: bool
    margin_db: float
    detail: str = ""

    @classmethod
    def judge(cls, claim, passed, margin_db, detail, *operands):
        """A named claim with its margin.  When there are operand PSNRs and
        all are at least SATURATION_DB, the claim holds as a tie and the
        detail ends in " (saturated)"."""
        saturated = bool(operands) and min(operands) >= SATURATION_DB
        return cls(claim, passed or saturated, margin_db,
                   detail + (" (saturated)" if saturated else ""))


@dataclass
class ExperimentReport:
    experiment: str
    params: dict
    cases: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    images: dict = field(default_factory=dict)

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for c in self.cases:
            writer.writerow([self.experiment, c.case, c.mode, c.sensors,
                             f"{c.rate:g}", f"{c.psnr_db:.4f}",
                             f"{c.ssim:.6f}", c.iterations,
                             f"{c.wall_time_s:.3f}"])
        return buf.getvalue()

    def summary_text(self) -> str:
        lines = [f"experiment: {self.experiment}"]
        for key in sorted(self.params):
            lines.append(f"  {key} = {self.params[key]}")
        lines.append("cases:")
        for c in self.cases:
            lines.append(f"  {c.case:24s} psnr={c.psnr_db:8.3f} dB "
                         f"ssim={c.ssim:.4f} iters={c.iterations}")
        lines.append("verdicts:")
        for v in self.verdicts:
            state = "PASS" if v.passed else "FAIL"
            lines.append(f"  [{state}] {v.claim} (margin {v.margin_db:+.3f} dB)"
                         + (f" {v.detail}" if v.detail else ""))
        return "\n".join(lines) + "\n"

    def verdict(self, claim: str) -> Verdict:
        for v in self.verdicts:
            if v.claim == claim:
                return v
        raise KeyError(f"no verdict named {claim!r}")

    def write(self, outdir) -> None:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.csv").write_text(self.csv_text(), encoding="utf-8")
        (out / "summary.txt").write_text(self.summary_text(), encoding="utf-8")
        for name, img in self.images.items():
            write_pgm(out / f"{name}.pgm", clamp01(img))


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------

def _far_views(kind: str, width: int, height: int, dx: float, scale: int,
               seed: int):
    """A test scene at `scale` times the aperture width and the two views
    of it that sensors separated horizontally by dx see from far enough
    away that the effective shift is dx up to ~1e-7 relative.

    Returns (scene, views, dx_eff, margin): the scene carries `margin`
    extra columns on each side to cover the second sensor's shift.
    """
    margin = math.ceil(scale * abs(dx))
    scene = make_test_scene(kind, scale * width + 2 * margin, height, seed)
    views, (dx_eff, _) = render_pair(scene, width, height, dx, 1.0, 1.0e7)
    return scene, views, dx_eff, margin


def _metrics(truth, recon, mask=None):
    """PSNR/SSIM of a reconstruction clamped to the displayable range.

    PSNR is taken over the mask's pixels and SSIM over the mask's bounding
    box, the region PSNR scores; without a mask both cover the whole image.
    """
    rec = clamp01(recon)
    box = Component(rec.shape, mask).window
    return psnr(truth, rec, mask), ssim(truth[box], rec[box])


def _add_case(report, case, mode, sensors, rate, solve, score):
    """Run `solve()`, timing that call alone, and append the case whose
    (PSNR, SSIM) `score(result)` gives.  Returns (result, PSNR)."""
    t0 = time.perf_counter()
    res = solve()
    wall_time_s = time.perf_counter() - t0
    quality, similarity = score(res)
    report.cases.append(CaseResult(case, mode, sensors, rate, quality,
                                   similarity, res.iterations, wall_time_s))
    return res, quality


# ---------------------------------------------------------------------------
# measurement-increase comparison
# ---------------------------------------------------------------------------

def run_measurement_increase(kind: str = "blocks", width: int = 64,
                             height: int = 64, dx: float = 3.5,
                             rate_low: float = 0.125, scene_seed: int = 7,
                             meas_seed: int = 42,
                             noise_sigma: float = 0.0) -> ExperimentReport:
    """Single-sensor low/high rate versus joint reconstruction at low rate.

    Renders the two views of a far test scene (sensor 2 offset by dx
    pixels), measures both at rate_low and at twice it (1.0 for the
    degenerate full-rate run, rate_low = 1.0) with a shared row set, and
    reconstructs: each sensor alone at each rate, then both jointly at the
    low rate.  Claims checked:

      rate-increase-helps      each sensor improves from low to high rate
      joint-beats-single-low   joint beats each sensor's low-rate result
      joint-matches-single-high joint PSNR within 1.5 dB of the mean
                               high-rate single PSNR

    Metrics are computed on reconstructions clamped to [0, 1], and any
    comparison whose operands all exceed SATURATION_DB counts as satisfied
    (at that quality the differences are solver noise; this is what makes
    the degenerate full-rate run pass trivially).
    """
    if rate_low > 0.5 and rate_low != 1.0:
        raise ValueError(
            "rate_low must be at most 0.5, so that twice it is a rate, or 1.0 "
            f"for the degenerate full-rate run; got {rate_low}"
        )
    rate_high = 1.0 if rate_low == 1.0 else 2.0 * rate_low
    cfg = SolverConfig(noise_sigma=noise_sigma)
    # views at scene resolution; the margin only covers the shift
    _, views, dx_eff, _ = _far_views(kind, width, height, dx, 1, scene_seed)
    masks = build_region_masks(dx_eff, 0.0, width, height)
    shift = build_shift(dx_eff, 0.0, width, height)

    low = acquire(views, rate_low, meas_seed, noise_sigma)
    high = acquire(views, rate_high, meas_seed, noise_sigma)

    report = ExperimentReport(
        experiment="measurement-increase",
        params={"kind": kind, "width": width, "height": height, "dx": dx,
                "dx_effective": dx_eff, "rate_low": rate_low,
                "rate_high": rate_high, "scene_seed": scene_seed,
                "meas_seed": meas_seed, "noise_sigma": noise_sigma},
    )
    report.images["truth_view1"] = views[0]
    report.images["truth_view2"] = views[1]

    single = {}
    for rate, ms, tag in ((rate_low, low, "low"), (rate_high, high, "high")):
        for k, z in enumerate(ms.values, start=1):
            res, single[(tag, k)] = _add_case(
                report, f"single-{tag}-sensor{k}", "single", str(k), rate,
                lambda: reconstruct_single(z, ms.spec, width, height, cfg),
                lambda r: _metrics(views[k - 1], r.image))
            report.images[f"single_{tag}_sensor{k}"] = res.image

    def joint_metrics(r):
        (q1, s1), (q2, s2) = _metrics(views[0], r.view1), _metrics(views[1], r.view2)
        return 0.5 * (q1 + q2), 0.5 * (s1 + s2)

    joint, joint_psnr = _add_case(
        report, "joint-low", "joint", "1+2", rate_low,
        lambda: reconstruct_joint(*low.values, low.spec, width, height,
                                  shift, masks, cfg),
        joint_metrics)
    report.images["joint_view1"] = joint.view1
    report.images["joint_view2"] = joint.view2
    report.images["joint_common"] = joint.common

    margin_rate = min(single[("high", k)] - single[("low", k)] for k in (1, 2))
    margin_joint = min(joint_psnr - single[("low", k)] for k in (1, 2))
    mean_high = 0.5 * (single[("high", 1)] + single[("high", 2)])
    gap = abs(joint_psnr - mean_high)
    report.verdicts += [
        Verdict.judge("rate-increase-helps", margin_rate > 0.0, margin_rate,
                      f"high-low per sensor: "
                      f"{single[('high', 1)] - single[('low', 1)]:+.3f}, "
                      f"{single[('high', 2)] - single[('low', 2)]:+.3f}",
                      *single.values()),
        Verdict.judge("joint-beats-single-low", margin_joint > 0.0, margin_joint,
                      f"joint {joint_psnr:.3f} vs singles "
                      f"{single[('low', 1)]:.3f}/{single[('low', 2)]:.3f}",
                      joint_psnr, single[("low", 1)], single[("low", 2)]),
        Verdict.judge("joint-matches-single-high", gap <= 1.5, 1.5 - gap,
                      f"joint {joint_psnr:.3f} vs mean high {mean_high:.3f}",
                      joint_psnr, single[("high", 1)], single[("high", 2)]),
    ]
    return report


# ---------------------------------------------------------------------------
# super-resolution comparison
# ---------------------------------------------------------------------------

def run_superres(kind: str = "checker-text", width: int = 64, height: int = 64,
                 dx: float = 3.5, rate: float = 0.25, scene_seed: int = 7,
                 meas_seed: int = 42, noise_sigma: float = 0.0) -> ExperimentReport:
    """Double-horizontal-resolution reconstruction versus upsampling.

    The scene is rendered at twice the aperture width, so each view is a
    horizontal pair average of the high-res truth and the fractional dx
    becomes an integer high-res shift.  Claim checked:

      superres-beats-upsampled  high-res reconstruction beats linear
                                upsampling of each single-sensor
                                reconstruction on the common region

    PSNR is taken on the common region only and SSIM on that region's
    bounding box, the common columns, so neither scores the strip columns
    (8 at the default dx) that only one sensor sees.
    """
    check_fractional_dx(dx)
    cfg = SolverConfig(noise_sigma=noise_sigma)
    scene, views, dx_eff, anchor = _far_views(kind, width, height, dx, 2,
                                              scene_seed)

    # reference crop for sensor 1 starts at the margin; sensor 2's truth
    # sits one high-res shift to the left of it
    hr_shift = int(round(2.0 * dx_eff))
    truth_hr = {
        1: scene.base[:, anchor : anchor + 2 * width],
        2: scene.base[:, anchor - hr_shift : anchor - hr_shift + 2 * width],
    }

    masks = build_region_masks(dx_eff, 0.0, width, height)
    common_hr = {k: np.repeat(masks.common_for(k), 2, axis=1) for k in (1, 2)}

    ms = acquire(views, rate, meas_seed, noise_sigma)

    report = ExperimentReport(
        experiment="superres",
        params={"kind": kind, "width": width, "height": height, "dx": dx,
                "dx_effective": dx_eff, "rate": rate,
                "scene_seed": scene_seed, "meas_seed": meas_seed,
                "noise_sigma": noise_sigma},
    )
    report.images["truth_highres"] = truth_hr[1]
    report.images["truth_view1"] = views[0]
    report.images["truth_view2"] = views[1]

    upsampled = {}
    for k, z in enumerate(ms.values, start=1):
        res, upsampled[k] = _add_case(
            report, f"upsampled-single-sensor{k}", "single-upsampled", str(k), rate,
            lambda: reconstruct_single(z, ms.spec, width, height, cfg),
            lambda r: _metrics(truth_hr[k], upsample2x_horizontal(r.image),
                               common_hr[k]))
        report.images[f"upsampled_single_sensor{k}"] = upsample2x_horizontal(res.image)

    sup, sup_psnr = _add_case(
        report, "superres-joint", "superres", "1+2", rate,
        lambda: reconstruct_superres(*ms.values, ms.spec, width, height,
                                     dx_eff, cfg),
        lambda r: _metrics(truth_hr[1], r.image, common_hr[1]))
    report.images["superres"] = sup.image

    margin = min(sup_psnr - upsampled[k] for k in (1, 2))
    report.verdicts.append(Verdict.judge(
        "superres-beats-upsampled", margin > 0.0, margin,
        f"superres {sup_psnr:.3f} vs upsampled "
        f"{upsampled[1]:.3f}/{upsampled[2]:.3f}"))
    return report
