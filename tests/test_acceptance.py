"""Release acceptance checks.

One test per criterion; each prints a single PASS/FAIL line with the
measured quantities and the runtime against its budget.
"""

import math
import time

import numpy as np

from mvlci.experiments import psnr, run_measurement_increase, run_superres
from mvlci.geometry import apply_shift, build_region_masks, build_shift
from mvlci.pgm import read_pgm, write_pgm
from mvlci.rng import SplitMix64
from mvlci.scene import CameraGeometry, make_test_scene, parallax_shift
from mvlci.sensing import (
    MeasurementSet,
    SensingSpec,
    measure,
    measure_adjoint,
    order_for_pixels,
    read_mvm,
    select_rows,
    write_mvm,
)
from mvlci.solver import reconstruct_joint, reconstruct_single
from test_geometry import dense


def report(name, ok, detail):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def dense_hadamard(n):
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def make_spec(order, rate, seed, pixel_count):
    return SensingSpec(order=order, rows=select_rows(order, rate, seed),
                       seed=seed, pixel_count=pixel_count)


def test_ac1_measurement_operator_matches_dense_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    rates = (0.125, 0.25, 0.5, 0.75, 1.0)
    worst_fwd = worst_adj = worst_id = 0.0
    for order in (8, 16, 64, 256):
        h = dense_hadamard(order)
        for trial in range(20):
            pixels = order if trial % 2 == 0 else order - max(1, order // 5)
            spec = make_spec(order, rates[trial % 5], trial, pixels)
            a = (h[spec.rows, :pixels] + 1.0) / 2.0
            x = rng.standard_normal(pixels)
            y = rng.standard_normal(spec.count)
            fwd = measure(x, spec)
            adj = measure_adjoint(y, spec)
            worst_fwd = max(worst_fwd, float(np.max(np.abs(fwd - a @ x))))
            worst_adj = max(worst_adj, float(np.max(np.abs(adj - a.T @ y))))
            gap = abs(np.dot(fwd, y) - np.dot(x, adj))
            scale = max(np.linalg.norm(fwd) * np.linalg.norm(y), 1e-30)
            worst_id = max(worst_id, gap / scale)
    dt = time.perf_counter() - t0
    ok = worst_fwd < 1e-10 and worst_adj < 1e-10 and worst_id < 1e-9 and dt < 10
    report("AC1 operator-vs-dense-oracle", ok,
           f"forward {worst_fwd:.2e} adjoint {worst_adj:.2e} "
           f"identity {worst_id:.2e} ({dt:.1f}s < 10s)")


def test_ac2_geometry_correctness():
    t0 = time.perf_counter()
    # integer shifts: exact 0/1 partial permutation
    op = build_shift(5.0, -2.0, 32, 24)
    mat = dense(op.matrix)
    img = np.arange(32 * 24, dtype=np.float64).reshape(24, 32)
    expected = np.zeros((24, 32))
    expected[:22, 5:] = img[2:, :27]
    perm_ok = (set(np.unique(mat)) <= {0.0, 1.0}
               and np.all(mat.sum(axis=1) <= 1.0)
               and np.array_equal(apply_shift(op, img), expected))

    # fractional shifts: exact on affine images away from the border
    worst_ramp = 0.0
    w, h = 40, 30
    x = np.arange(w, dtype=np.float64)[None, :]
    y = np.arange(h, dtype=np.float64)[:, None]
    ramp = 0.2 + 0.011 * x + 0.007 * y
    for dx, dy in ((3.5, 0.0), (2.25, 1.75), (-1.5, 0.5)):
        out = apply_shift(build_shift(dx, dy, w, h), ramp)
        target = 0.2 + 0.011 * (x - dx) + 0.007 * (y - dy)
        inside = ((x - dx >= 0.0) & (x - dx <= w - 2.0)
                  & (y - dy >= 0.0) & (y - dy <= h - 2.0))
        worst_ramp = max(worst_ramp,
                         float(np.max(np.abs(np.where(inside, out - target, 0.0)))))

    # parallax against the ray-intersection oracle
    rng = SplitMix64(2026)
    worst_par = 0.0
    for _ in range(100):
        d = -10.0 + 20.0 * rng.uniform()
        f = 0.1 + 10.0 * rng.uniform()
        z = 10.0 ** (1.0 + 6.0 * rng.uniform())
        geo = CameraGeometry(aperture_width=16, aperture_height=16,
                             sensor_offsets=[(0.0, 0.0), (d, 0.0)],
                             sensor_plane_distance=f, scene_distance=z)
        dx_eff, _ = parallax_shift(geo, 2)
        p = 17.3
        t = f / (f + z)
        oracle = (d + t * (p - d)) - t * p
        worst_par = max(worst_par, abs(dx_eff - oracle))
    dt = time.perf_counter() - t0
    ok = perm_ok and worst_ramp < 1e-12 and worst_par < 1e-9 and dt < 5
    report("AC2 shift-and-parallax-geometry", ok,
           f"integer-permutation exact={perm_ok} ramp {worst_ramp:.2e} "
           f"parallax {worst_par:.2e} ({dt:.1f}s < 5s)")


def test_ac3_single_view_recovery():
    truth = make_test_scene("blocks", 64, 64, 7).base

    t0 = time.perf_counter()
    spec30 = make_spec(4096, 0.3, 42, 4096)
    res30 = reconstruct_single(measure(truth, spec30), spec30, 64, 64)
    dt30 = time.perf_counter() - t0
    quality = psnr(truth, res30.image)

    t0 = time.perf_counter()
    spec_full = make_spec(4096, 1.0, 42, 4096)
    res_full = reconstruct_single(measure(truth, spec_full), spec_full, 64, 64)
    dt_full = time.perf_counter() - t0
    rel = float(np.linalg.norm(res_full.image - truth) / np.linalg.norm(truth))

    ok = (quality >= 40.0 and res30.iterations <= 500
          and rel < 1e-3 and dt30 < 60 and dt_full < 60)
    report("AC3 single-view-recovery", ok,
           f"30% {quality:.2f} dB in {res30.iterations} iters ({dt30:.1f}s < 60s); "
           f"full-rate rel {rel:.2e} ({dt_full:.1f}s < 60s)")


def test_ac4_measurement_increase_claims():
    t0 = time.perf_counter()
    outcomes = []
    details = []
    ok = True
    for seed in (42, 1234):
        rep = run_measurement_increase(scene_seed=7, meas_seed=seed)
        beats = rep.verdict("joint-beats-single-low").margin_db
        gap = 1.5 - rep.verdict("joint-matches-single-high").margin_db
        ok = ok and beats >= 1.0 and gap <= 1.5
        outcomes.append(tuple(v.passed for v in rep.verdicts))
        details.append(f"seed {seed}: joint-vs-low {beats:+.2f} dB (>=1), "
                       f"high-rate gap {gap:.2f} dB (<=1.5)")
    stable = outcomes[0] == outcomes[1] and all(all(o) for o in outcomes)
    dt = time.perf_counter() - t0
    ok = ok and stable and dt < 300
    report("AC4 measurement-increase-claims", ok,
           "; ".join(details) + f"; verdicts stable={stable} ({dt:.0f}s < 300s)")


def test_ac5_superres_claim():
    t0 = time.perf_counter()
    rep = run_superres(scene_seed=7, meas_seed=42)
    margin = rep.verdict("superres-beats-upsampled").margin_db
    dt = time.perf_counter() - t0
    ok = margin >= 0.5 and dt < 600
    report("AC5 superres-beats-upsampled", ok,
           f"margin {margin:+.2f} dB (>=0.5) ({dt:.0f}s < 600s)")


def test_ac6_joint_degeneracy():
    t0 = time.perf_counter()
    truth = make_test_scene("blocks", 64, 64, 7).base
    spec = make_spec(4096, 0.25, 42, 4096)
    z = measure(truth, spec)
    joint = reconstruct_joint(z, z, spec, 64, 64,
                              build_shift(0.0, 0.0, 64, 64),
                              build_region_masks(0.0, 0.0, 64, 64))
    single = reconstruct_single(np.stack([z, z]), spec, 64, 64)
    rel = float(np.linalg.norm(joint.view1 - single.image)
                / max(np.linalg.norm(single.image), 1e-30))
    dt = time.perf_counter() - t0
    ok = rel <= 1e-6 and dt < 120
    report("AC6 joint-degenerates-to-single", ok,
           f"relative difference {rel:.2e} (<=1e-6) ({dt:.0f}s < 120s)")


def test_ac7_unknown_count_reduction():
    masks = build_region_masks(3.5, 0.0, 64, 64)
    nc = int(masks.common.sum())
    n1 = int(masks.disjoint[0].sum())
    n2 = int(masks.disjoint[1].sum())
    total = nc + n1 + n2
    ratio = total / 8192.0
    ok = nc > 0 and total < 8192
    report("AC7 joint-unknown-count", ok,
           f"|C|={nc} |D1|={n1} |D2|={n2} total={total} < 8192, "
           f"ratio {ratio:.5f}")


def test_ac8_full_scale_constants():
    t0 = time.perf_counter()
    rows = select_rows(65536, 0.25, 42)
    pixels = 302 * 217
    spec = SensingSpec(order=65536, rows=rows, seed=42, pixel_count=pixels)
    z = measure(np.ones(pixels), spec)
    dt = time.perf_counter() - t0
    ok = (rows.shape == (16384,) and pixels == 65534
          and z.shape == (16384,) and abs(z[0] - 65534.0) < 1e-6 and dt < 5)
    report("AC8 full-scale-constants", ok,
           f"rows {rows.size} (=16384), grid {pixels} pads into 65536, "
           f"z[0]={z[0]:.1f} ({dt:.1f}s < 5s)")


def test_ac9_file_format_round_trips(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    ok = True
    for i in range(50):
        hgt = int(rng.integers(4, 40))
        wid = int(rng.integers(4, 40))
        img = rng.uniform(size=(hgt, wid))
        maxval = 255 if i % 2 else 65535
        p1 = tmp_path / f"a{i}.pgm"
        p2 = tmp_path / f"b{i}.pgm"
        write_pgm(p1, img, maxval=maxval)
        write_pgm(p2, read_pgm(p1), maxval=maxval)
        ok = ok and p1.read_bytes() == p2.read_bytes()
    for i in range(50):
        wid = int(rng.integers(2, 13))
        hgt = int(rng.integers(2, 13))
        pixels = wid * hgt
        order = order_for_pixels(pixels) << int(rng.integers(0, 2))
        rate = float(rng.uniform(0.05, 1.0))
        spec = make_spec(order, rate, i, pixels)
        sensors = 1 + i % 3
        values = [rng.standard_normal(spec.count) for _ in range(sensors)]
        ms = MeasurementSet(spec=spec, values=values, width=wid, height=hgt,
                            rate=rate, noise_sigma=float(rng.uniform(0.0, 0.1)))
        p1 = tmp_path / f"a{i}.mvm"
        p2 = tmp_path / f"b{i}.mvm"
        write_mvm(p1, ms)
        back = read_mvm(p1)
        write_mvm(p2, back)
        ok = (ok and p1.read_bytes() == p2.read_bytes()
              and all(np.array_equal(u, v)
                      for u, v in zip(back.values, ms.values)))
    dt = time.perf_counter() - t0
    ok = ok and dt < 5
    report("AC9 file-round-trips", ok,
           f"50 PGM + 50 MVM1 instances bit-identical ({dt:.1f}s < 5s)")
