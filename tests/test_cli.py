"""End-to-end command-line pipeline: scene -> measure -> reconstruct."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mvlci import cli
from mvlci.cli import build_parser, main
from mvlci.experiments import CSV_HEADER
from mvlci.geometry import apply_shift, build_region_masks, build_shift
from mvlci.pgm import read_pgm, write_pgm
from mvlci.scene import make_test_scene, render_pair
from mvlci.sensing import (MeasurementSet, SensingSpec, epsilon_for_noise,
                           read_mvm, select_rows, write_mvm)
from mvlci.solver import SolverConfig


def read_manifest(path):
    entries = {}
    for line in path.read_text(encoding="utf-8").strip().split("\n"):
        key, _, value = line.partition("=")
        entries[key] = value
    return entries


@pytest.fixture(scope="module")
def colocated(tmp_path_factory):
    """Scene + two identical views (dx = 0) measured into one MVM file."""
    root = tmp_path_factory.mktemp("colocated")
    assert main(["scene", "--kind", "blocks", "--width", "32", "--height", "16",
                 "--seed", "5", "--out", str(root / "scene.pgm"),
                 "--views", "--dx", "0"]) == 0
    assert main(["measure", "--views", str(root / "view1.pgm"),
                 str(root / "view2.pgm"), "--rate", "0.5", "--seed", "9",
                 "--out", str(root / "meas.mvm")]) == 0
    return root


@pytest.fixture(scope="module")
def offset_pair(tmp_path_factory):
    """Two offset views (dx = 3.5) of a 16x16 aperture, measured together."""
    root = tmp_path_factory.mktemp("offset")
    assert main(["scene", "--kind", "blocks", "--width", "46", "--height", "16",
                 "--seed", "5", "--out", str(root / "scene.pgm"),
                 "--views", "--dx", "3.5", "--z", "1e9", "--f", "1"]) == 0
    assert main(["measure", "--views", str(root / "view1.pgm"),
                 str(root / "view2.pgm"), "--rate", "0.5", "--seed", "9",
                 "--out", str(root / "meas.mvm")]) == 0
    return root


@pytest.fixture(scope="module")
def one_sensor(tmp_path_factory):
    """One flat 16x16 view measured alone."""
    root = tmp_path_factory.mktemp("one")
    write_pgm(root / "v.pgm", np.full((16, 16), 0.5))
    assert main(["measure", "--views", str(root / "v.pgm"), "--rate", "0.5",
                 "--out", str(root / "meas.mvm")]) == 0
    return root


# ---------------------------------------------------------------------------
# scene
# ---------------------------------------------------------------------------

def test_scene_writes_image_and_manifest(tmp_path):
    out = tmp_path / "scene.pgm"
    assert main(["scene", "--kind", "gradient-bars", "--width", "48",
                 "--height", "32", "--seed", "3", "--out", str(out)]) == 0
    img = read_pgm(out)
    assert img.shape == (32, 48)
    manifest = read_manifest(tmp_path / "scene.pgm.manifest")
    assert manifest["command"] == "scene"
    assert manifest["kind"] == "gradient-bars"
    assert manifest["seed"] == "3"


def test_scene_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    for out in (a, b):
        assert main(["scene", "--width", "40", "--height", "24", "--seed", "8",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scene_views_with_zero_offset_are_identical(colocated):
    v1 = (colocated / "view1.pgm").read_bytes()
    v2 = (colocated / "view2.pgm").read_bytes()
    assert v1 == v2
    manifest = read_manifest(colocated / "scene.pgm.manifest")
    assert float(manifest["dx_effective"]) == 0.0
    assert manifest["aperture_width"] == "16"


def test_scene_views_record_the_effective_shift(offset_pair):
    manifest = read_manifest(offset_pair / "scene.pgm.manifest")
    dx_eff = float(manifest["dx_effective"])
    # far scene: parallax shrinks the 3.5 px offset only marginally
    assert abs(dx_eff - 3.5) < 1e-4
    assert dx_eff != 3.5


def test_scene_too_narrow_for_views_is_a_usage_error(tmp_path):
    assert main(["scene", "--width", "20", "--height", "16", "--views",
                 "--dx", "3.5", "--out", str(tmp_path / "s.pgm")]) == 2


@pytest.mark.parametrize("width", [43, 45])
def test_scene_width_off_the_2x_view_scale_is_a_usage_error(tmp_path, capsys, width):
    """Views are cut at 2x horizontal scale; at dx=3.5 a 43 or 45 wide
    scene would give a 3x window, so it is refused up front."""
    assert main(["scene", "--width", str(width), "--height", "16", "--views",
                 "--out", str(tmp_path / "s.pgm")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mvlci:")
    assert "smallest width that does is 44, and every width from 46 up" in err
    assert not (tmp_path / "view1.pgm").exists()


@pytest.mark.parametrize("dx", ["inf", "nan"])
def test_scene_views_need_a_finite_offset(tmp_path, capsys, dx):
    assert main(["scene", "--width", "64", "--height", "16", "--views",
                 "--dx", dx, "--out", str(tmp_path / "s.pgm")]) == 2
    assert capsys.readouterr().err.startswith("mvlci:")


@pytest.mark.parametrize("dx", ["1e308", "-1e308", "1e300", "32"])
def test_scene_views_reject_an_offset_that_leaves_no_room(tmp_path, capsys, dx):
    """2|dx| at or past the scene width leaves no room for two views: a
    usage error with a short message, not an overflow or a width hundreds
    of digits long, and nothing written."""
    out = tmp_path / "out" / "scene.pgm"
    assert main(["scene", "--width", "64", "--height", "16", "--views",
                 f"--dx={dx}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mvlci:") and "no room for two views" in err
    assert len(err) < 200
    assert not out.parent.exists()


@pytest.mark.parametrize("flags,code", [
    (["--width", "40"], 2),                 # no 2x view window
    (["--width", "64", "--dx", "nan"], 2),  # non-finite offset
    (["--width", "64", "--z", "-5"], 1),    # CameraGeometry rejects it
    (["--width", "64", "--f", "inf"], 1),   # would give two identical views
    (["--width", "64", "--f", "nan"], 1),
    (["--width", "64", "--z", "inf"], 1),
    (["--width", "64", "--z", "nan"], 1),
])
def test_rejected_scene_views_write_nothing(tmp_path, capsys, flags, code):
    out = tmp_path / "out" / "scene.pgm"
    assert main(["scene", "--height", "16", "--views", *flags,
                 "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith("mvlci:")
    assert not out.parent.exists()


@pytest.mark.parametrize("width", [44, 47])
def test_scene_views_at_the_narrowest_working_widths(tmp_path, width):
    assert main(["scene", "--width", str(width), "--height", "16", "--views",
                 "--out", str(tmp_path / "s.pgm")]) == 0
    for k in (1, 2):
        assert read_pgm(tmp_path / f"view{k}.pgm").shape == (16, (width - 14) // 2)


def test_scene_views_at_an_odd_width_are_render_pair(tmp_path):
    """The 143-column scene is 2 * 64 apertures plus 2 * 7 margin plus one
    spare column: the CLI renders it as given, through render_pair."""
    assert main(["scene", "--kind", "blocks", "--width", "143", "--height", "64",
                 "--views", "--out", str(tmp_path / "s.pgm")]) == 0
    views, shift = render_pair(make_test_scene("blocks", 143, 64, 7),
                               64, 64, 3.5, 100.0, 1e6)
    for k, view in enumerate(views, start=1):
        write_pgm(tmp_path / f"ref{k}.pgm", view)
        assert ((tmp_path / f"view{k}.pgm").read_bytes()
                == (tmp_path / f"ref{k}.pgm").read_bytes())
    manifest = read_manifest(tmp_path / "s.pgm.manifest")
    assert (manifest["dx_effective"], manifest["dy_effective"]) == tuple(map(repr, shift))


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def test_measure_records_the_expected_rows(tmp_path):
    out = tmp_path / "scene.pgm"
    assert main(["scene", "--width", "142", "--height", "64", "--seed", "7",
                 "--out", str(out), "--views", "--dx", "3.5"]) == 0
    assert main(["measure", "--views", str(tmp_path / "view1.pgm"),
                 str(tmp_path / "view2.pgm"), "--rate", "0.25",
                 "--out", str(tmp_path / "m.mvm")]) == 0
    manifest = read_manifest(tmp_path / "m.mvm.manifest")
    assert manifest["order"] == "4096"
    assert manifest["rows"] == "1024"
    ms = read_mvm(tmp_path / "m.mvm")
    assert ms.spec.count == 1024
    assert ms.sensor_count == 2
    assert ms.width == 64 and ms.height == 64


def test_measure_zero_images_give_zero_payload(tmp_path):
    for k in (1, 2):
        write_pgm(tmp_path / f"z{k}.pgm", np.zeros((16, 16)))
    assert main(["measure", "--views", str(tmp_path / "z1.pgm"),
                 str(tmp_path / "z2.pgm"), "--rate", "0.25",
                 "--out", str(tmp_path / "z.mvm")]) == 0
    ms = read_mvm(tmp_path / "z.mvm")
    for v in ms.values:
        assert np.all(v == 0.0)


def test_measure_rerun_is_byte_identical(colocated, tmp_path):
    out = tmp_path / "again.mvm"
    assert main(["measure", "--views", str(colocated / "view1.pgm"),
                 str(colocated / "view2.pgm"), "--rate", "0.5", "--seed", "9",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (colocated / "meas.mvm").read_bytes()


@pytest.mark.parametrize("seed", ["-5", "18446744073709551619"])
def test_measure_noisy_with_a_seed_outside_u64(colocated, tmp_path, seed):
    out = tmp_path / "m.mvm"
    assert main(["measure", "--views", str(colocated / "view1.pgm"),
                 "--rate", "0.5", "--seed", seed, "--noise", "0.01",
                 "--out", str(out)]) == 0
    ms = read_mvm(out)
    assert ms.spec.seed == int(seed)
    assert np.array_equal(ms.spec.rows,
                          select_rows(ms.spec.order, 0.5, int(seed) % 2**64))


@pytest.mark.parametrize("noise", ["1e308", "inf", "nan", "-0.1"])
def test_measure_rejects_noise_it_cannot_write(colocated, tmp_path, capsys, noise):
    """A noise level whose draws overflow float64 would write an MVM1 file
    that read_mvm refuses; measure stops before creating any output."""
    out = tmp_path / "out" / "m.mvm"
    assert main(["measure", "--views", str(colocated / "view1.pgm"),
                 "--rate", "0.5", "--noise", noise, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("mvlci:")
    assert not (tmp_path / "out").exists()


def test_measure_rejects_mismatched_views(tmp_path):
    write_pgm(tmp_path / "a.pgm", np.zeros((16, 16)))
    write_pgm(tmp_path / "b.pgm", np.zeros((16, 8)))
    assert main(["measure", "--views", str(tmp_path / "a.pgm"),
                 str(tmp_path / "b.pgm"), "--rate", "0.5",
                 "--out", str(tmp_path / "m.mvm")]) == 2


def test_measure_names_a_non_numeric_pgm_header_field(tmp_path, capsys):
    (tmp_path / "bad.pgm").write_bytes(b"P5\nabc 16\n255\n" + bytes(256))
    assert main(["measure", "--views", str(tmp_path / "bad.pgm"), "--rate", "0.5",
                 "--out", str(tmp_path / "m.mvm")]) == 1
    assert capsys.readouterr().err == "mvlci: non-numeric PGM width b'abc'\n"
    assert not (tmp_path / "m.mvm").exists()


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def test_reconstruct_single_writes_image_and_manifest(colocated, tmp_path):
    out = tmp_path / "rec"
    assert main(["reconstruct", "--meas", str(colocated / "meas.mvm"),
                 "--mode", "single", "--sensor", "1",
                 "--out", str(out)]) == 0
    img = read_pgm(out / "recon.pgm")
    truth = read_pgm(colocated / "view1.pgm")
    assert img.shape == truth.shape
    assert np.mean(np.abs(img - truth)) < 0.05
    manifest = read_manifest(out / "manifest.txt")
    assert manifest["mode"] == "single"
    assert manifest["converged"] == "1"
    assert manifest["outputs"] == "recon"
    # the manifest records the flags single mode uses, not the offsets
    assert manifest["sensor"] == "1"
    assert "dx" not in manifest and "dy" not in manifest


@pytest.mark.parametrize("mode, blocks", [("single", 1), ("joint", 2)],
                         ids=["single", "joint"])
def test_reconstruct_verbose_logs_each_iteration_to_stderr(colocated, tmp_path,
                                                           capsys, mode, blocks):
    """One line per iteration with one residual column per measurement
    block; the last line agrees with the manifest."""
    out = tmp_path / "rec"
    offset = ["--dx", "0"] if mode == "joint" else []
    assert main(["reconstruct", "--meas", str(colocated / "meas.mvm"),
                 "--mode", mode, *offset, "--verbose", "--max-iters", "3",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().split("\n")
    assert 1 <= len(lines) <= 3
    res = "".join(rf" res{k}=\d\.\d{{3}}e[+-]\d{{2,3}}" for k in range(1, blocks + 1))
    pat = re.compile(rf"^iter=\d+ obj=\d\.\d{{6}}e[+-]\d{{2,3}}{res}$")
    for idx, line in enumerate(lines):
        assert pat.match(line), line
        assert line.startswith(f"iter={idx + 1} ")
    manifest = read_manifest(out / "manifest.txt")
    assert manifest["iterations"] == str(len(lines))
    assert f" obj={manifest['objective']} " in lines[-1]
    assert len(manifest["residuals"].split(",")) == blocks


def test_reconstruct_zero_measurements_give_a_black_image(tmp_path):
    write_pgm(tmp_path / "z.pgm", np.zeros((16, 16)))
    assert main(["measure", "--views", str(tmp_path / "z.pgm"),
                 "--rate", "0.25", "--out", str(tmp_path / "z.mvm")]) == 0
    assert main(["reconstruct", "--meas", str(tmp_path / "z.mvm"),
                 "--out", str(tmp_path / "rec")]) == 0
    assert np.all(read_pgm(tmp_path / "rec" / "recon.pgm") == 0.0)


def test_joint_zero_offset_equals_stacked_single(colocated, tmp_path):
    """With co-located sensors, joint reconstruction degenerates to a
    single solve over both measurement vectors."""
    joint = tmp_path / "joint"
    stacked = tmp_path / "stacked"
    assert main(["reconstruct", "--meas", str(colocated / "meas.mvm"),
                 "--mode", "joint", "--dx", "0", "--dy", "0",
                 "--out", str(joint)]) == 0
    assert main(["reconstruct", "--meas", str(colocated / "meas.mvm"),
                 "--mode", "single", "--sensor", "all",
                 "--out", str(stacked)]) == 0
    common = (joint / "common.pgm").read_bytes()
    recon = (stacked / "recon.pgm").read_bytes()
    assert common == recon
    for name in ("disjoint1", "disjoint2", "view1", "view2"):
        assert (joint / f"{name}.pgm").is_file()


def test_reconstruct_joint_offset_pair(offset_pair, tmp_path):
    out = tmp_path / "joint"
    assert main(["reconstruct", "--meas", str(offset_pair / "meas.mvm"),
                 "--mode", "joint", "--dx", "3.5", "--sigma", "1",
                 "--out", str(out)]) == 0
    v1 = read_pgm(out / "view1.pgm")
    truth = read_pgm(offset_pair / "view1.pgm")
    assert np.mean(np.abs(v1 - truth)) < 0.08
    manifest = read_manifest(out / "manifest.txt")
    assert (manifest["dx"], manifest["dy"]) == ("3.5", "0.0")
    assert "sensor" not in manifest


def test_reconstruct_joint_with_a_vertical_offset(tmp_path):
    """dy != 0 gives L-shaped border strips, which the solve crops to their
    masks: each disjoint image is zero off its own strip."""
    masks = build_region_masks(2.5, 1.25, 24, 20)
    v1 = 0.5 * make_test_scene("blocks", 24, 20, 3).base
    v2 = apply_shift(build_shift(2.5, 1.25, 24, 20), v1) + 0.5 * masks.disjoint[1]
    write_pgm(tmp_path / "v1.pgm", v1)
    write_pgm(tmp_path / "v2.pgm", v2)
    assert main(["measure", "--views", str(tmp_path / "v1.pgm"), str(tmp_path / "v2.pgm"),
                 "--rate", "0.5", "--out", str(tmp_path / "m.mvm")]) == 0
    out = tmp_path / "joint"
    assert main(["reconstruct", "--meas", str(tmp_path / "m.mvm"), "--mode", "joint",
                 "--dx", "2.5", "--dy", "1.25", "--max-iters", "30",
                 "--out", str(out)]) == 0
    assert read_manifest(out / "manifest.txt")["dy"] == "1.25"
    for k, strip in enumerate(masks.disjoint, start=1):
        disjoint = read_pgm(out / f"disjoint{k}.pgm")
        assert np.all(disjoint[~strip] == 0.0)
        assert np.any(disjoint[strip] > 0.0)


def test_reconstruct_superres_doubles_width(offset_pair, tmp_path):
    out = tmp_path / "sr"
    assert main(["reconstruct", "--meas", str(offset_pair / "meas.mvm"),
                 "--mode", "superres", "--dx", "3.5",
                 "--out", str(out)]) == 0
    hr = read_pgm(out / "superres.pgm")
    assert hr.shape == (16, 32)


@pytest.mark.parametrize("mode", ["joint", "superres"])
def test_reconstruct_default_sigma_is_one(offset_pair, tmp_path, mode):
    outs = []
    for name, flags in (("default", []), ("one", ["--sigma", "1"])):
        out = tmp_path / name
        assert main(["reconstruct", "--meas", str(offset_pair / "meas.mvm"),
                     "--mode", mode, "--dx", "3.5",
                     "--out", str(out)] + flags) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.pgm"))})
    assert outs[0] and outs[0] == outs[1]


def test_reconstruct_defaults_are_the_solver_config_defaults(offset_pair, tmp_path):
    args = build_parser().parse_args(["reconstruct", "--meas", "m", "--out", "o"])
    cfg = SolverConfig()
    assert (args.max_iters, args.tol) == (cfg.max_iters, cfg.rel_tol)
    # --sigma is unset unless given; joint and superres resolve it from
    # SolverConfig, and their manifests record the weight they used
    assert args.sigma is None
    out = tmp_path / "joint"
    assert main(["reconstruct", "--meas", str(offset_pair / "meas.mvm"),
                 "--mode", "joint", "--max-iters", "2", "--out", str(out)]) == 0
    assert read_manifest(out / "manifest.txt")["sigma"] == repr(cfg.sigma)
    # the noise level comes from the measurement file, never from a flag
    assert not hasattr(args, "epsilon") and not hasattr(args, "noise_sigma")


def test_single_mode_rejects_sigma(colocated, tmp_path, capsys):
    """Single mode weighs its one TV term by 1, so --sigma would change
    nothing: it is a usage error, and a single-mode manifest has no sigma."""
    out = tmp_path / "x"
    assert main(["reconstruct", "--meas", str(colocated / "meas.mvm"),
                 "--sigma", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("mvlci:")
    assert not out.exists()
    assert main(["reconstruct", "--meas", str(colocated / "meas.mvm"),
                 "--max-iters", "2", "--out", str(out)]) == 0
    assert "sigma" not in read_manifest(out / "manifest.txt")


def test_noisy_sensor_k_sizes_epsilon_from_its_own_vector(tmp_path):
    """add_noise scales each sensor's noise by its own mean |z|, so the
    fidelity ball of a one-sensor solve comes from that sensor's vector."""
    assert main(["scene", "--kind", "checker-text", "--width", "46",
                 "--height", "16", "--seed", "5", "--views",
                 "--out", str(tmp_path / "scene.pgm")]) == 0
    assert main(["measure", "--views", str(tmp_path / "view1.pgm"),
                 str(tmp_path / "view2.pgm"), "--rate", "0.5", "--seed", "9",
                 "--noise", "0.05", "--out", str(tmp_path / "m.mvm")]) == 0
    assert main(["reconstruct", "--meas", str(tmp_path / "m.mvm"),
                 "--sensor", "2", "--max-iters", "5",
                 "--out", str(tmp_path / "rec")]) == 0
    values = read_mvm(tmp_path / "m.mvm").values
    epsilon = float(read_manifest(tmp_path / "rec" / "manifest.txt")["epsilon"])
    assert epsilon == epsilon_for_noise(0.05, values[1])
    assert epsilon != epsilon_for_noise(0.05, values[0])


@pytest.fixture(scope="module")
def noisy_pair(tmp_path_factory):
    """Two offset views (dx = 3.5) measured together at noise 0.05."""
    root = tmp_path_factory.mktemp("noisy")
    assert main(["scene", "--kind", "checker-text", "--width", "46",
                 "--height", "16", "--seed", "5", "--views",
                 "--out", str(root / "scene.pgm")]) == 0
    assert main(["measure", "--views", str(root / "view1.pgm"),
                 str(root / "view2.pgm"), "--rate", "0.5", "--seed", "9",
                 "--noise", "0.05", "--out", str(root / "m.mvm")]) == 0
    return root / "m.mvm"


@pytest.mark.parametrize("flags", [
    ["--mode", "joint"],
    ["--mode", "superres"],
    ["--sensor", "all"],
])
def test_noisy_multi_sensor_manifest_has_one_epsilon_per_sensor(noisy_pair, tmp_path, flags):
    """Each sensor's noise ball comes from its own vector, and the manifest
    lists them in sensor order."""
    assert main(["reconstruct", "--meas", str(noisy_pair), "--max-iters", "5",
                 "--out", str(tmp_path / "rec")] + flags) == 0
    values = read_mvm(noisy_pair).values
    text = read_manifest(tmp_path / "rec" / "manifest.txt")["epsilon"]
    assert [float(e) for e in text.split(",")] == [
        epsilon_for_noise(0.05, z) for z in values]


@pytest.mark.parametrize("flags", [
    ["--mode", "superres", "--dx", "3.0"],
    ["--sensor", "7"],
    ["--sensor", "abc"],
    # a flag the mode ignores is rejected, not recorded
    ["--dx", "7"],
    ["--mode", "single", "--dy", "2"],
    ["--mode", "single", "--dx", "7", "--dy", "2"],
    ["--mode", "joint", "--sensor", "1"],
    ["--mode", "superres", "--sensor", "2"],
])
def test_reconstruct_usage_errors(colocated, tmp_path, flags):
    code = main(["reconstruct", "--meas", str(colocated / "meas.mvm"),
                 "--out", str(tmp_path / "x")] + flags)
    assert code == 2


@pytest.mark.parametrize("value", ["abc", "auto"])
def test_reconstruct_non_numeric_sigma_is_an_argparse_error(colocated, tmp_path, value):
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--meas", str(colocated / "meas.mvm"),
              "--out", str(tmp_path / "x"), "--sigma", value])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [
    ["--tol", "nan"],
    ["--mode", "joint", "--sigma", "inf"],
    ["--mode", "joint", "--sigma", "0"],
    ["--mode", "joint", "--sigma", "-1"],
])
def test_reconstruct_rejects_non_finite_settings(colocated, tmp_path, capsys, flags):
    code = main(["reconstruct", "--meas", str(colocated / "meas.mvm"),
                 "--out", str(tmp_path / "x")] + flags)
    assert code == 1
    assert "mvlci:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--mode", "joint", "--dx", "nan"],
    ["--mode", "joint", "--dy", "nan"],
    ["--mode", "superres", "--dx", "inf"],
    ["--mode", "superres", "--dx", "nan"],
])
def test_reconstruct_non_finite_offset_is_a_usage_error(offset_pair, tmp_path,
                                                        capsys, flags):
    out = tmp_path / "x"
    code = main(["reconstruct", "--meas", str(offset_pair / "meas.mvm"),
                 "--out", str(out)] + flags)
    assert code == 2
    assert capsys.readouterr().err.startswith("mvlci:")
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--mode", "joint", "--dx", "16"],
    ["--mode", "joint", "--dx=-16"],
    ["--mode", "joint", "--dx", "1e308"],
    ["--mode", "joint", "--dy", "16"],
    ["--mode", "joint", "--dx", "15.5"],
    ["--mode", "superres", "--dx", "20.5"],
    ["--mode", "superres", "--dx", "15.5"],
])
def test_reconstruct_offset_with_no_common_region_is_a_usage_error(
        offset_pair, tmp_path, capsys, flags):
    """On a 16x16 grid an offset beyond 15 columns or rows leaves no pixel
    that both sensors see."""
    out = tmp_path / "x"
    code = main(["reconstruct", "--meas", str(offset_pair / "meas.mvm"),
                 "--out", str(out)] + flags)
    assert code == 2
    assert capsys.readouterr().err.startswith("mvlci:")
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--mode", "joint", "--dx", "15"],
    ["--mode", "joint", "--dx=-15"],
    ["--mode", "superres", "--dx", "14.5"],
])
def test_reconstruct_offset_with_a_common_column_still_solves(offset_pair, tmp_path,
                                                             flags):
    assert main(["reconstruct", "--meas", str(offset_pair / "meas.mvm"),
                 "--max-iters", "2", "--out", str(tmp_path / "x")] + flags) == 0


def test_oversized_order_is_a_clean_runtime_error(tmp_path, capsys):
    # a 1x1 image with a header order no machine can transform: 2**56 f64
    spec = SensingSpec(order=2**56, rows=[0], seed=0, pixel_count=1)
    write_mvm(tmp_path / "big.mvm", MeasurementSet(
        spec=spec, values=[np.array([0.5])], width=1, height=1, rate=1.0))
    code = main(["reconstruct", "--meas", str(tmp_path / "big.mvm"),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err.startswith("mvlci:")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("meas, flags", [
    ("colocated", ["--mode", "superres", "--dx", "3.0"]),
    ("colocated", ["--sensor", "5"]),
    ("one_sensor", ["--mode", "joint"]),
    # superres models a horizontal offset only: --dy is not silently ignored
    ("offset_pair", ["--mode", "superres", "--dx", "3.5", "--dy", "2.0"]),
    # nor are the offsets in single mode, or --sensor in joint/superres
    ("colocated", ["--mode", "single", "--dx", "7", "--dy", "2"]),
    ("colocated", ["--dy", "2"]),
    ("offset_pair", ["--mode", "joint", "--sensor", "1"]),
    ("offset_pair", ["--mode", "superres", "--dx", "3.5", "--sensor", "all"]),
])
def test_rejected_reconstruct_leaves_no_output_directory(request, tmp_path, capsys,
                                                         meas, flags):
    out = tmp_path / "x"
    root = request.getfixturevalue(meas)
    code = main(["reconstruct", "--meas", str(root / "meas.mvm"),
                 "--out", str(out)] + flags)
    assert code == 2
    assert capsys.readouterr().err.startswith("mvlci:")
    assert not out.exists()


def test_joint_needs_two_sensors(tmp_path):
    write_pgm(tmp_path / "v.pgm", np.full((16, 16), 0.5))
    assert main(["measure", "--views", str(tmp_path / "v.pgm"),
                 "--rate", "0.5", "--out", str(tmp_path / "one.mvm")]) == 0
    assert main(["reconstruct", "--meas", str(tmp_path / "one.mvm"),
                 "--mode", "joint", "--out", str(tmp_path / "j")]) == 2


def test_missing_measurement_file_is_a_runtime_error(tmp_path):
    assert main(["reconstruct", "--meas", str(tmp_path / "missing.mvm"),
                 "--out", str(tmp_path / "x")]) == 1


def edit_header(data, key, value):
    """Replace (or, with value None, drop) one MVM1 header field."""
    header, _, payload = data.partition(b"\n\n")
    lines = [ln for ln in header.split(b"\n") if not ln.startswith(f"{key}=".encode())]
    if value is not None:
        lines.append(f"{key}={value}".encode())
    return b"\n".join(lines) + b"\n\n" + payload


def add_header_line(data, line):
    """Append a line to the MVM1 header, keeping every field it has."""
    header, _, payload = data.partition(b"\n\n")
    return header + b"\n" + line + b"\n\n" + payload


def poison_last_value(data, bad):
    return data[:-8] + np.array([bad], dtype="<f8").tobytes()


MVM_KEYS = ("order", "rows", "sensors", "width", "height", "seed", "rate",
            "noise_sigma")
MALFORMED_MVM = {
    "header-only": lambda d: b"MVM1\norder=4\n\n",
    **{f"missing-{k}": (lambda d, k=k: edit_header(d, k, None)) for k in MVM_KEYS},
    "non-numeric-rows": lambda d: edit_header(d, "rows", "abc"),
    "non-numeric-rate": lambda d: edit_header(d, "rate", "fast"),
    "nan-noise-sigma": lambda d: edit_header(d, "noise_sigma", "nan"),
    "negative-size": lambda d: d.replace(b"width=", b"width=-").replace(
        b"height=", b"height=-"),
    "trailing-bytes": lambda d: d + b"\0",
    "repeated-width": lambda d: add_header_line(d, b"width=16"),
    "unknown-key": lambda d: add_header_line(d, b"bogus=1"),
    "repeated-and-unknown": lambda d: add_header_line(d, b"width=16\nbogus=1"),
    "nan-value": lambda d: poison_last_value(d, np.nan),
    "inf-value": lambda d: poison_last_value(d, -np.inf),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MVM))
def test_malformed_measurement_file_is_a_clean_runtime_error(colocated, tmp_path,
                                                             capsys, case):
    bad = tmp_path / "bad.mvm"
    bad.write_bytes(MALFORMED_MVM[case]((colocated / "meas.mvm").read_bytes()))
    with pytest.raises(ValueError):
        read_mvm(bad)
    assert main(["reconstruct", "--meas", str(bad),
                 "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith("mvlci:")


# ---------------------------------------------------------------------------
# experiment and argparse behavior
# ---------------------------------------------------------------------------

EXPERIMENT_IMAGES = {
    "fig3": ["truth_view1", "truth_view2", "single_low_sensor1",
             "single_low_sensor2", "single_high_sensor1", "single_high_sensor2",
             "joint_view1", "joint_view2", "joint_common"],
    "fig4": ["truth_highres", "truth_view1", "truth_view2",
             "upsampled_single_sensor1", "upsampled_single_sensor2", "superres"],
}


@pytest.mark.parametrize("which,case_rows", [("fig3", 5), ("fig4", 3)])
def test_experiment_writes_report_manifest_and_images(tmp_path, capsys,
                                                      which, case_rows):
    out = tmp_path / which
    assert main(["experiment", "--which", which, "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == summary

    manifest = read_manifest(out / "manifest.txt")
    assert list(manifest) == ["command", "version", "which", "scene_seed",
                              "meas_seed", "out", "verdicts", "wall_time_s"]
    assert manifest["command"] == "experiment" and manifest["which"] == which
    claims = re.findall(r"^  \[(PASS|FAIL)\] (\S+) ", summary, re.MULTILINE)
    assert claims
    assert manifest["verdicts"] == ",".join(f"{claim}:{state.lower()}"
                                            for state, claim in claims)

    rows = (out / "report.csv").read_text(encoding="utf-8").strip().split("\n")
    assert rows[0] == ",".join(CSV_HEADER)
    assert len(rows) == 1 + case_rows

    files = sorted(p.name for p in out.iterdir())
    assert files == sorted(["manifest.txt", "report.csv", "summary.txt"]
                           + [f"{name}.pgm" for name in EXPERIMENT_IMAGES[which]])


def test_unknown_experiment_is_an_argparse_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--which", "fig9", "--out", str(tmp_path)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_subcommand_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


# ---------------------------------------------------------------------------
# the manifest frame
# ---------------------------------------------------------------------------

# each command on the offset pair: its argv ({pair} and {out} filled in), its
# manifest relative to {out}, and the last output it writes
FRAMED = {
    "scene": (["scene", "--width", "46", "--height", "16", "--views",
               "--dx", "3.5", "--out", "{out}/scene.pgm"],
              "scene.pgm.manifest", "view2.pgm"),
    "measure": (["measure", "--views", "{pair}/view1.pgm", "{pair}/view2.pgm",
                 "--rate", "0.5", "--out", "{out}/m.mvm"],
                "m.mvm.manifest", "m.mvm"),
    "reconstruct-single": (["reconstruct", "--meas", "{pair}/meas.mvm",
                            "--mode", "single", "--out", "{out}"],
                           "manifest.txt", "recon.pgm"),
    "reconstruct-joint": (["reconstruct", "--meas", "{pair}/meas.mvm",
                           "--mode", "joint", "--out", "{out}"],
                          "manifest.txt", "view2.pgm"),
    "reconstruct-superres": (["reconstruct", "--meas", "{pair}/meas.mvm",
                              "--mode", "superres", "--out", "{out}"],
                             "manifest.txt", "disjoint2.pgm"),
    "experiment": (["experiment", "--which", "fig4", "--out", "{out}"],
                   "manifest.txt", "superres.pgm"),
}


@pytest.mark.parametrize("argv,manifest,last_output", FRAMED.values(),
                         ids=FRAMED.keys())
def test_main_frames_each_manifest_and_a_failed_command_writes_none(
        offset_pair, tmp_path, capsys, argv, manifest, last_output):
    """main writes every manifest: command and version first, the command's
    own entries, wall_time_s last, each key once.  A command that fails
    after parsing, here on its last output (a directory squats on that
    name), exits 1 and writes no manifest."""
    def run(out):
        return main([a.format(pair=offset_pair, out=out) for a in argv])

    assert run(tmp_path / "ok") == 0
    lines = (tmp_path / "ok" / manifest).read_text(encoding="utf-8").splitlines()
    keys = [line.partition("=")[0] for line in lines]
    assert keys[:2] == ["command", "version"] and keys[-1] == "wall_time_s"
    assert len(set(keys)) == len(keys) > 3
    assert lines[0] == f"command={argv[0]}"
    capsys.readouterr()

    (tmp_path / "bad" / last_output).mkdir(parents=True)
    assert run(tmp_path / "bad") == 1
    assert capsys.readouterr().err.startswith("mvlci:")
    assert not (tmp_path / "bad" / manifest).exists()


# ---------------------------------------------------------------------------
# one parse tree per process, and no command loads scipy
# ---------------------------------------------------------------------------

ACQUIRE_ROUND = (
    ["scene", "--width", "46", "--height", "16", "--seed", "5", "--views",
     "--out", "scene.pgm"],
    ["measure", "--views", "view1.pgm", "view2.pgm", "--rate", "0.5",
     "--noise", "0.01", "--seed", "9", "--out", "m.mvm"],
)


def test_repeated_main_calls_in_one_process_write_the_same_bytes(
        tmp_path, monkeypatch, capsys):
    """Two acquire rounds in one process, with usage errors between them,
    write the same files; relative paths keep the manifests comparable."""
    def run_round(folder):
        folder.mkdir()
        monkeypatch.chdir(folder)
        for argv in ACQUIRE_ROUND:
            assert main(argv) == 0
        files = {path.name: path.read_bytes() for path in folder.iterdir()}
        for name in ("scene.pgm.manifest", "m.mvm.manifest"):
            files[name] = re.sub(rb"wall_time_s=.*\n", b"", files[name])
        return files

    first = run_round(tmp_path / "first")
    with pytest.raises(SystemExit) as exc:
        main(["scene", "--width", "wide", "--out", "scene.pgm"])
    assert exc.value.code == 2
    assert main(["scene", "--views", "--dx", "inf", "--out", "scene.pgm"]) == 2
    capsys.readouterr()
    second = run_round(tmp_path / "second")
    assert sorted(first) == ["m.mvm", "m.mvm.manifest", "scene.pgm",
                             "scene.pgm.manifest", "view1.pgm", "view2.pgm"]
    assert second == first


def test_main_runs_the_command_function_bound_at_call_time(tmp_path, monkeypatch):
    argv = ["scene", "--width", "16", "--height", "8", "--out"]
    assert main(argv + [str(tmp_path / "real.pgm")]) == 0
    seen = []

    def fake_scene(args):
        seen.append(args.out)
        return tmp_path / "fake.manifest", {"fake": 1}

    monkeypatch.setattr(cli, "cmd_scene", fake_scene)
    assert main(argv + [str(tmp_path / "fake.pgm")]) == 0
    assert seen == [str(tmp_path / "fake.pgm")]
    assert not (tmp_path / "fake.pgm").exists()
    assert read_manifest(tmp_path / "fake.manifest")["fake"] == "1"


SCIPY_PROBE = """
import contextlib, io, json, sys
from mvlci.cli import main

out = sys.argv[1]

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

for argv in (["--version"], ["--help"]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main(argv)
        except SystemExit:
            pass
codes = [main(argv) for argv in (
    ["scene", "--width", "46", "--height", "16", "--views",
     "--out", out + "/scene.pgm"],
    ["measure", "--views", out + "/view1.pgm", out + "/view2.pgm",
     "--rate", "0.5", "--out", out + "/m.mvm"],
    ["reconstruct", "--meas", out + "/m.mvm", "--max-iters", "3",
     "--out", out + "/single"],
)]
before = scipy_modules()
codes += [main(["reconstruct", "--meas", out + "/m.mvm", "--mode", mode,
                "--max-iters", "3", "--out", out + "/" + mode])
          for mode in ("joint", "superres")]
print(json.dumps({"codes": codes, "before": before, "after": scipy_modules()}))
"""


def test_no_command_loads_scipy(tmp_path):
    """In a fresh interpreter, --version, --help, scene, measure and
    single, joint and superres reconstructs load no scipy module."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    found = json.loads(run.stdout.splitlines()[-1])
    assert found["codes"] == [0, 0, 0, 0, 0]
    assert found["before"] == []
    assert found["after"] == []
