"""End-to-end command-line pipeline: scene -> measure -> reconstruct."""

import re

import numpy as np
import pytest

from mvlci.cli import build_parser, main
from mvlci.pgm import read_pgm, write_pgm
from mvlci.sensing import MeasurementSet, SensingSpec, read_mvm, select_rows, write_mvm
from mvlci.solver import SolverConfig, epsilon_for_noise


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


@pytest.mark.parametrize("mode, blocks", [("single", 1), ("joint", 2)],
                         ids=["single", "joint"])
def test_reconstruct_verbose_logs_each_iteration_to_stderr(colocated, tmp_path,
                                                           capsys, mode, blocks):
    """One line per iteration with one residual column per measurement
    block; the last line agrees with the manifest."""
    out = tmp_path / "rec"
    assert main(["reconstruct", "--meas", str(colocated / "meas.mvm"),
                 "--mode", mode, "--dx", "0", "--verbose", "--max-iters", "3",
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


def test_reconstruct_defaults_are_the_solver_config_defaults():
    args = build_parser().parse_args(["reconstruct", "--meas", "m", "--out", "o"])
    cfg = SolverConfig()
    assert (args.max_iters, args.tol, args.sigma) == (
        cfg.max_iters, cfg.rel_tol, cfg.sigma)
    # the noise level comes from the measurement file, never from a flag
    assert not hasattr(args, "epsilon") and not hasattr(args, "noise_sigma")


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
    ["--sigma", "inf"],
    ["--sigma", "0"],
    ["--sigma", "-1"],
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
