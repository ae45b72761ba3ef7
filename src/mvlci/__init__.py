"""Multi-view lensless compressive imaging simulation and reconstruction.

A flat aperture displays binary Hadamard patterns in front of two point
sensors; each sensor records one inner product per pattern.  This package
simulates that acquisition for planar test scenes and reconstructs the
views by total-variation minimization: per sensor, jointly across both
sensors, or onto a double-horizontal-resolution grid using the sensors'
fractional-pixel parallax offset.
"""

__version__ = "0.1.0"

from .pgm import clamp01, read_pgm, write_pgm
from .scene import (
    CameraGeometry,
    SceneModel,
    make_test_scene,
    parallax_shift,
    render_view,
)
from .sensing import (
    MeasurementSet,
    SensingSpec,
    acquire,
    add_noise,
    fwht,
    measure,
    measure_adjoint,
    order_for_pixels,
    read_mvm,
    select_rows,
    write_mvm,
)
from .geometry import (
    RegionMasks,
    ShiftOperator,
    apply_shift,
    build_region_masks,
    build_shift,
)
from .solver import (
    ReconstructionResult,
    SolverConfig,
    SolverError,
    epsilon_for_noise,
    reconstruct_joint,
    reconstruct_single,
    reconstruct_superres,
    tv_shrink,
)
from .experiments import (
    ExperimentReport,
    psnr,
    run_measurement_increase,
    run_superres,
    ssim,
    upsample2x_horizontal,
)

__all__ = [
    "CameraGeometry",
    "ExperimentReport",
    "MeasurementSet",
    "ReconstructionResult",
    "RegionMasks",
    "SceneModel",
    "SensingSpec",
    "ShiftOperator",
    "SolverConfig",
    "SolverError",
    "acquire",
    "add_noise",
    "apply_shift",
    "build_region_masks",
    "build_shift",
    "clamp01",
    "epsilon_for_noise",
    "fwht",
    "make_test_scene",
    "measure",
    "measure_adjoint",
    "order_for_pixels",
    "parallax_shift",
    "psnr",
    "read_mvm",
    "read_pgm",
    "reconstruct_joint",
    "reconstruct_single",
    "reconstruct_superres",
    "render_view",
    "run_measurement_increase",
    "run_superres",
    "select_rows",
    "ssim",
    "tv_shrink",
    "upsample2x_horizontal",
    "write_mvm",
    "write_pgm",
]
