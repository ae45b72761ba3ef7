"""Multi-view lensless compressive imaging simulation and reconstruction.

A flat aperture displays binary Hadamard patterns in front of two point
sensors; each sensor records one inner product per pattern.  This package
simulates that acquisition for planar test scenes and reconstructs the
views by total-variation minimization: per sensor, jointly across both
sensors, or onto a double-horizontal-resolution grid using the sensors'
fractional-pixel parallax offset.  Each name is imported from its module
(mvlci.sensing, mvlci.solver, ...); the package itself holds only
__version__.
"""

__version__ = "0.1.0"
