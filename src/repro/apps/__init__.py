"""Model scientific applications (paper §VI).

Scaled-down stand-ins for Nek5000, CAM, GTC and S3D whose data structures,
phase structure and per-structure access mixes follow the paper's
published measurements. Each app is a `Program`: it drives an
:class:`~repro.instrument.InstrumentedRuntime` through a pre-computing
phase, ``n_iterations`` main-loop iterations, and a post-processing phase.
"""

from repro.apps.base import ModelApp, StructureSpec, RoutineSpec, AppInfo
from repro.apps.nek5000 import Nek5000
from repro.apps.cam import CAM
from repro.apps.gtc import GTC
from repro.apps.s3d import S3D
from repro.apps.registry import APPLICATIONS, create_app
from repro.apps.variants import (
    VARIANTS,
    VARIANT_OF,
    Nek5000MovingBoundary,
    GTCHighDensity,
    S3DLargeGrid,
    CAMHighResolution,
)

__all__ = [
    "ModelApp",
    "StructureSpec",
    "RoutineSpec",
    "AppInfo",
    "Nek5000",
    "CAM",
    "GTC",
    "S3D",
    "APPLICATIONS",
    "create_app",
    "VARIANTS",
    "VARIANT_OF",
    "Nek5000MovingBoundary",
    "GTCHighDensity",
    "S3DLargeGrid",
    "CAMHighResolution",
]
