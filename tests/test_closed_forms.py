"""Carried errors against closed forms: each row's quadrature value must lie
within the error it carries of the exact value.

The rows are immersions built as charts with no declared product structure,
so they take the pencil route; each row names its chart, its box and its
radius.  The values of one box come from one region_integrals call.
"""

import math
from functools import cache

import pytest

from solab.charts import ParamSpec, chart_from_sources
from solab.geometry import Immersion
from solab.quadrature import ExtrinsicRegion, RegionJob, region_integrals


def s1_times_r2(extent):
    """S^1 x R^2 in R^4 over u1 in [0, 2 pi) (periodic) and |u2|, |u3| <= extent."""
    chart = chart_from_sources(
        3,
        4,
        ["cos(u1)", "sin(u1)", "u2", "u3"],
        [
            ParamSpec("u1", 0.0, 2 * math.pi, periodic=True),
            ParamSpec("u2", -extent, extent),
            ParamSpec("u3", -extent, extent),
        ],
    )
    return Immersion(chart, properness_radius=math.hypot(1.0, extent), name="s1xr2")


# balls just above the waist r = 1, where a region box of sampled points
# clipped the periodic axis or found no point at all
S1XR2_RADII = (1.02, 1.05, 1.1, 1.2, 1.3)
S1XR2_BOXES = (4.0, 8.0)


@cache
def s1xr2_volumes(extent):
    """Vol(D_R) at every radius of S1XR2_RADII, in one region_integrals call."""
    imm = s1_times_r2(extent)
    return region_integrals(imm, [RegionJob(ExtrinsicRegion(imm, 0.0, R)) for R in S1XR2_RADII])


@pytest.mark.parametrize("extent", S1XR2_BOXES, ids=lambda e: f"box{e:g}")
@pytest.mark.parametrize("R", S1XR2_RADII, ids=lambda R: f"R{R:g}")
def test_s1xr2_ball_volume(extent, R):
    # Vol(D_R) = 2 pi * pi (R^2 - 1): the circle times the disk of radius
    # sqrt(R^2 - 1)
    res = s1xr2_volumes(extent)[S1XR2_RADII.index(R)]
    exact = 2 * math.pi**2 * (R * R - 1.0)
    assert res.method == "pencil"
    assert abs(res.value - exact) <= res.error
