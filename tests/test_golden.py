"""Byte-identity gate for the plant: pinned run.csv digests and a bitwise
check of the leg-terms kernel against its reference formula.

The digests were taken from ``hopsim run`` before the plant's inner loop was
rebuilt to evaluate each leg configuration once.  A change that is meant to
alter the telemetry must regenerate them on purpose and say so.
"""

import hashlib
import math
import struct

import pytest
from hypothesis import given, strategies as st

from hopsim import sim
from hopsim.cli import main
from hopsim.model import LegGeometry

SPRING_CONFIG = "[run]\npreset = physical-force\ncontroller = spring\n"

# (controller, --dt or None) -> sha256 of run.csv for a 1-hop run.
GOLDEN = {
    ("force", None): "e77a3777cdff9431a95a58c0143edcfcdbf82710542e62d6b9e7176864059e87",
    ("force", "2.5e-5"): "60682e2e5f5b47da5899cf6e9b5e59a9e6e234465af7accb383bf454190fe051",
    ("position", None): "087cef4c19cb9c2623980fec8163bf37f0bf2a73c10aa6e097b51c672b3b97c1",
    ("position", "2.5e-5"): "92579cfcc972b8d5476ee7b4ea3e5e3c7b91596e9277836b15c056c550087bbf",
    ("spring", None): "e8f601ea8b9e69a8e054ca40c97b82f973dd738f5e3cdf383b7c235303bd09a5",
    ("spring", "2.5e-5"): "c93274e78dcfb16a99114fc93777fbb91a8f5438c170673efd71cf7f8282fc82",
}


@pytest.mark.parametrize(("controller", "dt"), sorted(GOLDEN, key=str))
def test_run_csv_digest(tmp_path, controller, dt):
    if controller == "spring":
        cfg = tmp_path / "spring.cfg"
        cfg.write_text(SPRING_CONFIG)
        source = ["--config", str(cfg)]
    else:
        source = ["--preset", f"physical-{controller}"]
    out = tmp_path / "out"
    argv = ["run", *source, "--hops", "1", "--out", str(out)]
    if dt is not None:
        argv += ["--dt", dt]
    assert main(argv) == 0
    digest = hashlib.sha256((out / "run.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[(controller, dt)]


def reference_leg_terms(y_rel, geo):
    """The leg-terms formula as first written, kept verbatim as the oracle."""
    lo = abs(geo.L1 - geo.L2) + 1e-3
    hi = geo.L1 + geo.L2 - 1e-3
    y = min(max(y_rel, lo), hi)
    cos_gamma = (geo.L1**2 + geo.L2**2 - y * y) / (2.0 * geo.L1 * geo.L2)
    cos_gamma = min(1.0, max(-1.0, cos_gamma))
    gamma = math.acos(cos_gamma)
    theta_k = geo.knee_sign * (math.pi - gamma)
    sin_k = math.sin(theta_k)
    cos_k = -cos_gamma
    dy_dknee = -geo.L1 * geo.L2 * sin_k / y
    dhip_dknee = -geo.L2 * (geo.L2 + geo.L1 * cos_k) / (y * y)
    return theta_k, dy_dknee, dhip_dknee


def bits(values):
    return tuple(struct.pack("<d", v) for v in values)


links = st.floats(min_value=0.01, max_value=2.0)


@given(
    L1=links,
    L2=links,
    knee_sign=st.sampled_from([1, -1]),
    # well past both stops, so clamped lengths are drawn as often as free ones
    scale=st.floats(min_value=-0.5, max_value=1.5),
)
def test_leg_terms_bitwise_equal_to_reference(L1, L2, knee_sign, scale):
    geo = LegGeometry(L1=L1, L2=L2, knee_sign=knee_sign)
    lo, hi = abs(L1 - L2), L1 + L2
    y_rel = lo + scale * (hi - lo)
    assert bits(sim._leg_terms(y_rel, geo)) == bits(reference_leg_terms(y_rel, geo))


@pytest.mark.parametrize(
    "y_rel", [0.0, -1.0, 0.019, 0.020, 0.74, 10.0, math.inf, -math.inf, math.nan]
)
@pytest.mark.parametrize(
    "geo",
    [
        LegGeometry(),
        LegGeometry(L1=0.3, L2=0.45, knee_sign=-1),
        # a link shorter than the margin: the stops cross and the order of
        # the two caps decides the length
        LegGeometry(L1=0.0004, L2=0.3),
    ],
)
def test_leg_terms_bitwise_at_stops_and_limits(geo, y_rel):
    assert bits(sim._leg_terms(y_rel, geo)) == bits(reference_leg_terms(y_rel, geo))
