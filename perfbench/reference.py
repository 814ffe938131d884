"""Closed-form reference model used to check the benchmark's outputs.

Everything here is written from the model's equations, straight from the
tube and tendon dimensions, and never calls into ``helikin``'s geometry,
kinematics, estimation or simulation code. That independence is the
point: a change to those modules that alters a result is caught here
instead of agreeing with itself.

Units follow the package: mm, N, rad; tendon area m^2, modulus GPa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative tolerance of every numeric check, against the device's length
# scale for lengths and against 1 rad for angles.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Device:
    """Closed-form constants of one tube/tendon pair."""

    na_offset: float         # composite neutral-axis offset y_na
    na_length: float         # neutral-fiber length l_na
    tendon_na: float         # tendon to neutral-axis distance d
    slack_length: float      # tendon length at rest l_t0
    turns: int
    outer_radius: float
    mm_per_newton: float     # elastic elongation per newton of tension

    @classmethod
    def from_specs(cls, tube, tendon) -> "Device":
        ri, ro, alpha = tube.inner_radius, tube.outer_radius, tube.remaining_half_angle
        y_notch = (2.0 / 3.0) * math.sin(alpha) * (ro**3 - ri**3) / (alpha * (ro**2 - ri**2))
        y_na = y_notch * tube.notch_axial_width / (tube.notch_axial_width + tube.bridge_length)
        k = 2.0 * math.pi * tube.turn_count
        return cls(
            na_offset=y_na,
            na_length=math.hypot(tube.patterned_length, k * y_na),
            tendon_na=y_na + ri - tube.tendon_radius,
            slack_length=math.hypot(tube.patterned_length, k * (ri - tube.tendon_radius)),
            turns=tube.turn_count,
            outer_radius=ro,
            mm_per_newton=tendon.total_length
            / (tendon.cross_section_area * tendon.elastic_modulus * 1e9),
        )

    @property
    def k(self) -> float:
        return 2.0 * math.pi * self.turns

    def max_stroke(self, tension: float = 0.0) -> float:
        """Largest valid stroke: H^2 = 0 where l_t = l_na - 2 pi n d."""
        return self.slack_length + tension * self.mm_per_newton - (
            self.na_length - self.k * self.tendon_na
        )

    def joints(self, strokes, tensions):
        """(valid, R, H, phi) arrays for stroke/tension arrays.

        valid follows the model's domain: non-negative inputs, a positive
        tendon length below the growth bound l_na + 2 pi n d, R > 0 and
        H^2 > 0. R, H and phi are nan where invalid.
        """
        strokes = np.asarray(strokes, dtype=float)
        tensions = np.asarray(tensions, dtype=float)
        k, d = self.k, self.tendon_na
        length = self.slack_length - strokes + tensions * self.mm_per_newton
        radius = (self.na_length**2 - length**2) / (2.0 * k * k * d) + d / 2.0
        height_sq = length**2 - (k * (radius - d)) ** 2
        valid = (
            (strokes >= 0.0)
            & (tensions >= 0.0)
            & (length > 0.0)
            & (length < self.na_length + k * d)
            & (radius > 0.0)
            & (height_sq > 0.0)
        )
        height = np.sqrt(np.where(valid, height_sq, np.nan))
        radius = np.where(valid, radius, np.nan)
        phi = np.arctan2(k * (radius - self.na_offset), height)
        return valid, radius, height, phi

    def points(self, radius, height, phi, roll, s):
        """Centerline points in O_0, shape broadcast(joint) + (len(s), 3).

        The centerline is a helix of radius R - y_na about the cylinder
        axis, anchored at the origin, tilted by -phi about Y and rolled by
        theta about X.
        """
        radius, height, phi, roll = (
            np.asarray(v, dtype=float)[..., None] for v in (radius, height, phi, roll)
        )
        s = np.asarray(s, dtype=float)
        rho = radius - self.na_offset
        angle = self.k * s / self.na_length
        hx = s * height / self.na_length
        hy = rho * (1.0 - np.cos(angle))
        hz = rho * np.sin(angle)
        x1 = np.cos(phi) * hx - np.sin(phi) * hz
        z1 = np.sin(phi) * hx + np.cos(phi) * hz
        return np.stack(
            [x1, np.cos(roll) * hy - np.sin(roll) * z1, np.sin(roll) * hy + np.cos(roll) * z1],
            axis=-1,
        )

    def position_estimate(self, tips):
        """(H, phi_truth, R, phi_model) columns from measured tips (N, 3)."""
        tips = np.atleast_2d(np.asarray(tips, dtype=float))
        height = np.sqrt(np.sum(tips * tips, axis=1))
        phi_truth = np.arccos(np.clip(tips[:, 0] / height, -1.0, 1.0))
        radius = np.sqrt(np.maximum(self.na_length**2 - height**2, 0.0)) / self.k
        phi_model = np.arctan2(self.k * (radius - self.na_offset), height)
        return np.column_stack([height, phi_truth, radius, phi_model])

    def clearance(self, radius, phantom_radius: float) -> float:
        """Clearance of every centerline point to a phantom on the cylinder axis."""
        return radius - self.na_offset - phantom_radius - self.outer_radius


def distances(a, b):
    """(max distance, rmse) between index-aligned (N, 3) point arrays."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    d = np.sqrt(np.sum(diff * diff, axis=1))
    return float(d.max()), float(math.sqrt(float(np.mean(d * d))))


def mismatch(label: str, got, want, scale: float = 1.0) -> str | None:
    """None if got matches want to REL_TOL of max(scale, |want|), else a message."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"{label}: shape {got.shape} != reference {want.shape}"
    if got.size == 0:
        return None
    tol = REL_TOL * max(scale, float(np.max(np.abs(want))))
    err = float(np.max(np.abs(got - want)))
    if not err <= tol:
        return f"{label}: max error {err:.3g} exceeds {tol:.3g}"
    return None
