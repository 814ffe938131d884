"""Independent oracles used to pin expected values.

Each oracle deliberately avoids the code path it checks: quadrature
instead of the closed-form centroid, chord summation instead of the helix
length formula, root finding on the defining equations instead of the
eliminated closed form. ``write_marker_table`` builds marker CSV inputs
through the public table writer.
"""

import math

import numpy as np
from scipy.optimize import brentq

from helikin import fileio


def midpoint_notch_offset(inner_radius, outer_radius, half_angle, m_r=4096, m_psi=16384):
    """2-D midpoint-rule quadrature of the sector-centroid integrals.

    The integrands factor as f(r) g(psi), so the double midpoint sum
    sum_ij f(r_i) g(psi_j) dr dpsi equals (sum_i f(r_i) dr)(sum_j g(psi_j)
    dpsi) exactly; computing it factored just avoids materializing the
    m_r x m_psi product grid.
    """
    dr = (outer_radius - inner_radius) / m_r
    dpsi = 2.0 * half_angle / m_psi
    r = inner_radius + (np.arange(m_r) + 0.5) * dr
    psi = -half_angle + (np.arange(m_psi) + 0.5) * dpsi
    numerator = np.sum(r**2) * dr * np.sum(np.cos(psi)) * dpsi
    denominator = np.sum(r) * dr * (m_psi * dpsi)
    return numerator / denominator


def helix_arclength_chords(axial_length, radius, turns=1, segments=200_000):
    """Numeric arc length of the helix x(t) = l t, radius about the x axis."""
    t = np.linspace(0.0, 1.0, segments + 1)
    angle = 2.0 * math.pi * turns * t
    points = np.column_stack(
        [axial_length * t, radius * np.cos(angle), radius * np.sin(angle)]
    )
    return float(np.sum(np.linalg.norm(np.diff(points, axis=0), axis=1)))


def solve_cylinder_rootfind(tendon_length, na_length, tendon_na_distance, turns=1):
    """(R, H) by root finding on the two helix-length equations.

    Uses the constraint pair directly: the neutral fiber keeps length
    na_length at radius R and the tendon has length tendon_length at
    radius R - tendon_na_distance, both sharing the height H.
    """
    two_pi_n = 2.0 * math.pi * turns

    def residual(radius):
        height_sq = na_length**2 - (two_pi_n * radius) ** 2
        height = math.sqrt(max(height_sq, 0.0))
        return math.hypot(height, two_pi_n * (radius - tendon_na_distance)) - tendon_length

    upper = na_length / two_pi_n * (1.0 - 1e-12)
    radius = brentq(residual, 1e-9, upper, xtol=1e-13, rtol=1e-15)
    height = math.sqrt(na_length**2 - (two_pi_n * radius) ** 2)
    return radius, height


def point_line_distance(points, line_point, line_direction):
    """Brute-force distances from points to an infinite line."""
    direction = np.asarray(line_direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    offsets = np.atleast_2d(points) - np.asarray(line_point, dtype=float)
    along = offsets @ direction
    return np.linalg.norm(offsets - np.outer(along, direction), axis=1)


def _rotation_x(angle):
    """Right-handed rotation about X."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rotation_y(angle):
    """Right-handed rotation about Y."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def centerline_two_rotations(joint, geom, s):
    """Centerline points and cylinder axis by the two-rotation formula.

    The helix is stacked column by column and mapped through one
    Rx(theta) @ Ry(-phi) matrix, where the package builds its frame as a
    roll matrix times a stack of tilts; equal bytes pin the package to this
    formula. Takes clamped, sorted arc lengths ``s`` and returns
    (points, Rx(theta) @ Ry(-phi), axis point, axis direction).
    """
    bend_radius = joint.cylinder_radius - geom.composite_na_offset
    angle = 2.0 * math.pi * geom.turn_count * s / geom.na_length
    helix = np.column_stack(
        [
            s * joint.cylinder_height / geom.na_length,
            -bend_radius * np.cos(angle),
            bend_radius * np.sin(angle),
        ]
    )
    helix[:, 1] += bend_radius
    transform = _rotation_x(joint.roll) @ _rotation_y(-joint.deflection)
    point = _rotation_x(joint.roll) @ np.array([0.0, bend_radius, 0.0])
    direction = transform @ np.array([1.0, 0.0, 0.0])
    return helix @ transform.T, transform, point, direction


def random_rotation(rng):
    """A uniformly random proper rotation from the QR factorisation of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def ftl_bodies_one_by_one(master, tips):
    """Each follow-the-leader body as (s, points), built alone from two FK curves.

    Body k keeps the master samples with s <= s_tip * (1 + 1e-15), then
    appends tip row k unless the last kept sample already reaches s_tip.
    """
    bodies = []
    for s_tip, tip in zip(tips.s, tips.points):
        keep = master.s <= s_tip * (1.0 + 1e-15)
        s, points = master.s[keep], master.points[keep]
        if s[-1] < s_tip:
            s, points = np.append(s, s_tip), np.vstack([points, tip])
        bodies.append((s, points))
    return bodies


def write_marker_table(path, index, points, strokes=None, tensions=None):
    """A marker CSV through ``fileio.write_table_csv``: eta, x, y, z, then dl_t_mm and T_N if strokes are given.

    Tensions default to 0.
    """
    header, columns = ["eta", "x_mm", "y_mm", "z_mm"], [index, *np.asarray(points, dtype=float).T]
    if strokes is not None:
        header += ["dl_t_mm", "T_N"]
        columns += [strokes, np.zeros_like(strokes, dtype=float) if tensions is None else tensions]
    fileio.write_table_csv(path, header, columns)
