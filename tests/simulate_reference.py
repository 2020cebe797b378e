"""References for the track geometry, the ground-truth driver and the sensor model.

The projection onto a centerline searches a grid of its segments, the
ground-truth driver steps in plain floats and ``observe_cones`` reads cached
step tables and the track's coordinate columns. The functions here are the
forms they replaced, which tests pin them to bit for bit: the projection
that scans every segment, the driver's ``np.searchsorted`` lookup and numpy
position difference, and the sensor model that rebuilds its step tables and
stacks the body-frame points of every cone on each call.
"""

import math

import numpy as np

from conetrack.core import COV_EIGENVALUE_FLOOR, ObservationBatch, Pose2, Velocity2, normalize_angle


def all_segments_nearest_arc_length(geom, point) -> float:
    """Arc length of the exact orthogonal projection of ``point`` onto ``geom``'s polyline, every segment scanned."""
    p = np.asarray(point, dtype=float)
    rel = p - geom.points
    t = np.clip((rel[:, 0] * geom._seg[:, 0] + rel[:, 1] * geom._seg[:, 1]) / geom._seg_len**2, 0.0, 1.0)
    foot = geom.points + t[:, None] * geom._seg
    d2 = np.sum((p - foot) ** 2, axis=1)
    i = int(np.argmin(d2))
    return float(geom.cum_s[i] + t[i] * geom._seg_len[i])


def searchsorted_pose_at(geom, s: float) -> Pose2:
    """``CenterlineGeometry.pose_at`` with one ``np.searchsorted`` per lookup and numpy row arithmetic."""
    s = s % geom.length
    i = min(int(np.searchsorted(geom.cum_s, s, side="right") - 1), len(geom._seg) - 1)
    t = (s - geom.cum_s[i]) / geom._seg_len[i]
    p = geom.points[i] + t * geom._seg[i]
    return Pose2(p[0], p[1], math.atan2(geom._seg[i, 1], geom._seg[i, 0]))


def reference_centerline_poses(geom, speed_profile, dt: float):
    """``simulate.centerline_poses`` through :func:`searchsorted_pose_at`."""
    arcs = np.array([s for s, _ in speed_profile], dtype=float)
    speeds = np.array([v for _, v in speed_profile], dtype=float)
    s = 0.0
    while s < geom.length:
        yield searchsorted_pose_at(geom, s)
        s += float(np.interp(s, arcs, speeds)) * dt


def reference_discrete_frames(poses, dt: float):
    """``simulate.discrete_frames`` with the position difference taken as numpy arrays."""
    prev = None
    for k, pose in enumerate(poses):
        if prev is None:
            yield 0.0, 0.0, pose, Velocity2.zero()
        else:
            d = pose.position - prev.position
            c, s = math.cos(prev.theta), math.sin(prev.theta)
            vel = Velocity2(
                (c * d[0] + s * d[1]) / dt,
                (-s * d[0] + c * d[1]) / dt,
                normalize_angle(pose.theta - prev.theta) / dt,
            )
            yield k * dt, dt, pose, vel
        prev = pose


def rebuilt_step_lookup(bins, ranges) -> np.ndarray:
    """A profile's step function at ``ranges``, its tables built from the ``(edge, value)`` pairs on each call."""
    edges = np.array([e for e, _ in bins])
    values = np.array([v for _, v in bins])
    idx = np.minimum(np.searchsorted(edges, ranges, side="left"), len(values) - 1)
    return values[idx]


def reference_observe_cones(track, true_pose, profile, rng, timestamp) -> ObservationBatch:
    """``simulate.observe_cones`` stacking every cone's body-frame point and rebuilding the step tables."""
    c, s = math.cos(true_pose.theta), math.sin(true_pose.theta)
    dx, dy = track.positions[:, 0] - true_pose.x, track.positions[:, 1] - true_pose.y
    x, y = np.stack([c * dx + s * dy, -s * dx + c * dy], axis=-1).T
    ranges = np.hypot(x, y)
    in_range = np.flatnonzero(ranges <= profile.max_range_m)
    idx = in_range[np.abs(np.arctan2(y[in_range], x[in_range])) <= profile.fov_half_angle_rad]
    detected = idx[rng.random(len(idx)) < rebuilt_step_lookup(profile.recall_bins, ranges[idx])]

    r = ranges[detected]
    sigma = profile.position_sigma(r)
    noise = rng.normal(size=(len(detected), 2)) * sigma[:, None]
    correct = rng.random(len(detected)) < rebuilt_step_lookup(profile.color_accuracy_bins, r)
    alt_pick = rng.integers(0, 2, size=len(detected))
    true_idx = track.colors[detected]
    classes = np.where(correct, true_idx, alt_pick + (alt_pick >= true_idx))
    means = np.column_stack([x[detected], y[detected]]) + noise

    n_fp = int(rng.poisson(profile.false_positives_per_frame))
    if n_fp:
        fp_bearing = rng.uniform(-profile.fov_half_angle_rad, profile.fov_half_angle_rad, size=n_fp)
        fp_range = profile.max_range_m * np.sqrt(rng.random(n_fp))
        means = np.concatenate([means, np.column_stack([fp_range * np.cos(fp_bearing), fp_range * np.sin(fp_bearing)])])
        sigma = np.concatenate([sigma, profile.position_sigma(fp_range)])
        classes = np.concatenate([classes, rng.integers(0, 3, size=n_fp)])

    variances = np.maximum(np.float_power(sigma, 2), COV_EIGENVALUE_FLOOR)
    covs = np.zeros((len(sigma), 2, 2))
    covs[:, 0, 0] = covs[:, 1, 1] = variances
    colors = np.full((len(classes), 3), (1.0 - profile.color_confidence) / 2.0)
    colors[np.arange(len(classes)), classes] = profile.color_confidence
    return ObservationBatch(profile.source, timestamp, means, covs, colors)
