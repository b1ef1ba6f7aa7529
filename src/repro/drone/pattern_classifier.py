"""Trajectory-based flight-pattern classification.

The paper requires patterns to be "unmistakable flight patterns and thus
... an embodied statement of intent".  Unmistakable is testable: given
only the flown trajectory (what a human collaborator observes), the
pattern must be recoverable.  This classifier extracts simple motion
features — vertical oscillations, yaw oscillations, horizontal loop
closure, net travel — and applies transparent rules; the
confusion-matrix test in ``tests/drone/test_pattern_classifier.py``
checks every pattern maps to itself under calm and gusty wind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.drone.patterns import PatternKind
from repro.geometry.rotation import degrees_difference

__all__ = ["TrajectorySample", "TrajectoryFeatures", "extract_features", "classify_trajectory"]


@dataclass(frozen=True, slots=True)
class TrajectorySample:
    """One observed state: time, position and heading."""

    time_s: float
    x: float
    y: float
    z: float
    heading_deg: float


@dataclass(frozen=True, slots=True)
class TrajectoryFeatures:
    """Motion features used for rule-based classification."""

    duration_s: float
    net_horizontal_m: float  # |end - start| on the ground plane
    path_horizontal_m: float  # horizontal arc length
    net_vertical_m: float  # z_end - z_start
    vertical_span_m: float  # max z - min z
    vertical_reversals: int  # sign changes of vertical velocity
    yaw_reversals: int  # sign changes of yaw rate
    yaw_span_deg: float  # peak-to-peak heading excursion
    loop_closure: float  # how closed the horizontal path is, [0, 1]
    horizontal_area_m2: float  # shoelace area of the horizontal path

    @property
    def horizontal_rate_mps(self) -> float:
        """Mean horizontal wander rate — robust against duration inflation."""
        if self.duration_s <= 0:
            return 0.0
        return self.path_horizontal_m / self.duration_s


def extract_features(samples: list[TrajectorySample]) -> TrajectoryFeatures:
    """Compute :class:`TrajectoryFeatures` from a trajectory.

    Raises
    ------
    ValueError
        If fewer than three samples are given.
    """
    if len(samples) < 3:
        raise ValueError("need at least three trajectory samples")
    t = np.array([s.time_s for s in samples])
    x = np.array([s.x for s in samples])
    y = np.array([s.y for s in samples])
    z = np.array([s.z for s in samples])
    heading = np.array([s.heading_deg for s in samples])

    # Decimate to ~5 Hz: an observer perceives the gross motion, not the
    # 50 Hz controller ripple, and wind jitter would otherwise inflate
    # path-length features.
    duration = float(t[-1] - t[0])
    if duration > 0 and len(t) > 3:
        median_dt = float(np.median(np.diff(t)))
        stride = max(1, int(round(0.2 / max(median_dt, 1e-6))))
        if stride > 1:
            keep = np.arange(0, len(t), stride)
            if keep[-1] != len(t) - 1:
                keep = np.append(keep, len(t) - 1)
            t, x, y, z, heading = t[keep], x[keep], y[keep], z[keep], heading[keep]

    dx, dy = np.diff(x), np.diff(y)
    horizontal_steps = np.hypot(dx, dy)
    path_horizontal = float(horizontal_steps.sum())
    net_horizontal = float(np.hypot(x[-1] - x[0], y[-1] - y[0]))

    vertical_reversals = _count_direction_changes(z, prominence=0.15)

    yaw_rates = np.array(
        [degrees_difference(b, a) for a, b in zip(heading[:-1], heading[1:])]
    )
    yaw_unwrapped = np.concatenate([[0.0], np.cumsum(yaw_rates)])
    yaw_reversals = _count_direction_changes(yaw_unwrapped, prominence=10.0)
    yaw_span = float(yaw_unwrapped.max() - yaw_unwrapped.min())

    loop_closure = 0.0
    if path_horizontal > 1e-6:
        loop_closure = max(0.0, 1.0 - net_horizontal / path_horizontal)
    area = float(
        abs(np.dot(x[:-1], y[1:]) - np.dot(y[:-1], x[1:]) + x[-1] * y[0] - y[-1] * x[0]) / 2.0
    )

    return TrajectoryFeatures(
        duration_s=float(t[-1] - t[0]),
        net_horizontal_m=net_horizontal,
        path_horizontal_m=path_horizontal,
        net_vertical_m=float(z[-1] - z[0]),
        vertical_span_m=float(z.max() - z.min()),
        vertical_reversals=vertical_reversals,
        yaw_reversals=yaw_reversals,
        yaw_span_deg=yaw_span,
        loop_closure=loop_closure,
        horizontal_area_m2=area,
    )


def classify_trajectory(samples: list[TrajectorySample]) -> PatternKind | None:
    """Classify the flown pattern, or ``None`` when nothing matches.

    The rules are ordered from most to least specific; thresholds assume
    the default pattern parameters of :mod:`repro.drone.patterns` with
    headroom for moderate wind disturbance.
    """
    f = extract_features(samples)

    # Yaw shake with little translation: TURN ("no").  Wind makes the
    # drone wander, so translation is judged by *rate*, not path length.
    if f.yaw_reversals >= 3 and f.yaw_span_deg >= 40.0 and f.horizontal_rate_mps < 0.35:
        return PatternKind.TURN

    # Repeated vertical bobbing with no net altitude change: NOD ("yes").
    if (
        f.vertical_reversals >= 3
        and f.vertical_span_m >= 0.3
        and abs(f.net_vertical_m) < 0.3
        and f.horizontal_rate_mps < 0.35
        and f.yaw_reversals < 3
    ):
        return PatternKind.NOD

    # Monotonic climb from the ground: TAKE_OFF.
    if f.net_vertical_m >= 1.0 and f.net_horizontal_m < 1.5 and f.vertical_reversals <= 1:
        return PatternKind.TAKE_OFF

    # Monotonic descent to the ground: LANDING.
    if f.net_vertical_m <= -1.0 and f.net_horizontal_m < 1.5 and f.vertical_reversals <= 1:
        return PatternKind.LANDING

    # Closed horizontal loop with enclosed area: RECTANGLE.
    if f.loop_closure >= 0.75 and f.horizontal_area_m2 >= 1.0 and f.vertical_span_m < 1.0:
        return PatternKind.RECTANGLE

    # Darting back and forth towards a point: POKE — a closed path walked
    # briskly, with negligible enclosed area and no yaw shaking.
    if (
        f.loop_closure >= 0.6
        and f.horizontal_rate_mps >= 0.3
        and f.path_horizontal_m >= 1.5
        and f.horizontal_area_m2 < 1.0
        and f.vertical_span_m < 0.8
        and f.yaw_reversals < 3
    ):
        return PatternKind.POKE

    # Sustained horizontal travel at height: CRUISE.
    if f.net_horizontal_m >= 2.0 and f.loop_closure < 0.5 and abs(f.net_vertical_m) < 1.0:
        return PatternKind.CRUISE

    return None


def _count_direction_changes(series: np.ndarray, prominence: float) -> int:
    """Count direction reversals of *series*, ignoring ripples.

    A reversal is counted each time the series retreats from its running
    extreme by more than *prominence* — robust to sampling rate and to
    controller ripple, unlike counting per-sample sign changes.
    """
    if len(series) < 2:
        return 0
    reversals = 0
    direction = 0  # +1 rising, -1 falling, 0 undetermined
    anchor = float(series[0])  # running extreme in the current direction
    for value in series[1:]:
        v = float(value)
        if direction == 0:
            if v - anchor > prominence:
                direction = +1
                anchor = v
            elif anchor - v > prominence:
                direction = -1
                anchor = v
        elif direction == +1:
            if v > anchor:
                anchor = v
            elif anchor - v > prominence:
                reversals += 1
                direction = -1
                anchor = v
        else:
            if v < anchor:
                anchor = v
            elif v - anchor > prominence:
                reversals += 1
                direction = +1
                anchor = v
    return reversals
