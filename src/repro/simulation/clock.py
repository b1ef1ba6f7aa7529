"""The simulation clock.

A fixed-step discrete-time clock shared by every simulated component.
Fixed steps (default 50 Hz) keep the quadrotor integration stable and
make runs exactly reproducible, which the protocol tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SimClock"]

DEFAULT_TIME_STEP_S = 0.02  # 50 Hz


@dataclass
class SimClock:
    """Monotonic fixed-step simulation time.

    Attributes
    ----------
    time_step_s:
        Duration of one tick in seconds.
    """

    time_step_s: float = DEFAULT_TIME_STEP_S
    _ticks: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.time_step_s <= 0:
            raise ValueError("time step must be positive")
        #: Current simulation time in seconds (``ticks * time_step_s``),
        #: a plain attribute that :meth:`tick` and :meth:`advance` keep:
        #: every entity reads it every tick.
        self.now_s = self._ticks * self.time_step_s

    @property
    def ticks(self) -> int:
        """Number of completed ticks."""
        return self._ticks

    def tick(self) -> float:
        """Advance one step; returns the new time."""
        ticks = self._ticks = self._ticks + 1
        now = self.now_s = ticks * self.time_step_s
        return now

    def advance(self, duration_s: float) -> int:
        """Advance by at least *duration_s*; returns ticks consumed."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        steps = int(round(duration_s / self.time_step_s))
        self._ticks += steps
        self.now_s = self._ticks * self.time_step_s
        return steps

    def ticks_for(self, duration_s: float) -> int:
        """Return how many ticks cover *duration_s* (rounded up, >= 1)."""
        if duration_s <= 0:
            return 1
        return max(1, int(round(duration_s / self.time_step_s)))
