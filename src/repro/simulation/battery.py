"""Battery model for a low-cost multirotor.

The paper's efficiency argument ("cost-efficient drones need only
understand the bare minimum of signs") is ultimately an energy/compute
budget argument, so the simulator books energy for hover, translation
and payload (LED ring, recognition compute).  A simple constant-voltage
coulomb counter is enough to expose the trade-offs in the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Battery", "BatteryDepleted", "HOVER_POWER_W"]

# Representative figures for a ~1.5 kg hexacopter (Yuneec H520 class).
HOVER_POWER_W = 180.0
TRANSLATION_POWER_PER_MPS_W = 18.0
NOMINAL_VOLTAGE_V = 15.2


class BatteryDepleted(Exception):
    """Raised when energy is drawn from an empty battery."""


@dataclass
class Battery:
    """A constant-voltage coulomb-counting battery.

    Parameters
    ----------
    capacity_wh:
        Usable energy, watt-hours (H520-class packs are ~79 Wh).
    reserve_fraction:
        Fraction of capacity treated as unusable safety reserve; the
        :meth:`low` flag trips when the state of charge drops to it.
    """

    capacity_wh: float = 79.0
    reserve_fraction: float = 0.2
    _used_wh: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.capacity_wh <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 <= self.reserve_fraction < 1.0:
            raise ValueError("reserve fraction must be in [0, 1)")

    @property
    def remaining_wh(self) -> float:
        """Usable energy left."""
        return max(0.0, self.capacity_wh - self._used_wh)

    @property
    def state_of_charge(self) -> float:
        """Remaining fraction of capacity in ``[0, 1]``."""
        return self.remaining_wh / self.capacity_wh

    @property
    def low(self) -> bool:
        """``True`` once the state of charge reaches the reserve."""
        return self.state_of_charge <= self.reserve_fraction

    @property
    def empty(self) -> bool:
        """``True`` when no usable energy remains."""
        return self.remaining_wh <= 0.0

    def draw(self, power_w: float, duration_s: float) -> bool:
        """Draw *power_w* for *duration_s*; return :attr:`low` after it.

        Raises
        ------
        BatteryDepleted
            If the draw exceeds the remaining energy; the battery is
            left empty in that case.
        """
        if power_w < 0 or duration_s < 0:
            raise ValueError("power and duration must be non-negative")
        energy_wh = power_w * duration_s / 3600.0
        # remaining_wh and low, written out: max(0.0, x) as a conditional
        # (the same value for NaN and -0.0), one attribute read each.
        capacity, used = self.capacity_wh, self._used_wh
        remaining = capacity - used
        remaining = remaining if remaining > 0.0 else 0.0
        if energy_wh > remaining:
            self._used_wh = capacity
            # The energy that was left when the draw was asked for.
            raise BatteryDepleted(
                f"requested {energy_wh:.2f} Wh with {remaining:.2f} Wh remaining"
            )
        used = self._used_wh = used + energy_wh
        remaining = capacity - used
        return (remaining if remaining > 0.0 else 0.0) / capacity <= self.reserve_fraction

    def flight_draw(self, speed_mps: float, duration_s: float, payload_w: float = 0.0) -> bool:
        """Draw the power for flying at *speed_mps* plus *payload_w*;
        return :attr:`low` after the draw."""
        if speed_mps < 0:
            raise ValueError("speed must be non-negative")
        return self.draw(
            HOVER_POWER_W + TRANSLATION_POWER_PER_MPS_W * speed_mps + payload_w, duration_s
        )

    def endurance_estimate_s(self, speed_mps: float = 0.0, payload_w: float = 0.0) -> float:
        """Return remaining flight time at the given operating point."""
        power = HOVER_POWER_W + TRANSLATION_POWER_PER_MPS_W * max(0.0, speed_mps) + payload_w
        usable = max(0.0, self.remaining_wh - self.capacity_wh * self.reserve_fraction)
        return usable * 3600.0 / power
