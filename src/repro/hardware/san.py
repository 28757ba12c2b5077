"""Storage Area Network agent (Fig 3-8).

A SAN request traverses a fiber-channel switch ``Qfcsw``, the disk-array
controller cache ``Qdacc`` and the fiber-channel arbitrated loop
``Qfcal`` before being striped across the member disks.  A cache hit at
``Qdacc`` bypasses the arbitrated loop and the fork-join.  The whole
stage schedule is computed at admission (:mod:`repro.hardware.storage`).
"""

from __future__ import annotations

from typing import Dict, List

from repro.hardware.raid import RAID
from repro.hardware.storage import Stage


class SAN(RAID):
    """Fiber-channel storage network with ``n`` striped disks.

    Parameters
    ----------
    n_disks:
        Number of disks behind the arbitrated loop.
    fc_switch_bps, array_controller_bps, fc_loop_bps:
        Speeds of ``Qfcsw``, ``Qdacc`` and ``Qfcal`` in bytes per second.
    controller_bps, drive_bps:
        Per-disk controller and drive speeds.
    """

    agent_type = "san"
    _array_stage = 1

    def __init__(
        self,
        name: str,
        n_disks: int,
        fc_switch_bps: float,
        array_controller_bps: float,
        fc_loop_bps: float,
        controller_bps: float,
        drive_bps: float,
        array_cache_hit_rate: float = 0.0,
        disk_cache_hit_rate: float = 0.0,
        seed: int | None = None,
    ) -> None:
        if n_disks < 1:
            raise ValueError("a SAN needs at least one disk")
        self.fcsw = Stage(f"{name}.fcsw", rate=fc_switch_bps, servers=1)
        self.fcal = Stage(f"{name}.fcal", rate=fc_loop_bps, servers=1)
        super().__init__(
            name, n_disks, array_controller_bps, controller_bps, drive_bps,
            array_cache_hit_rate=array_cache_hit_rate,
            disk_cache_hit_rate=disk_cache_hit_rate, seed=seed,
        )

    def _stages(self) -> List[Stage]:
        return [self.fcsw, self.dacc, self.fcal]

    def _telemetry_extras(self) -> Dict[str, float]:
        self._settled()
        return {
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "fcsw_busy_s": self.fcsw._busy,
        }
