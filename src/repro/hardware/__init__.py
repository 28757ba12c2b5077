"""Hardware component agents (section 3.4.2).

Each low-level hardware component of the thesis is an agent built from the
queueing substrate:

* :class:`CPU` — multi-socket multi-core processor, ``p x M/M/q - FCFS``
  (Fig 3-4), with optional hyper-threading speedup.
* :class:`Memory` — cache-hit bypass plus occupancy tracking (Fig 3-5);
  the only component that is *not* a queue.
* :class:`NIC` / :class:`NetworkSwitch` — ``M/M/1 - FCFS`` stations whose
  rate is the device speed in bits/s (Fig 3-6 left/center).
* :class:`NetworkLink` — ``M/M/1 - PSk`` with constant propagation latency
  (Fig 3-6 right).
* :class:`Disk` — controller cache queue followed by the drive queue.
* :class:`RAID` — n-way fork-join of disks behind a disk-array controller
  cache (Fig 3-7).
* :class:`SAN` — fiber-channel switch, array controller cache and
  arbitrated loop in front of the fork-join (Fig 3-8).

Disk, RAID and SAN schedule each request's stage chain in closed form at
admission (:mod:`repro.hardware.storage`).
"""

from repro.hardware.cpu import CPU, TimeSharedCPU
from repro.hardware.cache import CacheHierarchy, CacheLevel, DEFAULT_HIERARCHY
from repro.hardware.memory import Memory
from repro.hardware.nic import NIC
from repro.hardware.switch import NetworkSwitch
from repro.hardware.link import NetworkLink
from repro.hardware.disk import Disk
from repro.hardware.raid import RAID
from repro.hardware.san import SAN

__all__ = [
    "CPU",
    "TimeSharedCPU",
    "CacheHierarchy",
    "CacheLevel",
    "DEFAULT_HIERARCHY",
    "Memory",
    "NIC",
    "NetworkSwitch",
    "NetworkLink",
    "Disk",
    "RAID",
    "SAN",
]
