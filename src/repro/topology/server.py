"""Server holon: NIC + CPU + memory + optional RAID (section 3.4.3).

A server processes one *leg* of a message: per equations 3.3/3.4 the time
spent at a holon decomposes into NIC serialization of the network bits,
CPU consumption of the compute cycles (with the memory cache-hit bypass
and occupancy effects) and disk-array consumption of the I/O bytes.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.agent import Holon
from repro.core.job import Job
from repro.hardware.cpu import CPU
from repro.hardware.memory import Memory
from repro.hardware.nic import NIC
from repro.hardware.raid import RAID
from repro.topology.specs import GB, ServerSpec


class Server(Holon):
    """A physical server composed of hardware agents.

    Parameters
    ----------
    spec:
        Hardware specification.
    storage_submit:
        Override for the I/O entry point.  When the server's tier uses a
        shared SAN, pass the SAN's ``enqueue``; otherwise the server's
        local RAID (from ``spec.raid``) is used.
    """

    holon_type = "server"

    def __init__(
        self,
        name: str,
        spec: ServerSpec,
        storage_submit: Optional[Callable[[Job, float], None]] = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(name)
        self.spec = spec
        self.nic: NIC = self.add_agent(
            NIC(f"{name}.nic", speed_bps=spec.nic_gbps * 1e9)
        )
        self.cpu: CPU = self.add_agent(
            CPU(
                f"{name}.cpu",
                frequency_hz=spec.frequency_ghz * 1e9,
                sockets=spec.sockets,
                cores=spec.cores_per_socket(),
            )
        )
        self.memory: Memory = self.add_agent(
            Memory(
                f"{name}.mem",
                size_bytes=spec.memory_gb * GB,
                cache_hit_rate=spec.memory_cache_hit_rate,
                pool_bytes=spec.memory_pool_gb * GB,
                seed=seed,
            )
        )
        self.raid: Optional[RAID] = None
        if storage_submit is not None:
            self._storage_submit = storage_submit
        elif spec.raid is not None:
            r = spec.raid
            self.raid = self.add_agent(
                RAID(
                    f"{name}.raid",
                    n_disks=r.n_disks,
                    array_controller_bps=r.array_controller_bps(),
                    controller_bps=r.controller_bps(),
                    drive_bps=r.drive_bps(),
                    array_cache_hit_rate=r.array_cache_hit_rate,
                    disk_cache_hit_rate=r.disk_cache_hit_rate,
                    seed=seed,
                )
            )
            self._storage_submit = self.raid.submit
        else:
            self._storage_submit = None

    # ------------------------------------------------------------------
    def process_leg(
        self,
        now: float,
        cycles: float,
        net_bits: float,
        mem_bytes: float,
        disk_bytes: float,
        on_complete: Callable[[float], None],
        tag=None,
        not_before: float | None = None,
    ) -> None:
        """Run one message leg through this server's agents.

        The leg traverses NIC -> CPU -> storage sequentially (eq. 3.4);
        memory bytes are held for the leg's duration and a memory cache
        hit bypasses the storage stage.  ``on_complete(t)`` fires when the
        leg finishes.  The leg runs on a job of its own; a cascade
        message starts a :class:`Leg` on the job it carries instead.
        """
        t0 = now if not_before is None else not_before
        Leg(self, Job(0.0, tag=tag), now, t0, cycles, net_bits, mem_bytes,
            disk_bytes, on_complete)

    def load(self) -> int:
        """Instantaneous load metric used by the tier load balancer."""
        return self.cpu.queue_length() + self.nic.queue_length()

    # ------------------------------------------------------------------
    # failure injection (section 1.1, "Continuous Failure")
    # ------------------------------------------------------------------
    @property
    def available(self) -> bool:
        """Whether the server is in service (load balancing skips it)."""
        return not self.cpu.paused

    def fail(self, crash: bool = True, now: float | None = None) -> None:
        """Crash the server: all hardware stops; in-flight work is lost."""
        for agent in self.agents():
            agent.fail(crash=crash, now=now)

    def repair(self, now: float) -> None:
        """Return the server to service; queued work resumes (retry)."""
        for agent in self.agents():
            agent.repair(now)


class Leg:
    """One message leg on one server: NIC -> CPU -> storage (eq. 3.4).

    Constructing a leg starts it at ``now``: its memory is allocated and
    its cache hit drawn right away, then its NIC and CPU stages run one
    after the other on ``job`` (reloaded with each stage's demand), no
    stage starting before ``not_before``.  A storage admission gets a job
    of its own, since a storage agent may hold on to the job it served.
    ``then(t)`` fires when the leg finishes.
    """

    __slots__ = ("server", "cycles", "disk_bytes", "mem_held", "cache_hit",
                 "then")

    def __init__(
        self,
        server: Server,
        job: Job,
        now: float,
        not_before: float,
        cycles: float,
        net_bits: float,
        mem_bytes: float,
        disk_bytes: float,
        then: Callable[[float], None],
    ) -> None:
        self.server = server
        self.cycles = cycles
        self.disk_bytes = disk_bytes
        self.then = then
        memory = server.memory
        held = mem_bytes > 0 and memory.allocate(mem_bytes)
        self.mem_held = mem_bytes if held else 0.0
        self.cache_hit = memory.is_cache_hit() if disk_bytes > 0 else False
        if net_bits > 0:
            job.reuse(net_bits, not_before, self._nic_done)
            server.nic.submit(job, now)
        elif cycles > 0:
            job.reuse(cycles, not_before, self._cpu_done)
            server.cpu.submit(job, now)
        else:
            self._cpu_done(job, max(not_before, now))

    def _nic_done(self, job: Job, t: float) -> None:
        if self.cycles > 0:
            job.reuse(self.cycles, t, self._cpu_done)
            self.server.cpu.submit(job, t)
        else:
            self._cpu_done(job, t)

    def _cpu_done(self, job: Job, t: float) -> None:
        storage = self.server._storage_submit
        if self.disk_bytes > 0 and not self.cache_hit and storage is not None:
            storage(Job(self.disk_bytes, on_complete=self._storage_done,
                        not_before=t, tag=job.tag), t)
        else:
            self._done(t)

    def _storage_done(self, _job: Job, t: float) -> None:
        self._done(t)

    def _done(self, t: float) -> None:
        if self.mem_held:
            self.server.memory.release(self.mem_held)
        self.then(t)
