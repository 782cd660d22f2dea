"""Machine description (de)serialization to JSON.

Lets users define their own NPU in a file and run any CLI command or
script against it -- the hardware/software co-design workflow of
``examples/design_space.py`` without writing Python.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
from typing import Dict, Union

from repro.hw.config import CoreConfig, NPUConfig

FORMAT = "repro-machine"
VERSION = 1


def machine_to_dict(npu: NPUConfig) -> Dict:
    return {
        "format": FORMAT,
        "version": VERSION,
        "name": npu.name,
        "frequency_ghz": npu.frequency_ghz,
        "bus_bytes_per_cycle": npu.bus_bytes_per_cycle,
        "sync_base_cycles": npu.sync_base_cycles,
        "sync_per_core_cycles": npu.sync_per_core_cycles,
        "halo_exchange_base_cycles": npu.halo_exchange_base_cycles,
        "dram_latency_cycles": npu.dram_latency_cycles,
        "sync_jitter_cycles": npu.sync_jitter_cycles,
        "halo_jitter_cycles": npu.halo_jitter_cycles,
        "cores": [
            {
                "name": c.name,
                "macs_per_cycle": c.macs_per_cycle,
                "dma_bytes_per_cycle": c.dma_bytes_per_cycle,
                "spm_bytes": c.spm_bytes,
                "channel_alignment": c.channel_alignment,
                "spatial_alignment": c.spatial_alignment,
                "compute_efficiency": c.compute_efficiency,
                "dvfs_steps": list(c.dvfs_steps),
                "heat_per_busy_cycle": c.heat_per_busy_cycle,
                "cool_per_cycle": c.cool_per_cycle,
                "throttle_threshold": c.throttle_threshold,
            }
            for c in npu.cores
        ],
    }


@functools.lru_cache(maxsize=None)
def machine_fingerprint(npu: NPUConfig) -> str:
    """Content hash of a machine description: the sha256 of its
    sorted-key JSON document.  Compiled-program cache keys and
    simulation memo keys both name a machine by it.  Cached per
    description: machines are few and hashable."""
    text = json.dumps(machine_to_dict(npu), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def machine_from_dict(data: Dict) -> NPUConfig:
    if data.get("format") != FORMAT:
        raise ValueError("not a repro machine document")
    if data.get("version") != VERSION:
        raise ValueError(f"unsupported machine format version {data.get('version')!r}")
    cores = tuple(
        CoreConfig(
            name=str(c["name"]),
            macs_per_cycle=int(c["macs_per_cycle"]),
            dma_bytes_per_cycle=float(c["dma_bytes_per_cycle"]),
            spm_bytes=int(c["spm_bytes"]),
            channel_alignment=int(c.get("channel_alignment", 16)),
            spatial_alignment=int(c.get("spatial_alignment", 2)),
            compute_efficiency=float(c.get("compute_efficiency", 0.75)),
            dvfs_steps=tuple(
                float(s) for s in c.get("dvfs_steps", (1.0, 0.8, 0.6))
            ),
            heat_per_busy_cycle=float(c.get("heat_per_busy_cycle", 1.0)),
            cool_per_cycle=float(c.get("cool_per_cycle", 0.4)),
            throttle_threshold=float(c.get("throttle_threshold", 150_000.0)),
        )
        for c in data["cores"]
    )
    return NPUConfig(
        name=str(data.get("name", "custom")),
        cores=cores,
        bus_bytes_per_cycle=float(data["bus_bytes_per_cycle"]),
        frequency_ghz=float(data.get("frequency_ghz", 1.2)),
        sync_base_cycles=int(data.get("sync_base_cycles", 4000)),
        sync_per_core_cycles=int(data.get("sync_per_core_cycles", 500)),
        halo_exchange_base_cycles=int(data.get("halo_exchange_base_cycles", 800)),
        dram_latency_cycles=int(data.get("dram_latency_cycles", 100)),
        sync_jitter_cycles=int(data.get("sync_jitter_cycles", 0)),
        halo_jitter_cycles=int(data.get("halo_jitter_cycles", 0)),
    )


def save_machine(npu: NPUConfig, path: Union[str, pathlib.Path]) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(json.dumps(machine_to_dict(npu), indent=2))
    return path


def load_machine(path: Union[str, pathlib.Path]) -> NPUConfig:
    return machine_from_dict(json.loads(pathlib.Path(path).read_text()))
