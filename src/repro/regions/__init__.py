"""Hierarchical region-summary dataflow over the program structure tree.

The modules layer bottom-up:

* :mod:`repro.regions.transfer`     -- the (gen, kill) function algebra;
* :mod:`repro.regions.systems`      -- per-region equation systems with
  closure verification and dissolution;
* :mod:`repro.regions.incremental`  -- the one hierarchical solver: a
  continuously-solved three-phase engine with signature-keyed
  per-region caches;
* :mod:`repro.regions.edits`        -- the statement-level edit API;
* :mod:`repro.regions.replay`       -- the deterministic edit-replay
  benchmark workload.
"""

from repro.regions.edits import EditSession
from repro.regions.incremental import ANALYSES, RegionDataflow
from repro.regions.replay import bench_edit_replay, replay_row
from repro.regions.systems import RegionSystems, build_systems

__all__ = [
    "ANALYSES",
    "EditSession",
    "RegionDataflow",
    "RegionSystems",
    "bench_edit_replay",
    "build_systems",
    "replay_row",
]
