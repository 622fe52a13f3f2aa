"""Sweep orchestration: declare runs as specs, fan out, cache results.

The layer between the fast engine and the experiments (DESIGN.md §8):

* :mod:`~repro.sweep.spec` — :class:`RunSpec`, a frozen, content-hashed
  description of one simulation run.
* :mod:`~repro.sweep.scenarios` — the registry of named traffic patterns a
  spec can reference (the paper's workloads plus hotspot, permutation,
  bursty, and ML-collective patterns).
* :mod:`~repro.sweep.runner` — :func:`execute_spec` and
  :class:`SweepRunner`, the serial/parallel executor with deterministic
  per-spec seeding.
* :mod:`~repro.sweep.store` — :class:`ResultStore`, the store keyed by
  spec hash that makes sweeps resumable, with per-row checksums and
  atomic compaction, over two byte backends picked by the store's path
  (:mod:`~repro.sweep.backends`: SQLite for ``.db``/``.sqlite``/
  ``.sqlite3``, a single JSONL file otherwise).
* :mod:`~repro.sweep.campaign` — :func:`run_campaign`, the work-queue
  lease mode that lets N independent workers drain one grid into one
  store (DESIGN.md §17).
* :mod:`~repro.sweep.resilience` — :class:`RetryPolicy`,
  :class:`SpecOutcome`, the crash-safe :class:`WorkerPool`, and the
  :class:`QuarantineLog` sidecar (fault-tolerant execution, DESIGN.md
  §13).
* :mod:`~repro.sweep.chaos` — deterministic, environment-keyed fault
  injection for testing all of the above.
"""

from .backends import detect_backend_kind, make_backend, sidecar_path
from .campaign import (
    CampaignReport,
    campaign_status,
    default_worker_id,
    run_campaign,
)
from .chaos import ChaosError, ChaosPlan, Fault
from .resilience import (
    NO_RETRY,
    QuarantineLog,
    RetryPolicy,
    SpecOutcome,
    SweepExecutionError,
    WorkerPool,
    default_quarantine_path,
    run_with_retries,
)
from .runner import (
    COLLECTORS,
    SweepRunner,
    execute_spec,
    resolve_epoch,
    resolve_failures,
    resolve_scale,
    scale_spec_fields,
)
from .scenarios import SCENARIOS, Scenario, build_workload, build_workload_iter
from .spec import SPEC_VERSION, RunSpec, freeze_params, system_spec_fields
from .store import ResultStore, StoreError, StoreReport

__all__ = [
    "COLLECTORS",
    "CampaignReport",
    "ChaosError",
    "ChaosPlan",
    "Fault",
    "NO_RETRY",
    "QuarantineLog",
    "ResultStore",
    "RetryPolicy",
    "RunSpec",
    "SCENARIOS",
    "SPEC_VERSION",
    "Scenario",
    "SpecOutcome",
    "StoreError",
    "StoreReport",
    "SweepExecutionError",
    "SweepRunner",
    "WorkerPool",
    "build_workload",
    "build_workload_iter",
    "campaign_status",
    "default_quarantine_path",
    "default_worker_id",
    "detect_backend_kind",
    "execute_spec",
    "freeze_params",
    "make_backend",
    "run_campaign",
    "sidecar_path",
    "resolve_epoch",
    "resolve_failures",
    "resolve_scale",
    "run_with_retries",
    "scale_spec_fields",
    "system_spec_fields",
]
