"""HPC workflow substrate: MPI-like communicator, parallel executors, a
SLURM-like discrete-event workload manager, and the Fig. 2
coordinator/worker scheme."""

from repro.hpc.comm import ANY_SOURCE, ANY_TAG, Communicator, run_parallel
from repro.hpc.coordinator import (
    CoordinatorResult,
    WorkerStats,
    run_coordinated_qaoa2,
)
from repro.hpc.executor import BACKENDS, ExecutorConfig, map_jobs
from repro.hpc.slurm import (
    Cluster,
    Job,
    Phase,
    PhaseRecord,
    ScheduleResult,
    SlurmSimulator,
    hybrid_workflow_jobs,
)
from repro.hpc.trace import (
    Interval,
    ResourceTrace,
    busy_span,
    merge_intervals,
    render_gantt,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "run_parallel",
    "BACKENDS",
    "ExecutorConfig",
    "map_jobs",
    "Cluster",
    "Job",
    "Phase",
    "PhaseRecord",
    "ScheduleResult",
    "SlurmSimulator",
    "hybrid_workflow_jobs",
    "Interval",
    "ResourceTrace",
    "busy_span",
    "merge_intervals",
    "render_gantt",
    "CoordinatorResult",
    "WorkerStats",
    "run_coordinated_qaoa2",
]
