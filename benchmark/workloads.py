"""The benchmark's workloads: fixed sweep grids over the paper's systems.

A workload is a list of :class:`repro.experiments.sweep.SweepSpec` keyword
sets; the base seed comes from the command line, so the same ``--seed``
always yields the same cells.  Every cell runs the paper's default
simulation (change at 2000 s, deadline from the scenario module).  The
module imports nothing from ``repro`` so the parent process can validate
workload names without loading the simulator.
"""

from __future__ import annotations

from typing import Any, Dict

PAPER_RATES = (0.0, 0.2, 0.4, 0.6, 0.8)

#: name -> {"why": one line, "specs": [SweepSpec keyword arguments]}.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "table4": {
        "why": (
            "the paper's Table 4 grid, 5 systems x 5 rates x 20 runs at N=5: "
            "500 small cells where per-cell fixed cost dominates"
        ),
        "specs": [
            {
                "systems": ("upnp", "jini1", "jini2", "frodo2", "frodo3"),
                "failure_rates": PAPER_RATES,
                "runs_per_cell": 20,
            }
        ],
    },
    # The two large-N workloads run failure-free cells only: a failed cell's
    # work varies up to fourfold with the seed at these sizes, while a
    # failure-free cell's varies by under 1 %, so seeds change the inputs
    # without changing how much there is to simulate.
    "fanout_n100": {
        "why": (
            "jini and upnp at N=100, failure-free: six-copy multicast fans out "
            "to 99 endpoints and most deliveries are discarded unhandled"
        ),
        "specs": [
            {
                "systems": ("jini", "upnp"),
                "failure_rates": (0.0,),
                "runs_per_cell": 10,
                "n_users": 100,
            }
        ],
    },
    "frodo3_n1000": {
        "why": (
            "frodo3 at N=1000, failure-free: the scale point with the deepest "
            "event heap and about ten times the memory of the other workloads"
        ),
        "specs": [
            {
                "systems": ("frodo3",),
                "failure_rates": (0.0,),
                "runs_per_cell": 1,
                "n_users": 1000,
            }
        ],
    },
    "faults": {
        "why": (
            "federation push, partition, lossy links and churn at N=5: TCP "
            "replication and retries, loss and link-cut paths, failure callbacks"
        ),
        "specs": [
            {"systems": ("jini@k=8",), "failure_rates": (0.0, 0.2, 0.4), "runs_per_cell": 10},
            {
                "systems": ("jini@k=4,mode=pull",),
                "failure_rates": (0.0, 0.2, 0.4),
                "runs_per_cell": 10,
                "scenario_name": "partition",
            },
            {
                "systems": ("upnp", "frodo3"),
                "failure_rates": (0.0, 0.2, 0.4),
                "runs_per_cell": 10,
                "scenario_name": "lossy",
            },
            {
                "systems": ("jini1", "frodo3"),
                "failure_rates": (0.0, 0.2, 0.4),
                "runs_per_cell": 10,
                "scenario_name": "churn",
            },
        ],
    },
}
