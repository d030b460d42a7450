"""Reproduction of conf_ipps_SundramoorthyHS06.

Consistency maintenance in service discovery: a discrete-event simulation of
FRODO, UPnP and (federated) Jini under interface failures, measured with the
NIST Update Metrics (Responsiveness, Effectiveness, Efficiency) and the
paper's Efficiency Degradation metric.

Layers
------
* :mod:`repro.sim` — deterministic discrete-event kernel,
* :mod:`repro.net` — shared LAN, TCP exchanges, interface-failure injection,
* :mod:`repro.discovery` — service descriptions, the lease table, node base,
* :mod:`repro.protocols` — protocol models and the deployment registry,
* :mod:`repro.core` — consistency tracking and the Update Metrics,
* :mod:`repro.experiments` — scenario runner, failure-rate sweeps, reports.

Run an experiment from the command line with ``python -m repro sweep ...``
(see EXPERIMENTS.md).
"""

__version__ = "0.1.0"
