"""Every scenario family's results, pinned by digest.

Each case sweeps seven systems (UPnP, both Jini aliases, both FRODO
deployments, a pull and a gossip federation) x 20/40/60/80 % x one run at
seed 1906 under one family, and compares the SHA-256 of the runs with
``tests/data/family_result_sha256.json``.  A run enters the digest as its
``to_dict()`` without ``details.telemetry`` and ``details.executed_events``,
which count simulated work: a change that only removes work keeps every
digest, and a change to any result moves its family's.

Regenerate the fixture only in a change that moves results by design, and
list each moved family in CHANGES.md::

    PYTHONPATH=src python tests/test_family_digests.py --pin
"""

import hashlib
import json
import os
import sys

import pytest

from repro.experiments import SCENARIOS, SweepSpec, sweep

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "family_result_sha256.json")
SYSTEMS = (
    "upnp",
    "jini1",
    "jini2",
    "frodo2",
    "frodo3",
    "jini@k=4,mode=pull",
    "jini@k=2,mode=gossip",
)
RATES = (0.2, 0.4, 0.6, 0.8)
SEED = 1906


def family_digest(family):
    """SHA-256 of one family's runs, telemetry and executed-event count left out."""
    spec = SweepSpec(
        systems=SYSTEMS,
        failure_rates=RATES,
        runs_per_cell=1,
        base_seed=SEED,
        scenario_name=family,
    )
    runs = []
    for run in sweep(spec).runs:
        data = run.to_dict()
        data["details"] = {
            key: value
            for key, value in data["details"].items()
            if key not in ("telemetry", "executed_events")
        }
        runs.append(data)
    return hashlib.sha256(json.dumps(runs, sort_keys=True).encode("utf-8")).hexdigest()


def pinned():
    with open(FIXTURE) as handle:
        return json.load(handle)


def test_every_family_is_pinned():
    assert sorted(pinned()) == SCENARIOS.names()


@pytest.mark.parametrize("family", SCENARIOS.names())
def test_family_results_match_their_pinned_digest(family):
    assert family_digest(family) == pinned()[family]


if __name__ == "__main__":
    digests = {family: family_digest(family) for family in SCENARIOS.names()}
    if sys.argv[1:] == ["--pin"]:
        with open(FIXTURE, "w") as handle:
            json.dump(digests, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"pinned {len(digests)} families in {FIXTURE}")
        sys.exit(0)
    pins = pinned()
    moved = sorted(family for family, digest in digests.items() if pins.get(family) != digest)
    print(f"{len(digests) - len(moved)} of {len(digests)} families match; moved: {moved or 'none'}")
    sys.exit(1 if moved else 0)
