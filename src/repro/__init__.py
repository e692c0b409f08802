"""repro — reproduction of Li & Kwok, "A New Multipath Routing Approach to
Enhancing TCP Security in Ad Hoc Wireless Networks" (ICPPW 2005).

The package contains two layers:

* A packet-level discrete-event simulator for mobile ad hoc wireless
  networks (:mod:`repro.sim`, :mod:`repro.net`, :mod:`repro.mac`,
  :mod:`repro.mobility`, :mod:`repro.transport`, :mod:`repro.apps`),
  standing in for the NS-2 substrate the paper used.
* The paper's contribution — the MTS multipath routing protocol
  (:mod:`repro.core`) — together with the DSR and AODV baselines
  (:mod:`repro.routing`), the passive-eavesdropper security model
  (:mod:`repro.security`), the paper's metrics (:mod:`repro.metrics`),
  and the experiment harness (:mod:`repro.scenario`,
  :mod:`repro.experiments`) with its execution subsystem
  (:mod:`repro.exec` — one executor, in-process or on a warm worker
  pool, plus an on-disk result cache).

Quickstart
----------

>>> from repro.scenario import ScenarioConfig, run_scenario
>>> cfg = ScenarioConfig(protocol="MTS", max_speed=5.0, sim_time=30.0, seed=1)
>>> result = run_scenario(cfg)
>>> result.delivery_rate > 0
True
"""

from repro.version import __version__

from repro.scenario.config import ScenarioConfig
from repro.scenario.runner import run_scenario, run_replications
from repro.scenario.builder import ScenarioBuilder, Scenario
from repro.exec import ClusterExecutor, ResultCache

__all__ = [
    "__version__",
    "ScenarioConfig",
    "ScenarioBuilder",
    "Scenario",
    "run_scenario",
    "run_replications",
    "ClusterExecutor",
    "ResultCache",
]
