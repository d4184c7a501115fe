"""Memory controller substrate.

Models the processor-side memory controller the SecDDR evaluation assumes
(Table I of the paper): a 64-entry write queue, FR-FCFS scheduling and write
draining with high/low watermarks.  Reads are served at once, ahead of
buffered writes.

* :mod:`repro.controller.queues` -- the bounded write queue.
* :mod:`repro.controller.scheduler` -- FR-FCFS request ordering policy.
* :mod:`repro.controller.memory_controller` -- the controller front end the
  CPU/system model talks to.
"""

from repro.controller.queues import RequestQueue
from repro.controller.scheduler import FRFCFSScheduler
from repro.controller.memory_controller import MemoryController, ControllerConfig, ControllerStats

__all__ = [
    "RequestQueue",
    "FRFCFSScheduler",
    "MemoryController",
    "ControllerConfig",
    "ControllerStats",
]
