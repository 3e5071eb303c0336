"""SSD device model.

The model reproduces the NVMe SSD behaviours Gimbal's mechanisms react
to (paper Sections 2.3 and Appendix A/D):

* load-dependent latency with an impulse response to congestion
  (FCFS queueing at the controller and the NAND channels),
* IO-size bandwidth asymmetry (per-command controller cost is
  amortised by large IOs; pages stripe across channels),
* read/write interference (program operations share channels with
  reads and block them head-of-line),
* the clean-vs-fragmented write cliff (a page-mapped FTL with greedy
  garbage collection whose write amplification depends on the overwrite
  history), and
* burst absorption by the controller DRAM write buffer (writes complete
  fast until the offered rate exceeds the NAND drain rate).

Timing is *analytic*: each command books busy time on the controller
and channel resources at submission, and exactly one completion event
is scheduled -- no per-page events -- which keeps simulated hundreds of
KIOPS tractable in pure Python.
"""

# benchmarks/ledger imports this through the package; ROADMAP item 3(c) retires it.
from repro.ssd.device import SsdDevice  # noqa: F401
