"""Memory analysis: tensor liveness, peak-usage profiling, slab placement.

Training memory is the binding constraint on edge devices (paper Table 4);
this package turns a compiled schedule into the numbers the paper reports —
peak transient bytes, parameter/optimizer-state bytes — and holds the
placement routine behind every plan's static slab.
"""

from .liveness import Lifetime, value_lifetimes
from .planner import SlabPlan, live_load, place
from .profiler import MemoryProfile, profile_memory
from .remat import (Eviction, PagingPlan, RematResult, plan_paging,
                    rematerialize)

__all__ = [
    "Eviction",
    "Lifetime",
    "MemoryProfile",
    "PagingPlan",
    "RematResult",
    "SlabPlan",
    "live_load",
    "place",
    "plan_paging",
    "profile_memory",
    "rematerialize",
    "value_lifetimes",
]
