"""Simulated edge devices: specifications and the roofline cost model."""

from .catalog import DEVICES, get_device
from .cost import (LAYOUT_MISMATCH_PENALTY, WINOGRAD_SPEEDUP, LatencyReport,
                   estimate_latency, op_class)
from .energy import (EnergyReport, estimate_energy, local_vs_cloud,
                     transmission_energy_mj)
from .spec import DeviceSpec

__all__ = [
    "DEVICES",
    "DeviceSpec",
    "EnergyReport",
    "estimate_energy",
    "local_vs_cloud",
    "transmission_energy_mj",
    "LAYOUT_MISMATCH_PENALTY",
    "LatencyReport",
    "WINOGRAD_SPEEDUP",
    "estimate_latency",
    "get_device",
    "op_class",
]
