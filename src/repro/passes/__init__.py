"""Training-graph optimization passes and scheduling."""

from .base import Pass, PassContext, PassManager, PassResult
from .constant_folding import ConstantFoldingPass
from .cse import CommonSubexpressionEliminationPass
from .dce import DeadCodeEliminationPass
from .fusion import (BiasActivationFusionPass, ElementwiseGroupPass,
                     GradientMaskFusionPass)
from .kernel_select import WinogradSelectionPass
from .layout import LayoutSelectionPass
from .parallel_fusion import ParallelLinearFusionPass
from .recompute import recompute_for_backward
from .reorder import default_schedule, greedy_schedule, memory_aware_schedule
from .rewrite import AlgebraicRewritePass

__all__ = [
    "AlgebraicRewritePass",
    "BiasActivationFusionPass",
    "CommonSubexpressionEliminationPass",
    "ConstantFoldingPass",
    "DeadCodeEliminationPass",
    "ElementwiseGroupPass",
    "GradientMaskFusionPass",
    "LayoutSelectionPass",
    "ParallelLinearFusionPass",
    "Pass",
    "PassContext",
    "PassManager",
    "PassResult",
    "WinogradSelectionPass",
    "default_schedule",
    "greedy_schedule",
    "memory_aware_schedule",
    "recompute_for_backward",
]
