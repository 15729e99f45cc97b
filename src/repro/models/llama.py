"""LlamaV2-style decoder-only language model (Touvron et al. 2023).

Pre-norm RMSNorm blocks, causal attention, gated (SwiGLU-style) FFN. The
7B configuration is built under lazy init in fp16 — graph-only, for the
Table 5 / Figure 9(b) latency and memory simulations; ``llama_micro``
actually trains on the toy instruction corpus.

Paper scheme (§4.1): update the biases of the last 5 blocks and the
weights of the attention module plus the first FFN linear for the last 5
blocks. (Llama linears are bias-free, so the trainable "biases" here are
the RMSNorm scales, which §5 of the paper freezes for Llama — we follow
the §4.1 wording and keep norm scales updatable via the scheme.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..frontend import Embedding, InputSpec, Linear, Module, RMSNorm, trace
from ..frontend.attention import MultiHeadAttention
from ..frontend.functional import Sym
from ..frontend.init import lazy_init
from ..ir import DType, Graph


@dataclass(frozen=True)
class LlamaConfig:
    name: str
    vocab_size: int
    dim: int
    num_heads: int
    ffn_hidden: int
    num_blocks: int
    max_len: int


CONFIGS = {
    "llama7b": LlamaConfig("llama7b", 32000, 4096, 32, 11008, 32, 512),
    "llama_micro": LlamaConfig("llama_micro", 96, 32, 4, 64, 4, 24),
}


class GatedFeedForward(Module):
    """SwiGLU-style FFN: down(silu(gate(x)) * up(x)), the gate one
    ``swiglu`` op."""

    def __init__(self, dim: int, hidden: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.gate = Linear(dim, hidden, bias=False, rng=rng)
        self.gate.meta["role_in_block"] = "ffn_first"
        self.up = Linear(dim, hidden, bias=False, rng=rng)
        self.up.meta["role_in_block"] = "ffn_up"
        self.down = Linear(hidden, dim, bias=False, rng=rng)
        self.down.meta["role_in_block"] = "ffn_second"

    def forward(self, x: Sym) -> Sym:
        return self.down(self.gate(x).swiglu(self.up(x)))


class LlamaBlock(Module):
    def __init__(self, config: LlamaConfig,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.attn_norm = RMSNorm(config.dim)
        self.attn = MultiHeadAttention(config.dim, config.num_heads,
                                       causal=True, max_len=config.max_len,
                                       rng=rng)
        self.attn.meta["role_in_block"] = "attention"
        self.ffn_norm = RMSNorm(config.dim)
        self.ffn = GatedFeedForward(config.dim, config.ffn_hidden, rng=rng)

    def forward(self, x: Sym) -> Sym:
        x = x + self.attn(self.attn_norm(x))
        return x + self.ffn(self.ffn_norm(x))


class Llama(Module):
    """Decoder LM: returns next-token logits [batch, seq, vocab]."""

    def __init__(self, config: LlamaConfig, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.config = config
        self.embed = Embedding(config.vocab_size, config.dim, rng=rng)
        self.block_names: list[str] = []
        for index in range(config.num_blocks):
            block = LlamaBlock(config, rng=rng)
            block.meta["block"] = index
            name = f"blocks_{index}"
            setattr(self, name, block)
            self.block_names.append(name)
        self.final_norm = RMSNorm(config.dim)
        self.lm_head = Linear(config.dim, config.vocab_size, bias=False,
                              rng=rng)
        self.lm_head.meta["classifier"] = True

    def forward(self, ids: Sym) -> Sym:
        h = self.embed(ids)
        for name in self.block_names:
            h = self._modules[name](h)
        return self.lm_head(self.final_norm(h))


def build_llama(variant: str = "llama_micro", batch: int = 1,
                seq_len: int | None = None, seed: int = 0,
                lazy: bool | None = None) -> Graph:
    """Trace a Llama variant; the 7B build uses fp16 placeholder weights."""
    config = CONFIGS[variant]
    seq_len = seq_len or config.max_len
    spec = [InputSpec("ids", (batch, seq_len), DType.INT64)]
    if lazy is None:
        lazy = "micro" not in variant
    if lazy:
        with lazy_init(dtype=np.float16):
            graph = trace(Llama(config, seed=seed), spec, name=config.name)
    else:
        graph = trace(Llama(config, seed=seed), spec, name=config.name)
    graph.metadata["family"] = "transformer"
    graph.metadata["num_blocks"] = config.num_blocks
    return graph
