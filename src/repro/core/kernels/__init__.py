"""The fast kernel tiers (``docs/kernels.md``).  NumPy: :mod:`.batch` holds the
one chunked push loop and its three accumulator strategies — MSA, MCA, Hash,
ESC and the 2P symbolic pass are that loop — beside the pull kernel and the
unmasked saxpy.  Native: :mod:`.native` loads ``native.c``'s row loops."""

from .arena import Lease, ScratchArena, arena_stats, clear_arena, get_arena
from .esc_kernel import masked_spgemm_esc_fast
from .expand import DEFAULT_FLOP_BUDGET, expand_products, iter_row_blocks, row_keys
from .hash_kernel import VectorHashTable, masked_spgemm_hash_fast
from .inner_kernel import masked_spgemm_inner_fast
from .mca_kernel import masked_spgemm_mca_fast
from .msa_kernel import masked_spgemm_msa_fast
from .saxpy_kernel import masked_spgemm_multiply_then_mask, spgemm_saxpy_fast

__all__ = [
    "Lease",
    "ScratchArena",
    "arena_stats",
    "clear_arena",
    "get_arena",
    "DEFAULT_FLOP_BUDGET",
    "expand_products",
    "iter_row_blocks",
    "row_keys",
    "masked_spgemm_esc_fast",
    "VectorHashTable",
    "masked_spgemm_hash_fast",
    "masked_spgemm_inner_fast",
    "masked_spgemm_mca_fast",
    "masked_spgemm_msa_fast",
    "masked_spgemm_multiply_then_mask",
    "spgemm_saxpy_fast",
]
