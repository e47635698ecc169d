"""The OP2-like core abstraction: sets, data, maps, kernels, parallel loops.

Public API (mirrors the paper's Section 3 building blocks)::

    nodes = Set(n_nodes, "nodes")
    edges = Set(n_edges, "edges")
    edge2node = Map(edges, nodes, 2, conn, "edge2node")
    p_x = Dat(nodes, 2, coords, name="p_x")

    par_loop(res_calc, edges,
             arg_dat(p_x, 0, edge2node, READ),
             arg_dat(p_x, 1, edge2node, READ),
             arg_dat(p_q, IDX_ID, None, READ),
             arg_dat(p_res, 0, edge2cell, INC),
             arg_dat(p_res, 1, edge2cell, INC))
"""

from .access import (
    IDX_ALL,
    IDX_ID,
    INC,
    MAX,
    MIN,
    READ,
    RW,
    WRITE,
    Access,
    Arg,
    arg_dat,
    arg_gbl,
)
from .chain import (
    CompiledChain,
    LoopChain,
    LoopSpec,
    Repeat,
    chain,
    compile_chain,
    fusion_groups,
    pair_fusable,
)
from .dat import (
    LAYOUTS,
    Dat,
    dat_layout,
    get_default_layout,
    set_default_layout,
)
from .glob import Global
from .kernel import Kernel, KernelInfo, kernel
from .loop import par_loop, validate_loop
from .map import Map, identity_map
from .mat import Mat, arg_mat
from .plan import DEFAULT_BLOCK_SIZE, Plan, PlanCache, build_plan, plan_signature
from .runtime import Runtime, default_runtime, make_backend, set_backend
from .set import Set

__all__ = [
    "Access",
    "Arg",
    "CompiledChain",
    "DEFAULT_BLOCK_SIZE",
    "Dat",
    "LoopChain",
    "LoopSpec",
    "Global",
    "IDX_ALL",
    "IDX_ID",
    "INC",
    "Kernel",
    "KernelInfo",
    "LAYOUTS",
    "MAX",
    "MIN",
    "Map",
    "Mat",
    "Plan",
    "PlanCache",
    "READ",
    "RW",
    "Repeat",
    "Runtime",
    "Set",
    "WRITE",
    "arg_dat",
    "arg_gbl",
    "arg_mat",
    "build_plan",
    "chain",
    "compile_chain",
    "fusion_groups",
    "pair_fusable",
    "dat_layout",
    "default_runtime",
    "get_default_layout",
    "set_default_layout",
    "identity_map",
    "kernel",
    "make_backend",
    "par_loop",
    "plan_signature",
    "set_backend",
    "validate_loop",
]
