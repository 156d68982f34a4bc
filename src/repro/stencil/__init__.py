"""Stencil intermediate representation and analyses.

The building blocks for expressing heterogeneous stencil computations —
programs made of many dependent stages with *different* stencil patterns —
together with the analyses the islands-of-cores approach rests on:

* :mod:`repro.stencil.expr` — scalar expression trees,
* :mod:`repro.stencil.field`, :mod:`repro.stencil.stage`,
  :mod:`repro.stencil.program` — program structure,
* :mod:`repro.stencil.region` — 3D index boxes,
* :mod:`repro.stencil.halo` — backward transitive halo analysis,
* :mod:`repro.stencil.interpreter` — vectorized NumPy execution,
* :mod:`repro.stencil.lowering` — backend-neutral kernel IR (three-address
  ops with slot liveness),
* :mod:`repro.stencil.native` — one compiled-C entry point per plan over
  the IR, its fused stage kernels pipelined over i-planes,
* :mod:`repro.stencil.plancache` — process-wide compiled-plan cache,
* :mod:`repro.stencil.tiling` — (3+1)D cache blocking,
* :mod:`repro.stencil.flops` — work accounting,
* :mod:`repro.stencil.validate` — lints and dataflow diagnostics.
"""

from .autotune import (
    TuningResult,
    autotune_blocks,
    candidate_shapes,
)
from .codegen import CompiledPlan, Workspace
from .expr import (
    Access,
    Binary,
    Const,
    EvalArena,
    Expr,
    Offset,
    Unary,
    Where,
    as_expr,
    fabs,
    fmax,
    fmin,
    neg,
    pos,
    sqrt,
)
from .field import Field, FieldRole
from .flops import (
    ProgramCost,
    StageCost,
    plan_flops,
    program_arith_flops_per_point,
    program_cost,
)
from .gallery import (
    GALLERY,
    biharmonic,
    heat3d,
    jacobi7,
    smoother_chain,
    star3d,
    wave3d,
)
from .halo import (
    HaloPlan,
    program_halo_depth,
    required_regions,
    stage_expansions,
)
from .interpreter import (
    ArrayRegion,
    ExecutionStats,
    StageArena,
    execute,
    execute_plan,
)
from .lowering import (
    KernelIR,
    StageSchedule,
    lower_plan,
)
from .native import (
    NativeBuildError,
    compile_plan_native,
    native_available,
)
from .plancache import (
    PLAN_CACHE,
    clear_plan_cache,
    plan_cache_stats,
    program_fingerprint,
)
from .pretty import describe_program, describe_stage_table
from .program import ProgramError, StencilProgram
from .region import Box, full_box
from .serialize import (
    dump_program,
    expr_from_dict,
    expr_to_dict,
    load_program,
    program_from_dict,
    program_to_dict,
)
from .stage import AxisExtent, Stage
from .tiling import (
    BlockPlan,
    plan_blocks,
    plan_blocks_exact,
    split_axis,
    working_set_bytes,
)
from .transform import (
    eliminate_dead_stages,
    inline_all_temporaries,
    inline_stage,
    schedule_by_levels,
    shift_expr,
    substitute_field,
)
from .validate import dependency_levels, lint_program, liveness_spans

__all__ = [
    "Access",
    "GALLERY",
    "ArrayRegion",
    "AxisExtent",
    "Binary",
    "BlockPlan",
    "Box",
    "CompiledPlan",
    "Const",
    "EvalArena",
    "ExecutionStats",
    "Expr",
    "Field",
    "FieldRole",
    "HaloPlan",
    "KernelIR",
    "NativeBuildError",
    "Offset",
    "PLAN_CACHE",
    "ProgramCost",
    "ProgramError",
    "StageArena",
    "StageCost",
    "StageSchedule",
    "Stage",
    "StencilProgram",
    "TuningResult",
    "Unary",
    "Where",
    "Workspace",
    "as_expr",
    "autotune_blocks",
    "biharmonic",
    "candidate_shapes",
    "clear_plan_cache",
    "compile_plan_native",
    "dependency_levels",
    "describe_program",
    "describe_stage_table",
    "dump_program",
    "eliminate_dead_stages",
    "execute",
    "execute_plan",
    "expr_from_dict",
    "expr_to_dict",
    "fabs",
    "fmax",
    "fmin",
    "full_box",
    "heat3d",
    "inline_all_temporaries",
    "inline_stage",
    "jacobi7",
    "load_program",
    "lint_program",
    "liveness_spans",
    "lower_plan",
    "native_available",
    "neg",
    "plan_blocks",
    "plan_blocks_exact",
    "plan_cache_stats",
    "plan_flops",
    "program_fingerprint",
    "program_from_dict",
    "program_to_dict",
    "pos",
    "program_arith_flops_per_point",
    "program_cost",
    "program_halo_depth",
    "required_regions",
    "schedule_by_levels",
    "shift_expr",
    "smoother_chain",
    "split_axis",
    "sqrt",
    "star3d",
    "stage_expansions",
    "substitute_field",
    "wave3d",
    "working_set_bytes",
]
