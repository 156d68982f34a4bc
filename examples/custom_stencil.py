"""Bring your own heterogeneous stencil: the IR as a user-facing library.

The islands-of-cores machinery is not MPDATA-specific — it works for any
multi-stage stencil program.  This example builds a small
heterogeneous chain (a damped diffusion step with a flux limiter), then
walks the full tool chain:

* derived analyses: halos, flops, per-stage patterns;
* exact extra-element accounting for island partitionings (your own
  "Table 2");
* bit-exact partitioned execution;
* compilation to fused C kernels (needs cffi and a C compiler) and the
  transformation passes.

    python examples/custom_stencil.py
"""

import numpy as np

from repro.core import Variant, partition_domain, redundancy_report
from repro.runtime import EngineConfig, PartitionedRunner
from repro.stencil import (
    Access,
    Field,
    FieldRole,
    Stage,
    StencilProgram,
    compile_plan_native,
    fabs,
    fmin,
    full_box,
    inline_all_temporaries,
    program_halo_depth,
    required_regions,
)


def build_program() -> StencilProgram:
    """A 4-stage heterogeneous chain: gradient, limiter, flux, update."""
    # Stage 1: centred i-gradient of the input field.
    grad = (Access("c", (1, 0, 0)) - Access("c", (-1, 0, 0))) * 0.5
    # Stage 2: a minmod-flavoured limiter — a *different* pattern.
    limiter = fmin(fabs(Access("g")), fabs(Access("g", (0, 1, 0)))) * 0.5
    # Stage 3: limited diffusive flux at i-faces.
    flux = Access("lim", (-1, 0, 0)) * (
        Access("c") - Access("c", (-1, 0, 0))
    )
    # Stage 4: damped update.
    update = Access("c") + 0.4 * (Access("f", (1, 0, 0)) - Access("f")) - (
        0.01 * Access("c")
    )
    return StencilProgram.build(
        "limited-diffusion",
        inputs=(Field("c", FieldRole.INPUT),),
        stages=(
            Stage("gradient", "g", grad),
            Stage("limiter", "lim", limiter),
            Stage("flux", "f", flux),
            Stage("update", "c_out", update),
        ),
        outputs=("c_out",),
    )


def main() -> None:
    program = build_program()
    print(f"{program}")
    for stage in program.stages:
        print(
            f"  {stage.name:10s} -> {stage.output:6s} "
            f"flops/pt={stage.flops_per_point:2d} reads={stage.reads}"
        )

    lo, hi = program_halo_depth(program)
    print(f"\ntransitive stage halo: -{lo} / +{hi} (derived, not declared)")

    # Your own Table 2: exact redundancy of islands partitionings.
    shape = (64, 32, 8)
    domain = full_box(shape)
    print("\nextra elements per island count (variant A):")
    for islands in (2, 4, 8):
        report = redundancy_report(
            program, partition_domain(domain, islands, Variant.A)
        )
        print(
            f"  {islands} islands: {report.extra_percent:.3f} % "
            f"({report.extra_points} points)"
        )

    # Bit-exact partitioned execution, straight from the same analysis.
    rng = np.random.default_rng(7)
    arrays = {"c": rng.random(shape) + 0.5}
    whole = PartitionedRunner(program, shape, islands=1)
    split = PartitionedRunner(
        program, shape, islands=4, config=EngineConfig(threads=4)
    )
    exact = np.array_equal(whole.step(arrays), split.step(arrays))
    print(f"\n4 threaded islands == whole domain, bit for bit: {exact}")

    # Compile to fused C kernels and inspect the generated source.
    # An unclipped plan needs the input with ghost layers, exactly like
    # the interpreter; here we wrap periodically with np.pad.
    compiled = compile_plan_native(program, required_regions(program, domain))
    c_box = compiled.plan.input_boxes["c"]
    pad = tuple(
        (0 - c_box.lo[a], c_box.hi[a] - shape[a]) for a in range(3)
    )
    from repro.stencil import ArrayRegion

    ghosted = ArrayRegion(
        np.pad(arrays["c"], pad, mode="wrap"), c_box
    )
    out_compiled = compiled({"c": ghosted})["c_out"].view(domain)
    same = np.array_equal(out_compiled, whole.step(arrays))
    kernel = compiled.source[compiled.source.index("/* stage 1"):]
    first_lines = "\n".join(kernel.splitlines()[:6])
    print(f"\ngenerated kernel (first lines):\n{first_lines}\n...")
    print(f"compiled kernel bit-exact vs interpreter: {same}")

    # Transformation passes: fully inline the temporaries.
    mega = inline_all_temporaries(program)
    print(
        f"\nfully inlined: {len(mega.stages)} stage, "
        f"{mega.flops_per_point} flops/pt "
        f"(vs {program.flops_per_point} staged) — recomputation traded "
        "for intermediates, the paper's Sect. 4.1 inside the IR"
    )


if __name__ == "__main__":
    main()
