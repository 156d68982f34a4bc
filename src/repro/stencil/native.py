"""Pipelined native-C plans for stencil programs (cffi + system ``cc``).

The interpreter executes a stage as a *chain* of whole-array ufunc
sweeps: an op chain of depth N reads and writes stage-sized arrays N
times, so every stage is bandwidth-bound no matter how arithmetic-heavy
its expression is.  This module is the one emitter over the kernel IR
(:mod:`repro.stencil.lowering`).  It emits **one fused C loop nest per
stage**, so the whole op chain runs per grid point in scalar registers —
the transform that moves heterogeneous stages from the ``stream`` regime
toward the ``cached``/``team`` regimes of the cost model (Malas & Hager,
arXiv:1510.04995).

The loop nests are per i-plane, and **one C entry point per plan** runs
them as a pipeline: at every tick each stage computes one plane that lags
the planes it reads (:func:`plane_schedule`).  That is the paper's
(3+1)D reuse (Sect. 3.2) without redundancy: every temporary lives in a
ring of a few planes instead of a full array, so the intermediates of all
stages stay cache-resident while inputs and outputs stream through once,
and every stage computes its stage box once.  Under a periodic boundary
a stage computes only its window (:class:`~repro.stencil.lowering
.StageSchedule`): on the j/k axes where its box spans the domain, each
plane kernel computes the domain's rows, copies each row's k ghosts from
their periodic images inside the row loop, and then copies the j ghost
rows from their image rows, since those ghosts hold exactly their
images' bits.

Bit-identity with the interpreter is preserved by construction:

* add/sub/mul/div/sqrt are IEEE-754 correctly rounded in both NumPy and
  C (compiled with ``-ffp-contract=off``; no fast-math, no FMA
  contraction), so per-point scalar evaluation in the same op order
  yields the same bits as NumPy's array sweeps;
* ``maximum``/``minimum`` use NumPy's exact selection rule
  ``(a > b || isnan(a)) ? a : b`` (ties — including signed zeros —
  return the *second* operand, NaNs propagate);
* selection (``Where``) compiles to ``cond > 0 ? t : f`` per point,
  elementwise identical to the interpreter's compare + masked copies;
* a point's value depends only on its operand points, never on the order
  in which planes are computed, nor on where it lies, so a periodic
  ghost copied from its image holds the bits computing it would give.

A property test pins 50-step trajectories against the interpreter bit for
bit.

Compiled shared objects are cached on disk keyed by a content hash of the
generated C source (``REPRO_NATIVE_CACHE`` overrides the location), so
re-runs — and worker processes of the procs pool rebuilding their inner
backend after fork/spawn — reload the ``.so`` instead of invoking the
compiler.  :func:`compile_plan_native` returns a
:class:`~repro.stencil.codegen.CompiledPlan` whose call runs the loaded
entry point; cffi releases the GIL for the call, so threads sweeping
different islands run their kernels in parallel.
"""

from __future__ import annotations

import functools
import getpass
import hashlib
import importlib.machinery
import importlib.util
import itertools
import os
import shutil
import sysconfig
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from .codegen import CompiledPlan, Workspace
from .halo import HaloPlan
from .interpreter import ArrayRegion
from .lowering import (
    BinaryOp,
    CopyOp,
    KernelIR,
    Operand,
    SelectOp,
    StageSchedule,
    UnaryOp,
    lower_plan,
)
from .plancache import PLAN_CACHE, plan_geometry_key, program_fingerprint
from .program import StencilProgram
from .region import Box

__all__ = [
    "NativeBuildError",
    "native_available",
    "native_unavailable_reason",
    "native_cache_dir",
    "emit_c_source",
    "plane_schedule",
    "PlaneSchedule",
    "boundary_map",
    "compile_plan_native",
    "entry_arguments",
    "team_driver",
    "TeamProgram",
]


class NativeBuildError(RuntimeError):
    """Raised when native kernels cannot be built on this machine."""


# ----------------------------------------------------------------------
# Toolchain discovery
# ----------------------------------------------------------------------

def _find_compiler() -> Optional[str]:
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


def native_unavailable_reason() -> Optional[str]:
    """Why native kernels cannot be built here, or ``None`` if they can."""
    try:
        import cffi  # noqa: F401
    except ImportError:
        return "the cffi package is not installed"
    if _find_compiler() is None:
        return "no C compiler (cc/gcc/clang) on PATH"
    return None


def native_available() -> bool:
    """Whether this machine can build and run native kernels."""
    return native_unavailable_reason() is None


# ----------------------------------------------------------------------
# C emission
# ----------------------------------------------------------------------

_C_TYPES = {"<f8": ("double", "fabs", "sqrt"), "<f4": ("float", "fabsf", "sqrtf")}

_PREAMBLE = """\
#include <math.h>
#include <time.h>

typedef {ctype} real;

/* Monotonic seconds: the per-stage clock of timed plans. */
static double _now(void) {{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}}

/* NumPy's maximum/minimum selection rule: NaNs propagate, ties (incl.
   signed zeros) return the SECOND operand — required for bit-identity
   with the interpreter's ufunc loops.  Written as a NaN test around a
   plain compare-and-select, gcc emits one max/min, one unordered
   compare and one blend per vector. */
static inline real _np_fmax(real a, real b) {{
    return isnan(a) ? a : (a > b ? a : b);
}}
static inline real _np_fmin(real a, real b) {{
    return isnan(a) ? a : (a < b ? a : b);
}}

/* Copy one input plane into a ring slot of nj rows of nk elements.  Row
   j comes from source row rows[j] of the plane; its k extent is three
   runs (lo, hi, src, step): step 1 copies src.. into [lo, hi), step 0
   repeats element src there (a clamped boundary). */
static inline void _gather(real* restrict dst, const real* restrict plane,
                           const long* restrict rows,
                           const long* restrict runs, long nj, long nk) {{
    for (long j = 0; j < nj; ++j) {{
        const real* restrict src = plane + rows[j];
        real* restrict row = dst + j * nk;
        for (int r = 0; r < 12; r += 4) {{
            const long lo = runs[r], hi = runs[r + 1], from = runs[r + 2];
            if (runs[r + 3])
                for (long k = lo; k < hi; ++k) row[k] = src[from + k - lo];
            else
                for (long k = lo; k < hi; ++k) row[k] = src[from];
        }}
    }}
}}
"""

_BINARY_C = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def _c_operand(op: Operand) -> str:
    if op.kind == "const":
        return f"((real)({op.text}))"
    if op.kind == "output":
        return "_acc"
    return op.text  # view / slot / mask symbols are valid C identifiers


def _c_unary(op: UnaryOp, fabs: str, sqrt: str) -> str:
    a = _c_operand(op.operand)
    if op.op == "neg":
        return f"-({a})"
    if op.op == "abs":
        return f"{fabs}({a})"
    if op.op == "sqrt":
        return f"{sqrt}({a})"
    # NumPy's maximum(a, 0)/minimum(a, 0): a NaN stays a (the compare is
    # false), and ±0 gives the second operand, +0.  One compare-and-select
    # with a constant arm needs no NaN test.
    if op.op == "pos":
        return f"({a}) <= (real)0.0 ? (real)0.0 : ({a})"
    if op.op == "neg_part":
        return f"({a}) >= (real)0.0 ? (real)0.0 : ({a})"
    raise NativeBuildError(f"no C lowering for unary op {op.op!r}")


def _c_binary(op: BinaryOp) -> str:
    a, b = _c_operand(op.left), _c_operand(op.right)
    if op.op in _BINARY_C:
        return f"({a}) {_BINARY_C[op.op]} ({b})"
    if op.op == "max":
        return f"_np_fmax({a}, {b})"
    if op.op == "min":
        return f"_np_fmin({a}, {b})"
    raise NativeBuildError(f"no C lowering for binary op {op.op!r}")


def _stage_symbol(schedule: StageSchedule) -> str:
    return f"_stage_{schedule.index}"


#: The one C entry point every plan module exports.
ENTRY_SYMBOL = "_plan"

#: Workspace slot of a plan's ring arena.  Field names never start with
#: an underscore, so it cannot collide with an output slot.
RING_ARENA = "_rings"


@dataclass(frozen=True)
class PlaneSchedule:
    """How one plan's stages are pipelined over its i-planes.

    Everything here is derived from the :class:`~repro.stencil.lowering
    .KernelIR`.  Stage ``n`` (position in ``ir.stages``) computes plane
    ``i`` at tick ``i + lags[n]``, and within a tick stages run in program
    order.  Ticks run over ``range(*ticks)``.  A folded temporary lives in
    ``rings[name] = (planes, offset, slot)``: ``planes`` slots of ``slot``
    elements each (its anchor box's full j x k extent), ``offset`` elements
    into the ring arena.  Plane ``i`` sits in slot
    ``(i - anchor.lo[0]) % planes``.  Program outputs stay full arrays;
    ``outputs`` and ``inputs`` are the entry point's array arguments, in
    order.

    Each ``gathered`` input has a ring too, filled from the input array
    through its boundary map (:func:`boundary_map`): ``gathers[name] =
    (newest, reader)`` says that tick ``t`` copies plane ``t + newest``
    just before stage ``reader``, the first stage in program order that
    reads the input.  The other inputs are full arrays.
    """

    lags: Tuple[int, ...]
    rings: Dict[str, Tuple[int, int, int]]
    ring_elems: int
    ticks: Tuple[int, int]
    outputs: Tuple[Tuple[str, Tuple[int, int, int]], ...]
    inputs: Tuple[str, ...]
    gathered: FrozenSet[str] = frozenset()
    gathers: Dict[str, Tuple[int, int]] = field(default_factory=dict)


def plane_schedule(ir: KernelIR, gather: Iterable[str] = ()) -> PlaneSchedule:
    """Lag every stage and fold every temporary into a ring of planes.

    ``lag[s]`` is the largest ``lag[p] + d`` over the stage's reads of a
    produced field ``p`` at i-offset ``d`` (0 without such reads): a plane
    is computed once every plane it reads exists.  A temporary ``p`` needs
    ``lag[c] - lag[p] - d + 1`` planes for each consumer ``c`` reading it
    at i-offset ``d``, and at least one: a plane is overwritten only after
    its last reader ran.

    Every program input named in ``gather`` gets a ring as well.  Tick
    ``t`` reads input plane ``t + d - lag`` for each read at i-offset ``d``
    by a stage at lag ``lag``, so the ring holds ``max(d - lag) - min(d -
    lag) + 1`` planes, and each tick copies in the newest one.
    """
    field_map = ir.program.field_map
    position = {schedule.output: n for n, schedule in enumerate(ir.stages)}
    lags: List[int] = []
    for schedule in ir.stages:
        lags.append(
            max(
                (
                    lags[position[view.field]] + view.offset[0]
                    for view in schedule.views
                    if view.field in position
                ),
                default=0,
            )
        )
    depth = {
        schedule.output: 1
        for schedule in ir.stages
        if not field_map[schedule.output].is_output
    }
    for lag, schedule in zip(lags, ir.stages):
        for view in schedule.views:
            if view.field in depth:
                need = lag - lags[position[view.field]] - view.offset[0] + 1
                depth[view.field] = max(depth[view.field], need)
    folded = [schedule.output for schedule in ir.stages]
    gathered = frozenset(gather) & frozenset(ir.input_anchors)
    gathers: Dict[str, Tuple[int, int]] = {}
    for name in sorted(gathered):
        reads = [
            (view.offset[0] - lag, n)
            for n, (lag, schedule) in enumerate(zip(lags, ir.stages))
            for view in schedule.views
            if view.field == name
        ]
        if not reads:
            continue
        shifts = [shift for shift, _ in reads]
        depth[name] = max(shifts) - min(shifts) + 1
        gathers[name] = (max(shifts), min(n for _, n in reads))
        folded.append(name)
    rings: Dict[str, Tuple[int, int, int]] = {}
    ring_elems = 0
    for name in folded:
        if name in depth:
            _, nj, nk = ir.anchors[name].shape
            planes = depth[name]
            rings[name] = (planes, ring_elems, nj * nk)
            ring_elems += planes * nj * nk
    firsts = [s.box.lo[0] + lag for lag, s in zip(lags, ir.stages)]
    lasts = [s.box.hi[0] + lag for lag, s in zip(lags, ir.stages)]
    return PlaneSchedule(
        lags=tuple(lags),
        rings=rings,
        ring_elems=ring_elems,
        ticks=(min(firsts, default=0), max(lasts, default=0)),
        outputs=tuple(
            (s.output, s.shape) for s in ir.stages if s.output not in rings
        ),
        inputs=tuple(sorted(ir.input_anchors)),
        gathered=gathered,
        gathers=gathers,
    )


def _plane_symbol(field_name: str, di: int) -> str:
    """The plane-kernel parameter for ``field_name`` at i-offset ``di``."""
    if di == 0:
        return f"{field_name}_0"
    return f"{field_name}_{'m' if di < 0 else 'p'}{abs(di)}"


def _stage_planes(schedule: StageSchedule) -> List[Tuple[str, List[int]]]:
    """Each field a stage reads with its sorted i-offsets, by field name.

    The order of a plane call's arguments: per field, one pointer per
    i-offset, then the field's j stride.
    """
    planes = sorted({(view.field, view.offset[0]) for view in schedule.views})
    return [
        (name, [di for _, di in group])
        for name, group in itertools.groupby(planes, key=lambda plane: plane[0])
    ]


def _emit_stage(
    schedule: StageSchedule, anchors: Dict[str, Box], fabs: str, sqrt: str
) -> str:
    """Emit one stage's fused loop nest over one i-plane.

    The nest sweeps the schedule's window; a window narrower than the box
    on k copies each computed row's k ghosts after the row, and one
    narrower on j copies the j ghost rows once every domain row is done.
    """
    params = ["real* restrict _out", "long _out_s1"]
    for name, offsets in _stage_planes(schedule):
        params += [
            f"const real* restrict {_plane_symbol(name, di)}" for di in offsets
        ]
        params.append(f"long {name}_s1")
    _, nj, nk = schedule.shape
    # The computed window, counted from the box's corner; each ghost row
    # or column outside it copies its periodic image, one period away.
    box, window = schedule.box, schedule.window
    j0, k0 = (window.lo[axis] - box.lo[axis] for axis in (1, 2))
    j1, k1 = (window.hi[axis] - box.lo[axis] for axis in (1, 2))
    k_ghosts = (k0, k1) != (0, nk)
    lines: List[str] = []
    lines.append(f"/* stage {schedule.index + 1}: "
                 f"{schedule.name} -> {schedule.output} */")
    lines.append(
        f"static inline void {_stage_symbol(schedule)}({', '.join(params)})"
    )
    lines.append("{")
    lines.append(
        f"    for (long _j = {j0}; _j < {j1}; ++_j)" + (" {" if k_ghosts else "")
    )
    lines.append(f"    for (long _k = {k0}; _k < {k1}; ++_k) {{")
    for view in schedule.views:
        anchor = anchors[view.field]
        oj, ok = (view.read_box.lo[axis] - anchor.lo[axis] for axis in (1, 2))
        index = f"(_j + {oj}) * {view.field}_s1 + (_k + {ok})"
        plane = _plane_symbol(view.field, view.offset[0])
        lines.append(f"        const real {view.symbol} = {plane}[{index}];")
    for slot in schedule.float_slots:
        lines.append(f"        real _s{slot};")
    for slot in schedule.mask_slots:
        lines.append(f"        int _m{slot};")
    lines.append("        real _acc;")
    for op in schedule.ops:
        if isinstance(op, UnaryOp):
            lines.append(
                f"        {_c_operand(op.dest)} = {_c_unary(op, fabs, sqrt)};"
            )
        elif isinstance(op, BinaryOp):
            lines.append(f"        {_c_operand(op.dest)} = {_c_binary(op)};")
        elif isinstance(op, SelectOp):
            # Same elementwise selection as the interpreter's compare +
            # masked copies: cond > 0 picks if_true, else if_false.
            lines.append(
                f"        {_c_operand(op.mask)} = "
                f"({_c_operand(op.condition)}) > ((real)0.0);"
            )
            lines.append(
                f"        {_c_operand(op.dest)} = {_c_operand(op.mask)} ? "
                f"({_c_operand(op.if_true)}) : ({_c_operand(op.if_false)});"
            )
        elif isinstance(op, CopyOp):
            lines.append(
                f"        {_c_operand(op.dest)} = {_c_operand(op.source)};"
            )
        else:
            raise NativeBuildError(f"cannot emit kernel op {type(op).__name__}")
    lines.append("        _out[_j * _out_s1 + _k] = _acc;")
    lines.append("    }")
    if k_ghosts:
        # The row's k ghosts, from their images in the run just computed.
        period = k1 - k0
        lines.append("    /* k ghosts: periodic images */")
        for lo, hi, image in ((0, k0, f"+ {period}"), (k1, nk, f"- {period}")):
            if lo < hi:
                lines.append(f"    for (long _k = {lo}; _k < {hi}; ++_k)")
                lines.append(
                    "        _out[_j * _out_s1 + _k] = "
                    f"_out[_j * _out_s1 + _k {image}];"
                )
        lines.append("    }")
    if (j0, j1) != (0, nj):
        # The j ghost rows, k ghosts included, from their image rows.
        period = j1 - j0
        lines.append("    /* j ghost rows: periodic images */")
        for lo, hi, image in ((0, j0, f"+ {period}"), (j1, nj, f"- {period}")):
            if lo < hi:
                lines.append(f"    for (long _j = {lo}; _j < {hi}; ++_j)")
                lines.append(f"    for (long _k = 0; _k < {nk}; ++_k)")
                lines.append(
                    "        _out[_j * _out_s1 + _k] = "
                    f"_out[(_j {image}) * _out_s1 + _k];"
                )
    lines.append("}")
    return "\n".join(lines)


#: Name of the typed pipeline the packed entry point unpacks into.
PIPELINE_SYMBOL = "_pipeline"


def entry_arguments(schedule: PlaneSchedule) -> Tuple[Tuple[str, str], ...]:
    """The packed entry point's argument vector, one ``long`` per slot.

    Each slot is ``(name, kind)``: ``"out"`` (an output array),
    ``"in"`` (an input array), ``"map"`` (a gathered input's boundary
    map), ``"stride"`` (an element stride), ``"rings"`` (the ring arena)
    or ``"clock"`` (the per-stage clock, 0 when untimed).  Outputs come
    first, each with its i and j strides; then every input with either
    its boundary map or its strides; then the ring arena and the clock.
    The emitter unpacks this order and the launch packs it.
    """
    slots: List[Tuple[str, str]] = []
    for name, _ in schedule.outputs:
        slots += [(name, "out"), (f"{name}_s0", "stride"), (f"{name}_s1", "stride")]
    for name in schedule.inputs:
        slots.append((name, "in"))
        if name in schedule.gathered:
            slots.append((f"{name}_map", "map"))
        else:
            slots += [(f"{name}_s0", "stride"), (f"{name}_s1", "stride")]
    return tuple(slots) + ((RING_ARENA, "rings"), ("_clock", "clock"))


#: Each argument kind's C parameter type, ``restrict`` included.
_ARGUMENT_TYPES = {
    "out": "real* restrict",
    "in": "const real* restrict",
    "map": "const long* restrict",
    "stride": "long",
    "rings": "real* restrict",
    "clock": "double*",
}


def _emit_entry(ir: KernelIR, schedule: PlaneSchedule) -> Tuple[str, str]:
    """Emit the entry point over the plane kernels; returns ``(definition, cdef)``.

    The exported :data:`ENTRY_SYMBOL` takes one argument, the packed
    ``long`` vector of :func:`entry_arguments`, and calls the typed
    pipeline, a ``static`` function the compiler inlines into it.  One
    calling convention serves every caller: Python passes the vector of
    a launch, and the native team driver calls the same symbol through a
    function pointer.

    Plane indices are counted from the first tick's plane, so the source
    depends only on the plan's shapes and relative offsets, as the plane
    kernels do: plans that differ by a translation (the islands of one
    grid) share one module.  A gathered input is passed as its array and
    its boundary map, both run-time arguments, so the same holds for it;
    every other input as its array and strides, like an output.
    """
    slots = entry_arguments(schedule)
    params = [f"{_ARGUMENT_TYPES[kind]} {name}" for name, kind in slots]
    unpacked = [
        f"_a[{n}]" if kind == "stride"
        else f"({_ARGUMENT_TYPES[kind].replace(' restrict', '')})_a[{n}]"
        for n, (_, kind) in enumerate(slots)
    ]
    signature = f"static void {PIPELINE_SYMBOL}({', '.join(params)})"

    first, last = schedule.ticks

    def plane(name: str, di: int) -> str:
        """Pointer to plane ``_i + di`` of field ``name``."""
        shift = first + di - ir.anchors[name].lo[0]
        if name not in schedule.rings:
            return f"{name} + (_i + {shift}) * {name}_s0"
        planes, offset, slot = schedule.rings[name]
        if planes == 1:
            return f"_rings + {offset}"
        return f"_rings + {offset} + ((_i + {shift}) % {planes}) * {slot}"

    def j_stride(name: str) -> str:
        """A ring slot spans its anchor box's full j x k extent."""
        if name in schedule.rings:
            return str(ir.anchors[name].shape[2])
        return f"{name}_s1"

    def gather(name: str, index: str) -> str:
        """Copy plane ``index`` of input ``name``'s anchor (counted from
        the anchor's first plane) into its ring slot."""
        planes, offset, slot = schedule.rings[name]
        ni, nj, nk = ir.anchors[name].shape
        return (
            f"_gather(_rings + {offset} + (({index}) % {planes}) * {slot}, "
            f"{name} + {name}_map[{index}], {name}_map + {ni}, "
            f"{name}_map + {ni + nj}, {nj}, {nk});"
        )

    readers: Dict[int, List[str]] = {}
    for name, (_, reader) in schedule.gathers.items():
        readers.setdefault(reader, []).append(name)

    # The exported entry comes first, as the module's interface; the
    # pipeline it unpacks into is declared ahead of it and defined after.
    lines = [
        f"{signature};",
        "",
        f"void {ENTRY_SYMBOL}(const long* _a)",
        "{",
        f"    {PIPELINE_SYMBOL}({', '.join(unpacked)});",
        "}",
        "",
        signature,
        "{",
    ]
    lines.append("    long _i;")
    lines.append("    double _c = 0.0;")
    # The planes tick 0 reads besides its newest, charged to the reader.
    for n, names in sorted(readers.items()):
        fills = []
        for name in names:
            newest, _ = schedule.gathers[name]
            planes = schedule.rings[name][0]
            anchor = ir.anchors[name]
            for shift in range(newest - planes + 1, newest):
                index = first + shift - anchor.lo[0]
                if 0 <= index < anchor.shape[0]:
                    fills.append(f"    {gather(name, str(index))}")
        if fills:
            lines.append("    if (_clock) _c = _now();")
            lines += fills
            lines.append(f"    if (_clock) _clock[{n}] += _now() - _c;")
    lines.append(f"    for (long _t = 0; _t < {last - first}; ++_t) {{")
    for n, (lag, stage) in enumerate(zip(schedule.lags, ir.stages)):
        args = [plane(stage.output, 0), j_stride(stage.output)]
        for name, offsets in _stage_planes(stage):
            args += [plane(name, di) for di in offsets]
            args.append(j_stride(name))
        lines.append(f"        /* stage {stage.index + 1}, lag {lag} */")
        # A stage that first reads a gathered input copies the input's
        # newest plane in, whether or not it computes a plane this tick,
        # and its clock covers the copy.
        gathered = readers.get(n, [])
        if gathered:
            lines.append("        if (_clock) _c = _now();")
        for name in gathered:
            newest, _ = schedule.gathers[name]
            anchor = ir.anchors[name]
            shift = first + newest - anchor.lo[0]
            lines.append(
                f"        if (_t >= {-shift} && _t < {anchor.shape[0] - shift})"
            )
            lines.append(f"            {gather(name, f'_t + {shift}')}")
        lines.append(f"        _i = _t - {lag};")
        lo, hi = stage.box.lo[0] - first, stage.box.hi[0] - first
        lines.append(f"        if (_i >= {lo} && _i < {hi}) {{")
        if not gathered:
            lines.append("            if (_clock) _c = _now();")
        lines.append(f"            {_stage_symbol(stage)}({', '.join(args)});")
        if not gathered:
            lines.append(f"            if (_clock) _clock[{n}] += _now() - _c;")
        lines.append("        }")
        if gathered:
            lines.append(f"        if (_clock) _clock[{n}] += _now() - _c;")
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines), f"void {ENTRY_SYMBOL}(const long *);"


def emit_c_source(
    ir: KernelIR, dtype: np.dtype = np.float64, gather: Iterable[str] = ()
) -> Tuple[str, str]:
    """Render a kernel IR to a C translation unit.

    Returns ``(csource, cdef)``: the compilable source (one static plane
    kernel per non-empty stage, the static pipeline over the plan's
    i-planes, and the :data:`ENTRY_SYMBOL` entry point that unpacks one
    argument vector into it) and the matching cffi declaration of the
    entry point.  ``gather`` names the inputs the pipeline copies plane by
    plane into rings (:func:`plane_schedule`).
    """
    key = np.dtype(dtype).str
    if key not in _C_TYPES:
        raise NativeBuildError(
            f"native kernels support float64/float32, not dtype {dtype}"
        )
    ctype, fabs, sqrt = _C_TYPES[key]
    chunks = [_PREAMBLE.format(ctype=ctype)]
    for schedule in ir.stages:
        chunks.append(_emit_stage(schedule, ir.anchors, fabs, sqrt))
    definition, cdef = _emit_entry(ir, plane_schedule(ir, gather))
    chunks.append(definition)
    return "\n\n".join(chunks) + "\n", f"typedef {ctype} real;\n{cdef}"


# ----------------------------------------------------------------------
# Build + on-disk module cache
# ----------------------------------------------------------------------

#: Environment variable overriding the on-disk build-cache directory.
NATIVE_CACHE_ENV = "REPRO_NATIVE_CACHE"

_LOADED: Dict[str, object] = {}
_BUILD_LOCK = threading.Lock()


def native_cache_dir() -> str:
    """The on-disk cache directory for compiled kernel modules."""
    override = os.environ.get(NATIVE_CACHE_ENV)
    if override:
        return override
    try:
        user = getpass.getuser()
    except (KeyError, OSError):
        user = f"uid{os.getuid()}"
    return os.path.join(tempfile.gettempdir(), f"repro-native-{user}")


#: Kernel build flags.  ``-ffp-contract=off`` forbids FMA contraction:
#: fused multiply-adds round once where NumPy rounds twice, which would
#: break bit-identity with the interpreter.  ``-march=native`` is safe
#: for bit-identity (wider vectors, same correctly-rounded ops) and is
#: what lets the loop nests vectorize; the build cache lives in a
#: per-machine temp directory, so machine-specific code never crosses
#: hosts.
_COMPILE_ARGS = ("-O3", "-march=native", "-ffp-contract=off")


def _compiler_command() -> str:
    """The C compiler command a cffi build runs: ``$CC`` wins, else the
    one this interpreter was configured with."""
    return os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"


@functools.lru_cache(maxsize=None)
def _compiler_identity(command: str) -> str:
    """``command`` plus its resolved binary's path, size and mtime.

    A ``stat``, not a ``cc --version`` subprocess, and once per process
    and command.
    """
    words = command.split()
    binary = shutil.which(words[0]) if words else None
    if binary is None:
        return command
    binary = os.path.realpath(binary)
    info = os.stat(binary)
    return f"{command}\0{binary}\0{info.st_size}\0{info.st_mtime_ns}"


def _module_name(csource: str, cdef: str) -> str:
    """The cache key of one kernel module.

    Covers the build flags and the compiler as well as the source: a
    cached ``.so`` built without ``-ffp-contract=off``, or by another
    compiler, must never be loaded in place of a fresh build.
    """
    key = "\0".join(
        (
            csource,
            cdef,
            *_COMPILE_ARGS,
            _compiler_identity(_compiler_command()),
        )
    )
    digest = hashlib.sha1(key.encode("utf-8")).hexdigest()
    return f"_repro_stencil_{digest[:16]}"


def _ext_suffix() -> str:
    return importlib.machinery.EXTENSION_SUFFIXES[0]


def _build_shared_object(modname: str, csource: str, cdef: str, sopath: str) -> None:
    """Compile the module with cffi + system cc and install it atomically.

    Concurrent builders (threads via the lock, processes via unique temp
    dirs + ``os.replace``) each produce an equivalent artifact; last
    writer wins.
    """
    reason = native_unavailable_reason()
    if reason is not None:
        raise NativeBuildError(f"cannot build native kernels: {reason}")
    from cffi import FFI

    cachedir = os.path.dirname(sopath)
    os.makedirs(cachedir, exist_ok=True)
    ffi = FFI()
    ffi.cdef(cdef)
    ffi.set_source(modname, csource, extra_compile_args=list(_COMPILE_ARGS))
    builddir = tempfile.mkdtemp(prefix=f"{modname}-build-", dir=cachedir)
    try:
        built = ffi.compile(tmpdir=builddir)
        os.replace(built, sopath)
    except NativeBuildError:
        raise
    except Exception as error:  # the build toolchain raises broadly
        raise NativeBuildError(
            f"native kernel compilation failed: {error}"
        ) from error
    finally:
        shutil.rmtree(builddir, ignore_errors=True)


def _import_extension(modname: str, sopath: str) -> object:
    """Load the extension module at ``sopath``.

    The ``dlopen`` happens in ``module_from_spec``, so a truncated or
    corrupt file raises :class:`ImportError` here.
    """
    spec = importlib.util.spec_from_file_location(modname, sopath)
    if spec is None or spec.loader is None:
        raise NativeBuildError(f"cannot load native module at {sopath}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_native_module(csource: str, cdef: str) -> object:
    """The compiled extension module for ``csource`` (building if needed)."""
    modname = _module_name(csource, cdef)
    cached = _LOADED.get(modname)
    if cached is not None:
        return cached
    with _BUILD_LOCK:
        cached = _LOADED.get(modname)
        if cached is not None:
            return cached
        sopath = os.path.join(native_cache_dir(), modname + _ext_suffix())
        if not os.path.exists(sopath):
            _build_shared_object(modname, csource, cdef, sopath)
        try:
            module = _import_extension(modname, sopath)
        except ImportError as error:
            # A stale, truncated or corrupt cache entry: rebuild once.
            _build_shared_object(modname, csource, cdef, sopath)
            try:
                module = _import_extension(modname, sopath)
            except ImportError:
                raise NativeBuildError(
                    f"cannot import rebuilt native module {modname}: {error}"
                ) from error
        _LOADED[modname] = module
        return module


# ----------------------------------------------------------------------
# The team driver: one call per team member runs a whole program
# ----------------------------------------------------------------------

#: Opcodes of a team program (:class:`TeamProgram`), each followed by its
#: operand words (the team driver's C enum has the same values).
#: ``TASK fn args clock wall kernel`` calls entry point ``fn`` with
#: argument vector ``args``; ``COPY dst src n0 n1 n2 d0 d1 s0 s1
#: itemsize`` copies an ``n0 x n1 x n2`` box between two arrays with unit
#: innermost strides (outer strides in elements); ``BARRIER`` waits for
#: every team member; ``END`` returns.
TEAM_END, TEAM_TASK, TEAM_COPY, TEAM_BARRIER = 0, 1, 2, 3

#: Words of the team's synchronization array (``int32``): the arrival
#: count, the barrier generation, the abort flag and the number of
#: blocked waiters, a cache line apart.
TEAM_SYNC_WORDS = 64

_TEAM_SOURCE = """\
#include <limits.h>
#include <sched.h>
#include <string.h>
#include <time.h>
#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

typedef void (*_entry)(const long*);

/* Opcodes (TEAM_END ... in Python) and synchronization words. */
enum { _END, _TASK, _COPY, _BARRIER };
enum { _COUNT = 0, _GEN = 16, _ABORT = 32, _SLEEPERS = 48 };

static double _now(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

static void _relax(void) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    __asm__ __volatile__("yield");
#endif
}

/* Block while *word == value, for at most a millisecond: the timeout
   bounds the cost of any wake-up that is missed. */
static void _block(int* word, int value) {
#ifdef __linux__
    struct timespec ts = {0, 1000000};
    syscall(SYS_futex, word, FUTEX_WAIT_PRIVATE, value, &ts, NULL, 0);
#else
    struct timespec ts = {0, 50000};
    (void)word; (void)value;
    nanosleep(&ts, NULL);
#endif
}

static void _wake(int* word) {
#ifdef __linux__
    syscall(SYS_futex, word, FUTEX_WAKE_PRIVATE, INT_MAX, NULL, NULL, 0);
#else
    (void)word;
#endif
}

static int _aborted(int* sync) {
    return __atomic_load_n(sync + _ABORT, __ATOMIC_ACQUIRE);
}

/* A waiter spins (pauses) for its first _SPIN_SECONDS. */
#define _SPIN_SECONDS 5e-5

/* A generation barrier.  The last member to arrive resets the count and
   advances the generation.  The others spin, then yield their CPU, and
   block once they have waited `keep` seconds, until the generation
   moves.  Returns nonzero once the step was aborted. */
static int _barrier(int* sync, long team, double keep) {
    if (team <= 1)
        return _aborted(sync);
    const int gen = __atomic_load_n(sync + _GEN, __ATOMIC_ACQUIRE);
    if (_aborted(sync))
        return 1;
    if (__atomic_add_fetch(sync + _COUNT, 1, __ATOMIC_ACQ_REL) == team) {
        __atomic_store_n(sync + _COUNT, 0, __ATOMIC_RELAXED);
        __atomic_add_fetch(sync + _GEN, 1, __ATOMIC_SEQ_CST);
        if (__atomic_load_n(sync + _SLEEPERS, __ATOMIC_SEQ_CST))
            _wake(sync + _GEN);
        return _aborted(sync);
    }
    const double start = _now();
    for (long turn = 1;; ++turn) {
        if (_aborted(sync))
            return 1;
        if (__atomic_load_n(sync + _GEN, __ATOMIC_ACQUIRE) != gen)
            return 0;
        if (turn % 64) {
            _relax();
            continue;
        }
        const double waited = _now() - start;
        if (waited < keep) {
            if (waited >= _SPIN_SECONDS)
                sched_yield();
            continue;
        }
        __atomic_add_fetch(sync + _SLEEPERS, 1, __ATOMIC_SEQ_CST);
        if (__atomic_load_n(sync + _GEN, __ATOMIC_SEQ_CST) == gen)
            _block(sync + _GEN, gen);
        __atomic_sub_fetch(sync + _SLEEPERS, 1, __ATOMIC_SEQ_CST);
    }
}

/* Run one member's program of a team of `team`, keeping its CPU for up
   to `keep` seconds at each barrier.  With `seconds`, each task's wall
   time is added to seconds[wall] and the growth of its plan's clock to
   seconds[kernel].  Returns 0, or 1 when the step was aborted. */
long _team_run(const long* op, int* sync, long team, double keep,
               double* seconds) {
    for (;;) {
        if (_aborted(sync))
            return 1;
        switch (op[0]) {
        case _TASK: {
            const double* clock = (const double*)op[3];
            double begin = 0.0, before = 0.0;
            if (seconds) {
                begin = _now();
                if (clock)
                    before = *clock;
            }
            ((_entry)op[1])((const long*)op[2]);
            if (seconds) {
                seconds[op[4]] += _now() - begin;
                if (clock)
                    seconds[op[5]] += *clock - before;
            }
            op += 6;
            break;
        }
        case _COPY: {
            char* dst = (char*)op[1];
            const char* src = (const char*)op[2];
            const long item = op[10], row = op[5] * item;
            for (long i = 0; i < op[3]; ++i)
                for (long j = 0; j < op[4]; ++j)
                    memcpy(dst + (i * op[6] + j * op[7]) * item,
                           src + (i * op[8] + j * op[9]) * item, row);
            op += 11;
            break;
        }
        case _BARRIER:
            if (_barrier(sync, team, keep))
                return 1;
            op += 1;
            break;
        default:
            return 0;
        }
    }
}

/* Release every member of the step, wherever it waits. */
void _team_abort(int* sync) {
    __atomic_store_n(sync + _ABORT, 1, __ATOMIC_SEQ_CST);
    __atomic_add_fetch(sync + _GEN, 1, __ATOMIC_SEQ_CST);
    _wake(sync + _GEN);
}
"""

_TEAM_CDEF = """\
long _team_run(const long *, int *, long, double, double *);
void _team_abort(int *);
"""


def team_driver() -> object:
    """The compiled team driver module (built and cached like a plan's).

    Its ``lib`` exports ``_team_run(program, sync, team, keep,
    seconds)``, which runs one member's :class:`TeamProgram` and returns
    0, or 1 when the step was aborted, and ``_team_abort(sync)``, which
    releases every member of a step wherever it waits.  Both release the
    GIL.  A member waiting at a barrier spins briefly, then yields its
    CPU, and blocks once it has waited ``keep`` seconds; it never spins
    without bound.
    """
    return _load_native_module(_TEAM_SOURCE, _TEAM_CDEF)


class TeamProgram:
    """One team member's op list for the team driver (:data:`TEAM_TASK` …).

    Built once, packed into one ``int64`` array; only the destination of
    a copy is ever rewritten in place afterwards (:meth:`repoint`).
    """

    def __init__(self) -> None:
        self._words: List[int] = []
        self.words: Optional[np.ndarray] = None

    def task(self, launch: _Launch, wall: int, kernel: int) -> None:
        """Call a launch; its wall time goes to ``seconds[wall]`` and its
        plan's clock growth to ``seconds[kernel]`` when timed."""
        self._words += [
            TEAM_TASK, launch.entry, launch.vector.ctypes.data, launch.clock,
            wall, kernel,
        ]

    def copy(self, dst: np.ndarray, src: np.ndarray) -> int:
        """Copy ``src`` into ``dst`` (equal 3-D shapes, unit innermost
        strides); returns the word offset of the copy's operands."""
        if dst.shape != src.shape or dst.dtype != src.dtype:
            raise ValueError(
                f"team copy between {src.shape} {src.dtype} and "
                f"{dst.shape} {dst.dtype}"
            )
        self._words.append(TEAM_COPY)
        offset = len(self._words)
        self._words += _copy_words(dst, src)
        return offset

    def barrier(self) -> None:
        self._words.append(TEAM_BARRIER)

    def pack(self) -> np.ndarray:
        """The program as the team driver reads it, ended by
        :data:`TEAM_END`."""
        self.words = np.array(self._words + [TEAM_END], dtype=np.int64)
        return self.words

    def repoint(self, offset: int, dst: np.ndarray, src: np.ndarray) -> None:
        """Rewrite a packed copy's operands for a new destination array."""
        self.words[offset:offset + 10] = _copy_words(dst, src)


def _copy_words(dst: np.ndarray, src: np.ndarray) -> List[int]:
    d0, d1 = _strides_in_elements(dst, "copy destination")
    s0, s1 = _strides_in_elements(src, "copy source")
    n0, n1, n2 = dst.shape
    return [
        dst.ctypes.data, src.ctypes.data, n0, n1, n2, d0, d1, s0, s1,
        dst.itemsize,
    ]


# ----------------------------------------------------------------------
# Plan compilation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Launch:
    """The entry point's packed argument vector, built against the plan's
    workspace.

    Building it is the per-call set-up of a native step: fetch the output
    arrays and the ring arena, check unit innermost strides, pack
    pointers and strides into ``vector`` in :func:`entry_arguments`
    order.  Python runs it as ``entry(pointer)``; the team driver calls
    the entry point at address ``entry`` with the vector's address.  The
    vector stays valid while the workspace still holds every array the
    launch points into (no slot was reallocated, reset or bound to
    another array since); ``produced``, ``rings`` and ``sources`` (the
    input arrays and boundary maps) keep every such array alive.
    """

    workspace: Workspace
    vector: np.ndarray
    pointer: object
    entry: int
    #: Address of the plan's per-stage clock (0 when untimed).
    clock: int
    produced: Dict[str, np.ndarray]
    rings: Optional[np.ndarray]
    sources: Tuple[np.ndarray, ...] = ()

    def holds(self) -> bool:
        workspace = self.workspace
        for name, array in self.produced.items():
            if not workspace.holds(name, array):
                return False
        return self.rings is None or workspace.holds(RING_ARENA, self.rings)

    @property
    def slots(self) -> int:
        """Workspace slots the launch fetched."""
        return len(self.produced) + (self.rings is not None)


def _strides_in_elements(array: np.ndarray, label: str) -> Tuple[int, int]:
    itemsize = array.itemsize
    s0, s1, s2 = array.strides
    if s2 != itemsize or s0 % itemsize or s1 % itemsize:
        raise ValueError(
            f"native kernel argument {label!r} must have a unit innermost "
            f"stride (strides {array.strides}, itemsize {itemsize})"
        )
    return s0 // itemsize, s1 // itemsize


def _fold_axis(
    anchor: Box, region: Box, domain: Box, mode: str, axis: int, label: str
) -> np.ndarray:
    """Each anchor coordinate on ``axis`` as an index into ``region``.

    A coordinate inside the region maps to itself; one outside is folded
    into the domain by the boundary condition (``g mod n`` for periodic, a
    clamp to ``[0, n)`` for open), and the region must hold the result.
    """
    lo, hi = region.lo[axis], region.hi[axis]
    start, n = domain.lo[axis], domain.shape[axis]
    coords = np.arange(anchor.lo[axis], anchor.hi[axis])
    if mode == "periodic":
        folded = start + (coords - start) % n
    else:
        folded = np.clip(coords, start, start + n - 1)
    coords = np.where((coords >= lo) & (coords < hi), coords, folded)
    if coords.size and (coords.min() < lo or coords.max() >= hi):
        raise ValueError(
            f"input {label!r} covers {region}, which neither covers the "
            f"required {anchor} nor holds its {mode} boundary image in "
            f"the domain {domain}"
        )
    return coords - lo


#: Length of one input's k runs in a boundary map: three (lo, hi, src,
#: step) quadruples.
_RUN_WORDS = 12


def boundary_map(
    anchor: Box, region: ArrayRegion, domain: Box, mode: str, label: str
) -> np.ndarray:
    """The gather map of one input: where each anchor point's value lives.

    A gathered plan reads anchor point ``(i, j, k)`` of an input from
    ``region.data`` through this ``int64`` array: one element offset per
    anchor plane, one per anchor row, then the k extent as at most three
    runs ``(lo, hi, src, step)`` (:data:`_RUN_WORDS`).  Coordinates are
    folded by :func:`_fold_axis`, so a ghost-extended region binds with
    identity maps and a bare domain array with the boundary's own.
    Raises :class:`ValueError` when ``region`` can supply neither.
    """
    if mode not in ("periodic", "open"):
        raise ValueError(f"unknown boundary mode {mode!r}")
    s0, s1 = _strides_in_elements(region.data, label)
    box = region.box
    planes = _fold_axis(anchor, box, domain, mode, 0, label) * s0
    rows = _fold_axis(anchor, box, domain, mode, 1, label) * s1
    ks = _fold_axis(anchor, box, domain, mode, 2, label).tolist()
    runs: List[int] = []
    k = 0
    while k < len(ks):
        step = int(k + 1 < len(ks) and ks[k + 1] == ks[k] + 1)
        end = k + 1
        while end < len(ks) and ks[end] == ks[k] + step * (end - k):
            end += 1
        runs += [k, end, ks[k], step]
        k = end
    if len(runs) > _RUN_WORDS:
        raise ValueError(
            f"input {label!r}: the k boundary of {anchor} needs "
            f"{len(runs) // 4} runs, more than {_RUN_WORDS // 4}"
        )
    runs += [0, 0, 0, 1] * ((_RUN_WORDS - len(runs)) // 4)
    return np.concatenate([planes, rows, runs]).astype(np.int64)


def compile_plan_native(
    program: StencilProgram,
    plan: HaloPlan,
    dtype: np.dtype = np.float64,
    timed: bool = False,
    boundary: Optional[Tuple[str, Box]] = None,
    gather: Optional[Iterable[str]] = None,
) -> CompiledPlan:
    """Compile one halo plan to one pipelined native-C entry point.

    The entry point walks the plan's i-planes and runs every stage's
    fused loop nest on a plane that lags its inputs
    (:func:`plane_schedule`), so temporaries live in rings of planes,
    every stage computes its box once, and the result is bit-identical
    to the interpreter.  The plan owns one
    :class:`~repro.stencil.codegen.Workspace` (the ring arena plus one
    array per program output), so repeat calls are allocation-free and
    overwrite the arrays the previous call returned.  ``timed`` hands
    the entry point a per-stage clock, so
    :attr:`CompiledPlan.stage_seconds` accumulates each stage's wall
    time plane by plane.  Raises :class:`NativeBuildError` when cffi or a
    C compiler is missing (the runtime's backends check this once, at
    construction, and report it as a configuration error rather than
    degrading).

    ``boundary`` — ``(mode, domain box)`` — makes a *gathered* plan: the
    inputs named in ``gather`` (every input by default) need no ghost
    layers.  The entry point copies each of their planes into a ring as
    the pipeline first needs it, folding coordinates outside the bound
    region into the domain by the boundary condition
    (:func:`boundary_map`), so the plan binds a bare domain array and a
    ghost-extended one alike.  Each copy is charged to the clock of the
    first stage that reads the input.  The other inputs are read from
    regions covering their required boxes, as a plan without a boundary
    reads every input.

    A ``"periodic"`` boundary also lowers the plan with its domain
    (:func:`~repro.stencil.lowering.lower_plan`): each stage computes
    only the domain on the j/k axes its box spans and copies its ghosts
    there from their periodic images.  That is exact because a gathered
    input's ghosts are folded images, and it requires the same of every
    other input: their ghost layers must hold the boundary's images
    (as :func:`~repro.mpdata.boundary.extend_array` fills them, on every
    engine path).

    Generated C and the plane schedule are served from the process-wide
    plan cache; compiled shared objects are additionally cached on disk,
    so forked/spawned procs workers reload instead of recompiling.  Each
    call still returns its own plan object, so cached plans never share
    buffers.
    """
    dtype = np.dtype(dtype)
    inputs = frozenset(field.name for field in program.input_fields)
    if boundary is None:
        if gather:
            raise ValueError("gathering inputs needs a boundary")
        gathered: FrozenSet[str] = frozenset()
    else:
        gathered = inputs if gather is None else frozenset(gather)
        if not gathered <= inputs:
            raise ValueError(
                f"cannot gather {sorted(gathered - inputs)}: not inputs of "
                f"{program.name!r}"
            )
    periodic = None
    if boundary is not None and boundary[0] == "periodic":
        periodic = boundary[1]
    cache_key = (
        program_fingerprint(program),
        plan_geometry_key(plan),
        dtype.str,
        tuple(sorted(gathered)),
        periodic,
    )

    def _build():
        ir = lower_plan(program, plan, periodic=periodic)
        csource, cdef = emit_c_source(ir, dtype, gathered)
        names = tuple(stage.name for stage in ir.stages)
        return (
            csource, cdef, plane_schedule(ir, gathered), names,
            dict(ir.input_anchors),
        )

    (csource, cdef, schedule, names, input_anchors), _ = PLAN_CACHE.get_or_build(
        cache_key, _build
    )
    module = _load_native_module(csource, cdef)
    ffi = module.ffi  # type: ignore[attr-defined]
    entry = getattr(module.lib, ENTRY_SYMBOL)  # type: ignore[attr-defined]
    # The entry's address, for callers that run launches through a
    # function pointer (the team driver).
    address = int(
        ffi.cast("intptr_t", ffi.addressof(module.lib, ENTRY_SYMBOL))
    )
    slots = entry_arguments(schedule)
    cast = ffi.cast

    stage_seconds: Optional[np.ndarray] = None
    clock = 0
    if timed:
        stage_seconds = np.zeros(len(names))
        clock = stage_seconds.ctypes.data

    gather_map = None
    if boundary is not None:
        mode, domain = boundary
        # A map depends only on the region's box and strides, so a new
        # array in an old geometry (a fresh output fed back) reuses it.
        maps: Dict[tuple, np.ndarray] = {}

        def gather_map(name: str, region: ArrayRegion) -> np.ndarray:
            key = (name, region.box, region.data.strides)
            found = maps.get(key)
            if found is None:
                found = maps[key] = boundary_map(
                    input_anchors[name], region, domain, mode, name
                )
            return found

    def _bind_stages(
        arrays: Dict[str, np.ndarray],
        maps: Dict[str, np.ndarray],
        workspace: Workspace,
    ) -> _Launch:
        values: Dict[str, int] = {"_clock": clock}
        produced: Dict[str, np.ndarray] = {}
        for name, shape in schedule.outputs:
            out = produced[name] = workspace.out(name, shape)
            values[name] = out.ctypes.data
            values[f"{name}_s0"], values[f"{name}_s1"] = _strides_in_elements(
                out, name
            )
        for name in schedule.inputs:
            source = arrays[name]
            values[name] = source.ctypes.data
            if name in schedule.gathered:
                values[f"{name}_map"] = maps[name].ctypes.data
            else:
                values[f"{name}_s0"], values[f"{name}_s1"] = (
                    _strides_in_elements(source, name)
                )
        rings = None
        values[RING_ARENA] = 0
        if schedule.ring_elems:
            rings = workspace.out(RING_ARENA, (schedule.ring_elems,))
            values[RING_ARENA] = rings.ctypes.data
        vector = np.array([values[name] for name, _ in slots], dtype=np.int64)
        return _Launch(
            workspace,
            vector,
            cast("long *", vector.ctypes.data),
            address,
            clock,
            produced,
            rings,
            (*arrays.values(), *maps.values()),
        )

    def _launch(launch: _Launch) -> Dict[str, np.ndarray]:
        entry(launch.pointer)
        return launch.produced

    return CompiledPlan(
        program=program,
        plan=plan,
        source=csource,
        dtype=dtype,
        _input_anchors=dict(input_anchors),
        _bind_stages=_bind_stages,
        _launch=_launch,
        workspace=Workspace(dtype),
        _stage_names=names,
        _stage_seconds=stage_seconds,
        _gathered=schedule.gathered,
        _gather_map=gather_map,
    )
