"""Compilation of stencil programs to specialized NumPy source.

The interpreter (:mod:`repro.stencil.interpreter`) walks the expression tree
for every stage of every step.  For a *fixed* halo plan all region geometry
is known ahead of time, so a program can instead be compiled once into a
plain Python function whose body is straight-line NumPy code with constant
slice bounds — no tree walking, no box arithmetic, no dictionary lookups in
the hot path.

Lowering to three-address form — one elementwise op per statement with an
explicit destination, scratch slots register-allocated at compile time —
lives in :mod:`repro.stencil.lowering`; this module is the NumPy *emitter*
over that kernel IR.  Every :class:`~repro.stencil.lowering.UnaryOp` /
``BinaryOp`` becomes one ufunc call writing into an explicit ``out=``
destination — either the stage's output array or a numbered scratch slot
served by a :class:`Workspace` — and every ``SelectOp`` becomes the
comparison + two masked copies the interpreter's arena evaluator performs.
Because the generated statements call the **same ufuncs in the same
order** as ``Expr._eval_into``, compiled execution is bit-identical to
interpreted execution; a property test pins this.

Compiled artifacts (source + code object) are cached process-wide by
(program fingerprint, plan geometry, dtype, timed) — see
:mod:`repro.stencil.plancache` — so rebuilding a runner with the same
configuration reuses them instead of re-lowering and re-compiling.

By default every call uses a fresh workspace (results are independent
arrays, as before).  Compiling with ``reuse_buffers=True`` — or flipping
:attr:`CompiledPlan.persistent` later — pins one persistent workspace to
the plan: stage outputs and scratch then live across calls and a
steady-state step performs **zero** array allocations.  The source is kept
on the compiled object for inspection:

>>> from repro.mpdata import mpdata_program
>>> from repro.stencil import full_box, required_regions, compile_plan
>>> program = mpdata_program()
>>> plan = required_regions(program, full_box((16, 16, 8)))
>>> step = compile_plan(program, plan)          # doctest: +SKIP
>>> print(step.source)                          # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from .halo import HaloPlan, required_regions
from .interpreter import ArrayRegion
from .lowering import (
    BinaryOp,
    CopyOp,
    KernelIR,
    KernelOp,
    SelectOp,
    UnaryOp,
    lower_plan,
)
from .plancache import PLAN_CACHE, plan_geometry_key, program_fingerprint
from .program import StencilProgram
from .region import Box

__all__ = [
    "CompiledPlan",
    "PlanBinding",
    "Workspace",
    "compile_plan",
    "compile_program",
]

#: Source-level spellings of the interpreter's ufunc table.  Keeping the
#: exact same callables is what guarantees bit-identical results.
_UNARY_SOURCE = {
    "neg": "np.negative",
    "abs": "np.abs",
    "sqrt": "np.sqrt",
    "pos": "_pos",
    "neg_part": "_neg_part",
}

_BINARY_SOURCE = {
    "add": "np.add",
    "sub": "np.subtract",
    "mul": "np.multiply",
    "div": "np.divide",
    "max": "np.maximum",
    "min": "np.minimum",
}


class Workspace:
    """Buffer provider for generated step functions.

    The generated code asks for three kinds of arrays: per-stage output
    arrays (``out``), numbered float scratch slots (``scratch``) and
    numbered boolean mask slots (``mask``).  One workspace instance per
    call gives the pre-engine behaviour (independent result arrays); a
    workspace kept across calls recycles everything and reports zero
    :attr:`allocations` in steady state.

    ``max_elems`` turns the workspace into a *sized* workspace: every
    request larger than the cap is refused, and an output slot whose
    cached shape differs from the request raises instead of silently
    reallocating.  The tiled executor sizes one workspace per (3+1)D
    block this way, so a block-sized workspace can never end up backed
    by a stale larger buffer (which would be numerically harmless but
    would silently break the cache-residency the blocking exists for).
    """

    __slots__ = (
        "dtype", "_outputs", "_scratch", "_masks",
        "allocations", "reuses", "max_elems", "epoch",
    )

    def __init__(
        self, dtype: "np.dtype" = np.float64, max_elems: Optional[int] = None
    ) -> None:
        self.dtype = np.dtype(dtype)
        self._outputs: Dict[str, np.ndarray] = {}
        self._scratch: Dict[int, np.ndarray] = {}
        self._masks: Dict[int, np.ndarray] = {}
        self.allocations = 0
        self.reuses = 0
        self.max_elems = max_elems
        #: Bumped whenever an output slot changes array (allocation,
        #: :meth:`bind_out`, :meth:`reset`): a plan binding that captured
        #: output arrays is only reused while the epoch it saw holds.
        self.epoch = 0

    def _check_size(self, need: int, kind: str, key: object) -> None:
        if self.max_elems is not None and need > self.max_elems:
            raise ValueError(
                f"workspace {kind} {key!r} needs {need} elements but this "
                f"workspace is sized for {self.max_elems}; it belongs to a "
                "smaller (block) plan"
            )

    def reset(self) -> None:
        """Drop every cached buffer (counters stay cumulative).

        The next call re-allocates from scratch — the cheap way to hand a
        retried island attempt pristine storage without replacing the
        workspace object (and whatever holds a reference to it).
        """
        self._outputs.clear()
        self._scratch.clear()
        self._masks.clear()
        self.epoch += 1

    def capacity_report(self) -> Dict[str, object]:
        """What this workspace currently holds, for sizing diagnostics."""
        outputs = {name: tuple(a.shape) for name, a in self._outputs.items()}
        scratch = {index: a.size for index, a in self._scratch.items()}
        masks = {index: a.size for index, a in self._masks.items()}
        total = (
            sum(a.nbytes for a in self._outputs.values())
            + sum(a.nbytes for a in self._scratch.values())
            + sum(a.nbytes for a in self._masks.values())
        )
        return {
            "outputs": outputs,
            "scratch_elems": scratch,
            "mask_elems": masks,
            "buffers": len(outputs) + len(scratch) + len(masks),
            "total_bytes": total,
            "max_elems": self.max_elems,
        }

    def out(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        """The output array for stage field ``name`` (contents undefined)."""
        cached = self._outputs.get(name)
        if cached is not None and cached.shape == shape:
            self.reuses += 1
            return cached
        need = 1
        for extent in shape:
            need *= extent
        self._check_size(need, "output", name)
        if cached is not None and self.max_elems is not None:
            raise ValueError(
                f"workspace output {name!r} was {cached.shape}, now "
                f"requested as {shape}: a sized workspace is pinned to one "
                "plan's shapes"
            )
        array = np.empty(shape, dtype=self.dtype)
        self._outputs[name] = array
        self.allocations += 1
        self.epoch += 1
        return array

    def bind_out(self, name: str, array: np.ndarray) -> None:
        """Pin stage field ``name``'s output slot to a caller-owned array.

        The generated code then writes that stage directly into ``array``
        (typically a view into a larger persistent buffer) instead of a
        workspace-allocated one.  Bindings do not survive :meth:`reset` —
        rebind after resetting (or after re-enabling persistence on the
        owning plan).
        """
        if array.dtype != self.dtype:
            raise ValueError(
                f"bound output {name!r} has dtype {array.dtype}, workspace "
                f"expects {self.dtype}"
            )
        self._outputs[name] = array
        self.epoch += 1

    def _slot(
        self,
        table: Dict[int, np.ndarray],
        index: int,
        shape: Tuple[int, ...],
        dtype: "np.dtype",
    ) -> np.ndarray:
        need = 1
        for extent in shape:
            need *= extent
        base = table.get(index)
        if base is None or base.size < need:
            self._check_size(need, "slot", index)
            base = np.empty(need, dtype=dtype)
            table[index] = base
            self.allocations += 1
        else:
            self.reuses += 1
        return base[:need].reshape(shape)

    def scratch(self, index: int, shape: Tuple[int, ...]) -> np.ndarray:
        """Float scratch slot ``index``, reshaped to ``shape``."""
        return self._slot(self._scratch, index, shape, self.dtype)

    def mask(self, index: int, shape: Tuple[int, ...]) -> np.ndarray:
        """Boolean mask slot ``index``, reshaped to ``shape``."""
        return self._slot(self._masks, index, shape, np.dtype(bool))


class PlanBinding:
    """One call's validated set-up, reused while its sources stay put.

    Binding a plan to its inputs checks that every input region covers
    the plan's required box and re-anchors a view on it.  The binding
    remembers every object that answer came from — each input
    :class:`ArrayRegion` and its ``data`` and ``box`` — and the next call
    reuses the views while all of them are still the same objects
    (:meth:`holds`); anything else rebuilds with the full checks.  A
    native plan adds its pre-built stage launches (``stages``), which
    are tied to the workspace they were built against in turn.
    """

    __slots__ = ("_sources", "arrays", "stages", "results")

    def __init__(
        self,
        sources: Tuple[Tuple[str, ArrayRegion, np.ndarray, Box], ...],
        arrays: Dict[str, np.ndarray],
    ) -> None:
        self._sources = sources
        self.arrays = arrays
        self.stages: Optional[object] = None
        #: ``(keep_temporaries, results)`` of the last call, returned again
        #: while the produced arrays are the same objects.
        self.results: Optional[Tuple[bool, Dict[str, ArrayRegion]]] = None

    def holds(self, inputs: Mapping[str, ArrayRegion]) -> bool:
        """Whether ``inputs`` are the very objects this binding checked."""
        for name, region, data, box in self._sources:
            current = inputs[name]
            if current is not region or current.data is not data or (
                current.box is not box
            ):
                return False
        return True


@dataclass
class CompiledPlan:
    """A stencil program specialized to one halo plan.

    Call it with the same inputs the interpreter takes; it returns the same
    outputs (``ArrayRegion`` per output field), bit for bit.  With
    :attr:`persistent` set (or ``compile_plan(..., reuse_buffers=True)``)
    all result and scratch arrays are owned by one long-lived
    :class:`Workspace` and are **overwritten by the next call** — callers
    must copy anything they keep.

    Input validation happens once per :class:`PlanBinding`: a call with
    the same input regions as the previous one skips the coverage checks
    and view slicing and goes straight to the kernels.
    """

    program: StencilProgram
    plan: HaloPlan
    source: str
    _function: Callable[..., Dict[str, np.ndarray]]
    _input_anchors: Dict[str, Box]
    dtype: np.dtype
    _workspace_cell: List[Optional[Workspace]] = field(
        default_factory=lambda: [None, None]
    )
    workspace_max_elems: Optional[int] = None
    _stage_names: Tuple[str, ...] = ()
    _stage_seconds: Optional[List[float]] = None
    _binding: Optional[PlanBinding] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def persistent(self) -> bool:
        """Whether calls reuse one long-lived workspace."""
        return self._workspace_cell[0] is not None

    @persistent.setter
    def persistent(self, value: bool) -> None:
        self._workspace_cell[0] = (
            Workspace(self.dtype, self.workspace_max_elems) if value else None
        )

    def use_workspace(self, workspace: Workspace) -> None:
        """Pin ``workspace`` as the persistent workspace for every call.

        The tiled executor uses this to hand each block plan a *sized*
        workspace (``max_elems`` = the block's largest stage box), which
        also becomes the template for the fresh workspace installed when
        :attr:`persistent` is re-set after a failure.
        """
        if workspace.dtype != self.dtype:
            raise ValueError(
                f"workspace dtype {workspace.dtype} does not match plan "
                f"dtype {self.dtype}"
            )
        self.workspace_max_elems = workspace.max_elems
        self._workspace_cell[0] = workspace

    @property
    def timed(self) -> bool:
        """Whether calls record cumulative per-stage wall time."""
        return self._stage_seconds is not None

    @property
    def stage_seconds(self) -> Optional[Dict[str, float]]:
        """Cumulative wall seconds per stage name (``None`` if untimed).

        Grows monotonically across calls — callers attribute one step by
        snapshotting before and after, exactly like the workspace's
        allocation counters.
        """
        if self._stage_seconds is None:
            return None
        totals: Dict[str, float] = {}
        for name, seconds in zip(self._stage_names, self._stage_seconds):
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    @property
    def workspace(self) -> Optional[Workspace]:
        """The persistent workspace, when :attr:`persistent` is set."""
        return self._workspace_cell[0]

    @property
    def last_workspace(self) -> Optional[Workspace]:
        """The workspace the most recent call used (for its counters)."""
        return self._workspace_cell[0] or self._workspace_cell[1]

    def __call__(
        self, inputs: Mapping[str, ArrayRegion], keep_temporaries: bool = False
    ) -> Dict[str, ArrayRegion]:
        binding = self._binding
        if binding is None or not binding.holds(inputs):
            binding = self._binding = self._bind(inputs)
        raw = self._run(binding)
        cached = binding.results
        if cached is not None and cached[0] == keep_temporaries and all(
            region.data is raw[name] for name, region in cached[1].items()
        ):
            return dict(cached[1])

        field_map = self.program.field_map
        results: Dict[str, ArrayRegion] = {}
        for index, stage in enumerate(self.program.stages):
            box = self.plan.stage_boxes[index]
            if box.is_empty():
                continue
            produced = field_map[stage.output]
            if produced.is_output or (keep_temporaries and produced.is_temporary):
                results[stage.output] = ArrayRegion(raw[stage.output], box)
        binding.results = (keep_temporaries, results)
        return dict(results)

    def _bind(self, inputs: Mapping[str, ArrayRegion]) -> PlanBinding:
        """Check input coverage and re-anchor the input views."""
        sources = []
        arrays = {}
        for name, required_box in self._input_anchors.items():
            region = inputs[name]
            if not region.box.contains(required_box):
                raise ValueError(
                    f"input {name!r} covers {region.box} but "
                    f"{required_box} is required"
                )
            # Re-anchor so the generated constant slices line up.
            arrays[name] = region.view(required_box)
            sources.append((name, region, region.data, region.box))
        return PlanBinding(tuple(sources), arrays)

    def _run(self, binding: PlanBinding) -> Dict[str, np.ndarray]:
        """Execute the step over a binding's input views."""
        return self._function(**binding.arrays)


def _slice_source(read_box: Box, anchor: Box) -> str:
    parts = []
    for axis in range(3):
        start = read_box.lo[axis] - anchor.lo[axis]
        stop = read_box.hi[axis] - anchor.lo[axis]
        parts.append(f"{start}:{stop}")
    return "[" + ", ".join(parts) + "]"


def _op_statements(op: KernelOp) -> List[str]:
    """The NumPy statement(s) realizing one kernel-IR op."""
    if isinstance(op, UnaryOp):
        return [f"{_UNARY_SOURCE[op.op]}({op.operand.text}, out={op.dest.text})"]
    if isinstance(op, BinaryOp):
        return [
            f"{_BINARY_SOURCE[op.op]}({op.left.text}, {op.right.text}, "
            f"out={op.dest.text})"
        ]
    if isinstance(op, SelectOp):
        # np.where has no out=; comparison + two masked copies selects the
        # identical value per element (see Where._eval_into).
        return [
            f"np.greater({op.condition.text}, 0.0, out={op.mask.text})",
            f"np.copyto({op.dest.text}, {op.if_false.text})",
            f"np.copyto({op.dest.text}, {op.if_true.text}, where={op.mask.text})",
        ]
    if isinstance(op, CopyOp):
        # Leaf root (pure copy stage): materialize into the output.
        return [f"np.copyto({op.dest.text}, {op.source.text})"]
    raise TypeError(f"cannot emit kernel op {type(op).__name__}")


def _emit_numpy_source(ir: KernelIR, timed: bool) -> Tuple[str, Tuple[str, ...]]:
    """Render a kernel IR to the straight-line NumPy step function.

    Returns ``(source, timed_stage_names)``.  The emission is a pure walk
    over the IR — every lowering decision (slot numbering, statement
    order, view naming) was already made by :func:`lower_plan`.
    """
    lines: List[str] = []
    signature = ", ".join(sorted(ir.input_anchors))
    lines.append(f"def _step({signature}):")
    lines.append("    _w = _ws()")
    if timed:
        lines.append("    _t = _clock()")
    if not ir.stages:
        lines.append("    return {}")
    produced: List[str] = []
    timed_names: List[str] = []
    for sched in ir.stages:
        lines.append(f"    # stage {sched.index + 1}: {sched.name} -> {sched.output}")
        for view in sched.views:
            lines.append(
                f"    {view.symbol} = {view.field}"
                f"{_slice_source(view.read_box, ir.anchors[view.field])}"
            )
        shape = sched.shape
        lines.append(f"    {sched.output} = _w.out({sched.output!r}, {shape})")
        for slot in sched.float_slots:
            lines.append(f"    _s{slot} = _w.scratch({slot}, {shape})")
        for slot in sched.mask_slots:
            lines.append(f"    _m{slot} = _w.mask({slot}, {shape})")
        for op in sched.ops:
            for statement in _op_statements(op):
                lines.append(f"    {statement}")
        if timed:
            lines.append(f"    _t = _rec({len(timed_names)}, _t)")
            timed_names.append(sched.name)
        produced.append(sched.output)
    items = ", ".join(f"{name!r}: {name}" for name in produced)
    lines.append(f"    return {{{items}}}")
    return "\n".join(lines), tuple(timed_names)


def compile_plan(
    program: StencilProgram,
    plan: HaloPlan,
    dtype: np.dtype = np.float64,
    reuse_buffers: bool = False,
    timed: bool = False,
    workspace_max_elems: Optional[int] = None,
) -> CompiledPlan:
    """Generate and compile straight-line NumPy code for one halo plan.

    Every stage becomes a block of view bindings, workspace bindings and
    three-address ufunc statements with explicit ``out=`` destinations;
    intermediate arrays are plain locals.  The function returns a dict of
    every produced stage array (the wrapper re-attaches boxes and filters
    outputs).  With ``reuse_buffers`` the plan starts with a persistent
    :class:`Workspace`, making repeat calls allocation-free.

    ``timed`` interleaves ``perf_counter`` marks between stage blocks so
    :attr:`CompiledPlan.stage_seconds` accumulates per-stage wall time
    (one extra clock read per stage per call).  ``workspace_max_elems``
    sizes every workspace the plan creates — see :class:`Workspace`.

    Source and code object are served from the process-wide plan cache
    when an identical (program, plan, dtype, timed) combination was
    compiled before; each call still gets its own function object and
    workspace cell, so cached plans never share buffers.
    """
    cache_key = (
        "numpy",
        program_fingerprint(program),
        plan_geometry_key(plan),
        np.dtype(dtype).str,
        bool(timed),
    )

    def _build() -> Tuple[str, Tuple[str, ...], Dict[str, Box], "object"]:
        ir = lower_plan(program, plan)
        source, timed_names = _emit_numpy_source(ir, timed)
        code = compile(source, f"<stencil:{program.name}>", "exec")
        return source, timed_names, dict(ir.input_anchors), code

    (source, timed_names, input_anchors, code), _ = PLAN_CACHE.get_or_build(
        cache_key, _build
    )
    input_anchors = dict(input_anchors)

    workspace_cell: List[Optional[Workspace]] = [
        Workspace(dtype, workspace_max_elems) if reuse_buffers else None,
        None,  # last ephemeral workspace, kept so callers can read stats
    ]

    def _ws() -> Workspace:
        cached = workspace_cell[0]
        if cached is not None:
            return cached
        workspace_cell[1] = Workspace(dtype, workspace_max_elems)
        return workspace_cell[1]

    namespace = {
        "np": np,
        "_pos": lambda a, out: np.maximum(a, 0.0, out=out),
        "_neg_part": lambda a, out: np.minimum(a, 0.0, out=out),
        "_ws": _ws,
    }
    stage_seconds: Optional[List[float]] = None
    if timed:
        import time

        clock = time.perf_counter
        stage_seconds = [0.0] * len(timed_names)
        seconds = stage_seconds  # bind for the closure

        def _rec(position: int, mark: float) -> float:
            now = clock()
            seconds[position] += now - mark
            return now

        namespace["_clock"] = clock
        namespace["_rec"] = _rec
    exec(code, namespace)
    return CompiledPlan(
        program=program,
        plan=plan,
        source=source,
        _function=namespace["_step"],
        _input_anchors=input_anchors,
        dtype=dtype,
        _workspace_cell=workspace_cell,
        workspace_max_elems=workspace_max_elems,
        _stage_names=tuple(timed_names),
        _stage_seconds=stage_seconds,
    )


def compile_program(
    program: StencilProgram,
    target: Box,
    domain: Box = None,
    dtype: np.dtype = np.float64,
    reuse_buffers: bool = False,
) -> CompiledPlan:
    """Convenience wrapper: derive the halo plan, then compile it."""
    plan = required_regions(program, target, domain=domain)
    return compile_plan(program, plan, dtype=dtype, reuse_buffers=reuse_buffers)
