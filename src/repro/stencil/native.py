"""Fused native-C kernels for stencil stages (cffi + system ``cc``).

The interpreter executes a stage as a *chain* of whole-array ufunc
sweeps: an op chain of depth N reads and writes stage-sized arrays N
times, so every stage is bandwidth-bound no matter how arithmetic-heavy
its expression is.  This module is the one emitter over the kernel IR
(:mod:`repro.stencil.lowering`): it emits **one fused C loop nest per
stage**, so the whole op chain runs per grid point in scalar registers
and each point costs one read per input view and one write to the
output — the transform that moves heterogeneous stages from the
``stream`` regime toward the ``cached``/``team`` regimes of the cost
model (Malas & Hager, arXiv:1510.04995).

Bit-identity with the interpreter is preserved by construction:

* add/sub/mul/div/sqrt are IEEE-754 correctly rounded in both NumPy and
  C (compiled with ``-O2 -ffp-contract=off``; no fast-math, no FMA
  contraction), so per-point scalar evaluation in the same op order
  yields the same bits as NumPy's array sweeps;
* ``maximum``/``minimum`` use NumPy's exact selection rule
  ``(a > b || isnan(a)) ? a : b`` (ties — including signed zeros —
  return the *second* operand, NaNs propagate);
* selection (``Where``) compiles to ``cond > 0 ? t : f`` per point,
  elementwise identical to the interpreter's compare + masked copies.

A property test pins 50-step trajectories against the interpreter bit for
bit.

Compiled shared objects are cached on disk keyed by a content hash of the
generated C source (``REPRO_NATIVE_CACHE`` overrides the location), so
re-runs — and worker processes of the procs pool rebuilding their inner
backend after fork/spawn — reload the ``.so`` instead of invoking the
compiler.  :func:`compile_plan_native` returns a
:class:`~repro.stencil.codegen.CompiledPlan` whose stage launches call
the loaded kernels; cffi releases the GIL for each call, so threads
sweeping different islands or blocks run their kernels in parallel.
"""

from __future__ import annotations

import functools
import getpass
import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import sysconfig
import tempfile
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .codegen import CompiledPlan, Workspace
from .halo import HaloPlan
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
    "compile_plan_native",
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

typedef {ctype} real;

/* NumPy's maximum/minimum selection rule: NaNs propagate, ties (incl.
   signed zeros) return the SECOND operand — required for bit-identity
   with the interpreter's ufunc loops. */
static inline real _np_fmax(real a, real b) {{
    return (a > b || isnan(a)) ? a : b;
}}
static inline real _np_fmin(real a, real b) {{
    return (a < b || isnan(a)) ? a : b;
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
    if op.op == "pos":
        return f"_np_fmax({a}, (real)0.0)"
    if op.op == "neg_part":
        return f"_np_fmin({a}, (real)0.0)"
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


def _stage_fields(schedule: StageSchedule) -> Tuple[str, ...]:
    """Fields a stage kernel takes as arguments, in sorted order."""
    return tuple(sorted({view.field for view in schedule.views}))


def _emit_stage(
    schedule: StageSchedule, anchors: Dict[str, Box], fabs: str, sqrt: str
) -> Tuple[str, str]:
    """Emit one fused loop nest; returns ``(definition, cdef)``."""
    fields = _stage_fields(schedule)
    params = ["real* restrict _out", "long _out_s0", "long _out_s1"]
    for name in fields:
        params += [
            f"const real* restrict {name}",
            f"long {name}_s0",
            f"long {name}_s1",
        ]
    symbol = _stage_symbol(schedule)
    ni, nj, nk = schedule.shape
    lines: List[str] = []
    lines.append(f"/* stage {schedule.index + 1}: "
                 f"{schedule.name} -> {schedule.output} */")
    lines.append(f"void {symbol}({', '.join(params)})")
    lines.append("{")
    lines.append(f"    for (long _i = 0; _i < {ni}; ++_i)")
    lines.append(f"    for (long _j = 0; _j < {nj}; ++_j)")
    lines.append(f"    for (long _k = 0; _k < {nk}; ++_k) {{")
    for view in schedule.views:
        anchor = anchors[view.field]
        oi, oj, ok = (
            view.read_box.lo[axis] - anchor.lo[axis] for axis in range(3)
        )
        index = (
            f"(_i + {oi}) * {view.field}_s0 + "
            f"(_j + {oj}) * {view.field}_s1 + (_k + {ok})"
        )
        lines.append(f"        const real {view.symbol} = {view.field}[{index}];")
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
    lines.append("        _out[_i * _out_s0 + _j * _out_s1 + _k] = _acc;")
    lines.append("    }")
    lines.append("}")
    cdef = f"void {symbol}({', '.join(p.replace(' restrict', '') for p in params)});"
    return "\n".join(lines), cdef


def emit_c_source(ir: KernelIR, dtype: np.dtype = np.float64) -> Tuple[str, str]:
    """Render a kernel IR to a C translation unit.

    Returns ``(csource, cdef)``: the compilable source (one fused loop
    nest per non-empty stage) and the matching cffi declaration block.
    """
    key = np.dtype(dtype).str
    if key not in _C_TYPES:
        raise NativeBuildError(
            f"native kernels support float64/float32, not dtype {dtype}"
        )
    ctype, fabs, sqrt = _C_TYPES[key]
    chunks = [_PREAMBLE.format(ctype=ctype)]
    cdefs: List[str] = [f"typedef {ctype} real;"]
    for schedule in ir.stages:
        definition, cdef = _emit_stage(schedule, ir.anchors, fabs, sqrt)
        chunks.append(definition)
        cdefs.append(cdef)
    return "\n\n".join(chunks) + "\n", "\n".join(cdefs)


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
        spec = importlib.util.spec_from_file_location(modname, sopath)
        if spec is None or spec.loader is None:
            raise NativeBuildError(f"cannot load native module at {sopath}")
        module = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(module)
        except ImportError as error:
            # A stale or truncated cache entry: rebuild once.
            _build_shared_object(modname, csource, cdef, sopath)
            module = importlib.util.module_from_spec(spec)
            try:
                spec.loader.exec_module(module)
            except ImportError:
                raise NativeBuildError(
                    f"cannot import rebuilt native module {modname}: {error}"
                ) from error
        _LOADED[modname] = module
        return module


# ----------------------------------------------------------------------
# Plan compilation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _StageCall:
    """Everything the Python driver needs to invoke one stage kernel."""

    symbol: str
    name: str
    output: str
    shape: Tuple[int, int, int]
    fields: Tuple[str, ...]


@dataclass(frozen=True)
class _StageLaunches:
    """Every stage kernel's argument tuple, built against one workspace.

    Building them is the per-call set-up of a native step: fetch each
    stage's output slot, check unit innermost strides, cast pointers.
    The tuples stay valid while the workspace is the same object at the
    same :attr:`Workspace.epoch` (no output slot changed array since) and
    the owning :class:`~repro.stencil.codegen.PlanBinding` holds its
    inputs; ``produced`` keeps every array a pointer refers to alive.
    """

    workspace: Workspace
    epoch: int
    args: Tuple[tuple, ...]
    produced: Dict[str, np.ndarray]

    def holds(self, workspace: Workspace) -> bool:
        return workspace is self.workspace and workspace.epoch == self.epoch


def _strides_in_elements(array: np.ndarray, label: str) -> Tuple[int, int]:
    itemsize = array.itemsize
    s0, s1, s2 = array.strides
    if s2 != itemsize or s0 % itemsize or s1 % itemsize:
        raise ValueError(
            f"native kernel argument {label!r} must have a unit innermost "
            f"stride (strides {array.strides}, itemsize {itemsize})"
        )
    return s0 // itemsize, s1 // itemsize


def compile_plan_native(
    program: StencilProgram,
    plan: HaloPlan,
    dtype: np.dtype = np.float64,
    reuse_buffers: bool = False,
    timed: bool = False,
    workspace_max_elems: Optional[int] = None,
) -> CompiledPlan:
    """Compile one halo plan to fused native-C stage kernels.

    Each stage executes as a single compiled loop nest, bit-identical to
    the interpreter.  With ``reuse_buffers`` the plan starts with a
    persistent :class:`~repro.stencil.codegen.Workspace`, making repeat
    calls allocation-free.  ``timed`` reads the clock between stage
    kernels so :attr:`CompiledPlan.stage_seconds` accumulates per-stage
    wall time; ``workspace_max_elems`` sizes every workspace the plan
    creates.  Raises :class:`NativeBuildError` when cffi or a C compiler
    is missing (the runtime's backends check this once, at construction,
    and report it as a configuration error rather than degrading).

    Generated C and the stage call table are served from the process-wide
    plan cache; compiled shared objects are additionally cached on disk,
    so forked/spawned procs workers reload instead of recompiling.  Each
    call still returns its own plan object, so cached plans never share
    buffers.
    """
    dtype = np.dtype(dtype)
    cache_key = (
        program_fingerprint(program),
        plan_geometry_key(plan),
        dtype.str,
    )

    def _build():
        ir = lower_plan(program, plan)
        csource, cdef = emit_c_source(ir, dtype)
        calls = tuple(
            _StageCall(
                symbol=_stage_symbol(schedule),
                name=schedule.name,
                output=schedule.output,
                shape=schedule.shape,
                fields=_stage_fields(schedule),
            )
            for schedule in ir.stages
        )
        return csource, cdef, calls, dict(ir.input_anchors)

    (csource, cdef, calls, input_anchors), _ = PLAN_CACHE.get_or_build(
        cache_key, _build
    )
    input_anchors = dict(input_anchors)
    module = _load_native_module(csource, cdef)
    ffi = module.ffi  # type: ignore[attr-defined]
    lib = module.lib  # type: ignore[attr-defined]
    ctype, _, _ = _C_TYPES[dtype.str]
    ptr_type = f"{ctype} *"
    stage_functions: Tuple[Callable, ...] = tuple(
        getattr(lib, call.symbol) for call in calls
    )

    stage_seconds: Optional[List[float]] = None
    clock = None
    if timed:
        import time

        clock = time.perf_counter
        stage_seconds = [0.0] * len(calls)

    cast = ffi.cast

    def _bind_stages(
        arrays: Dict[str, np.ndarray], workspace: Workspace
    ) -> _StageLaunches:
        produced: Dict[str, np.ndarray] = {}
        launches: List[tuple] = []
        for call in calls:
            out = workspace.out(call.output, call.shape)
            s0, s1 = _strides_in_elements(out, call.output)
            args: List[object] = [cast(ptr_type, out.ctypes.data), s0, s1]
            for field_name in call.fields:
                source = (
                    produced[field_name]
                    if field_name in produced
                    else arrays[field_name]
                )
                f0, f1 = _strides_in_elements(source, field_name)
                args += [cast(ptr_type, source.ctypes.data), f0, f1]
            launches.append(tuple(args))
            produced[call.output] = out
        return _StageLaunches(workspace, workspace.epoch, tuple(launches), produced)

    def _launch(stages: _StageLaunches) -> Dict[str, np.ndarray]:
        if stage_seconds is None:
            for function, args in zip(stage_functions, stages.args):
                function(*args)
        else:
            mark = clock()
            for position, args in enumerate(stages.args):
                stage_functions[position](*args)
                now = clock()
                stage_seconds[position] += now - mark
                mark = now
        return stages.produced

    return CompiledPlan(
        program=program,
        plan=plan,
        source=csource,
        dtype=dtype,
        _input_anchors=input_anchors,
        _bind_stages=_bind_stages,
        _launch=_launch,
        _workspace=(
            Workspace(dtype, workspace_max_elems) if reuse_buffers else None
        ),
        workspace_max_elems=workspace_max_elems,
        _stage_names=tuple(call.name for call in calls),
        _stage_seconds=stage_seconds,
    )
