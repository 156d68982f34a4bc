"""Compiled stencil plans: the workspace, the input binding, the plan.

The interpreter (:mod:`repro.stencil.interpreter`) walks the expression tree
for every stage of every step.  For a *fixed* halo plan all region geometry
is known ahead of time, so a program can instead be compiled once: lowering
to three-address form lives in :mod:`repro.stencil.lowering`, and the one
emitter over that kernel IR, :mod:`repro.stencil.native`, turns the plan
into one C entry point that pipelines every stage's fused loop nest over
the i-planes (:func:`~repro.stencil.native.compile_plan_native`).  This
module holds what a compiled plan is made of on the Python side:

* :class:`Workspace` — the buffer provider: the ring arena the folded
  temporaries live in plus one array per program output, kept across
  calls;
* :class:`PlanBinding` — one call's validated inputs, reused while the
  same input regions come back;
* :class:`CompiledPlan` — the callable plan itself, with the same inputs
  and outputs as the interpreter, bit for bit.

Every plan owns one workspace: its buffers live across calls, so a
steady-state call performs **zero** array allocations, and each call
overwrites the arrays the last one returned.  The generated C source is
kept on the plan for inspection:

>>> from repro.mpdata import mpdata_program
>>> from repro.stencil import full_box, required_regions, compile_plan_native
>>> program = mpdata_program()
>>> plan = required_regions(program, full_box((16, 16, 8)))
>>> step = compile_plan_native(program, plan)   # doctest: +SKIP
>>> print(step.source)                          # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from .halo import HaloPlan
from .interpreter import ArrayRegion
from .program import StencilProgram
from .region import Box

__all__ = [
    "CompiledPlan",
    "PlanBinding",
    "Workspace",
]


class Workspace:
    """Buffer provider for compiled plans.

    A fused stage kernel keeps its intermediates in registers and the
    plane pipeline folds every temporary into a ring of planes, so a plan
    asks for one ring arena plus one array per program output (``out``).
    Kept across calls, the workspace recycles them and reports zero
    :attr:`allocations` in steady state.
    """

    __slots__ = ("dtype", "_outputs", "allocations", "reuses")

    def __init__(self, dtype: "np.dtype" = np.float64) -> None:
        self.dtype = np.dtype(dtype)
        self._outputs: Dict[str, np.ndarray] = {}
        self.allocations = 0
        self.reuses = 0

    def reset(self) -> None:
        """Drop every cached buffer (counters stay cumulative).

        The next call re-allocates from scratch — the cheap way to hand a
        retried island attempt pristine storage without replacing the
        workspace object (and whatever holds a reference to it).
        """
        self._outputs.clear()

    @property
    def buffers(self) -> Dict[str, np.ndarray]:
        """Every array the workspace holds, by slot name."""
        return dict(self._outputs)

    def holds(self, name: str, array: np.ndarray) -> bool:
        """Whether slot ``name`` is still ``array`` (a plan launch that
        captured the array is only reused while this holds)."""
        return self._outputs.get(name) is array

    def out(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        """The array for slot ``name`` (contents undefined)."""
        cached = self._outputs.get(name)
        if cached is not None and cached.shape == shape:
            self.reuses += 1
            return cached
        array = np.empty(shape, dtype=self.dtype)
        self._outputs[name] = array
        self.allocations += 1
        return array

    def bind_out(self, name: str, array: np.ndarray) -> None:
        """Pin output field ``name``'s slot to a caller-owned array.

        The plan then writes directly into ``array``
        (typically a view into a larger persistent buffer) instead of a
        workspace-allocated one.  Bindings do not survive :meth:`reset` —
        rebind after resetting.  Rebinding the array a launch was built
        against makes that launch valid again, so a caller alternating
        between two output arrays keeps one launch per array.
        """
        if array.dtype != self.dtype:
            raise ValueError(
                f"bound output {name!r} has dtype {array.dtype}, workspace "
                f"expects {self.dtype}"
            )
        self._outputs[name] = array


class PlanBinding:
    """One call's validated set-up, reused while its sources stay put.

    Binding a plan to its inputs checks that every input region covers
    the plan's required box and re-anchors a view on it — or, for a
    gathered plan, builds each input's boundary map over the whole
    region.  The binding remembers every object that answer came from —
    each input :class:`ArrayRegion` and its ``data`` and ``box`` — and a
    later call reuses the views while all of them are still the same
    objects (:meth:`holds`); anything else rebuilds with the full checks.
    The plan adds its pre-built launch (``stages``), which is tied to the
    workspace it was built against in turn.
    """

    __slots__ = ("_sources", "arrays", "maps", "stages", "results")

    def __init__(
        self,
        sources: Tuple[Tuple[str, ArrayRegion, np.ndarray, Box], ...],
        arrays: Dict[str, np.ndarray],
        maps: Dict[str, np.ndarray],
    ) -> None:
        self._sources = sources
        self.arrays = arrays
        #: Gathered plans only: each input's boundary map.
        self.maps = maps
        self.stages: Optional[object] = None
        #: The results of the last call, returned again while the
        #: produced arrays are the same objects.
        self.results: Optional[Dict[str, ArrayRegion]] = None

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
    """A stencil program specialized to one halo plan, as one C entry point.

    Built by :func:`~repro.stencil.native.compile_plan_native`.  Call it
    with the same inputs the interpreter takes; it returns the same
    outputs (``ArrayRegion`` per output field), bit for bit.  ``source``
    holds the generated C translation unit.  All result arrays are owned
    by the plan's one long-lived :class:`Workspace` and are
    **overwritten by the next call** — callers must copy anything they
    keep.  A *gathered* plan (compiled with a ``boundary``) also accepts
    inputs without ghost layers, such as bare domain arrays: it applies
    the boundary as it reads them.

    Input validation happens once per :class:`PlanBinding`, and the plan
    keeps the bindings of its last two distinct input sets, so a caller
    alternating between two (a double-buffered field) skips the coverage
    checks, view slicing and boundary maps after both were seen.  The
    launch (the entry point's pointer and stride arguments) is bound once
    per binding too, so a steady-state call is the one C call alone
    (which reads the per-stage clock when timed).
    """

    program: StencilProgram
    plan: HaloPlan
    source: str
    dtype: np.dtype
    _input_anchors: Dict[str, Box]
    #: ``(input arrays, boundary maps, workspace) -> launch`` and ``launch
    #: -> produced arrays``, built by the native compiler over its loaded
    #: module.
    _bind_stages: Callable[
        [Dict[str, np.ndarray], Dict[str, np.ndarray], Workspace], Any
    ] = field(repr=False, compare=False)
    _launch: Callable[[Any], Dict[str, np.ndarray]] = field(
        repr=False, compare=False
    )
    #: The buffers every call writes.
    workspace: Workspace = field(repr=False, compare=False)
    _stage_names: Tuple[str, ...] = ()
    #: Per-stage seconds the entry point adds to (timed plans only).
    _stage_seconds: Optional[np.ndarray] = None
    #: Gathered plans only: ``(input name, region) -> boundary map``.
    _gather_map: Optional[Callable[[str, ArrayRegion], np.ndarray]] = field(
        default=None, repr=False, compare=False
    )
    #: The binding of the latest call and the one before it.
    _binding: Optional[PlanBinding] = field(
        default=None, init=False, repr=False, compare=False
    )
    _previous: Optional[PlanBinding] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def gathered(self) -> bool:
        """Whether the plan applies the boundary as it reads its inputs."""
        return self._gather_map is not None

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
        seconds_per_stage = self._stage_seconds.tolist()
        for name, seconds in zip(self._stage_names, seconds_per_stage):
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def __call__(
        self, inputs: Mapping[str, ArrayRegion]
    ) -> Dict[str, ArrayRegion]:
        binding = self._binding
        if binding is None or not binding.holds(inputs):
            previous = self._previous
            if previous is not None and previous.holds(inputs):
                self._binding, self._previous = previous, binding
                binding = previous
            else:
                self._previous = binding
                binding = self._binding = self._bind(inputs)
        raw = self._run(binding)
        cached = binding.results
        if cached is not None and all(
            region.data is raw[name] for name, region in cached.items()
        ):
            return dict(cached)
        boxes = self.plan.stage_boxes
        results = {
            name: ArrayRegion(array, boxes[self.program.producer_of(name)])
            for name, array in raw.items()
        }
        binding.results = results
        return dict(results)

    def _bind(self, inputs: Mapping[str, ArrayRegion]) -> PlanBinding:
        """Check input coverage and re-anchor the input views (or, for a
        gathered plan, build the boundary maps)."""
        sources = []
        arrays = {}
        maps = {}
        for name, required_box in self._input_anchors.items():
            region = inputs[name]
            # The entry point reads raw pointers: another dtype's bytes
            # would be reinterpreted, not converted.
            if region.data.dtype != self.dtype:
                raise ValueError(
                    f"input {name!r} has dtype {region.data.dtype}, the "
                    f"plan was compiled for {self.dtype}"
                )
            if self._gather_map is not None:
                maps[name] = self._gather_map(name, region)
                arrays[name] = region.data
            elif not region.box.contains(required_box):
                raise ValueError(
                    f"input {name!r} covers {region.box} but "
                    f"{required_box} is required"
                )
            else:
                # Re-anchor so the kernels' constant offsets line up.
                arrays[name] = region.view(required_box)
            sources.append((name, region, region.data, region.box))
        return PlanBinding(tuple(sources), arrays, maps)

    def _run(self, binding: PlanBinding) -> Dict[str, np.ndarray]:
        """Run the entry point over a binding's inputs."""
        launch = binding.stages
        if launch is None or not launch.holds():
            launch = binding.stages = self._bind_stages(
                binding.arrays, binding.maps, self.workspace
            )
        else:
            # The slots a rebuilt launch would fetch again, counted the
            # same way so workspace reuse counters keep their meaning.
            self.workspace.reuses += launch.slots
        return self._launch(launch)
