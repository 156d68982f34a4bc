"""Stencil programs: an ordered sequence of dependent stages.

A :class:`StencilProgram` is the IR form of a "heterogeneous stencil
computation" in the paper's sense — a set of stages with *different*
patterns, executed in order within every time step, each reading program
inputs and the outputs of earlier stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import List, Mapping, Optional, Sequence, Set, Tuple

from .field import Field, FieldRole
from .stage import Stage

__all__ = ["StencilProgram", "ProgramError"]


class ProgramError(ValueError):
    """Raised when a stencil program is structurally invalid."""


@dataclass(frozen=True)
class StencilProgram:
    """An ordered, single-assignment sequence of stencil stages.

    Invariants (enforced at construction):

    * every field read by a stage is either a program input or the output of
      a strictly earlier stage;
    * each field is written by at most one stage ("single assignment within
      a time step", which is what makes the backward halo analysis exact);
    * declared outputs are actually produced;
    * field names are unique.
    """

    name: str
    fields: Tuple[Field, ...]
    stages: Tuple[Stage, ...]

    def __post_init__(self) -> None:
        self._validate()
        # Derived lookups, built once; kept outside the dataclass fields
        # so equality and hashing ignore them.
        object.__setattr__(
            self, "_field_map", {f.name: f for f in self.fields}
        )
        object.__setattr__(
            self,
            "_producers",
            {stage.output: index for index, stage in enumerate(self.stages)},
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def build(
        name: str,
        inputs: Sequence[Field],
        stages: Sequence[Stage],
        outputs: Sequence[str],
    ) -> "StencilProgram":
        """Build a program, synthesizing temporary-field declarations.

        Every stage output not listed in ``outputs`` becomes a TEMPORARY
        field; listed ones become OUTPUT fields.
        """
        declared = list(inputs)
        seen = {f.name for f in declared}
        output_names = set(outputs)
        for stage in stages:
            if stage.output in seen:
                continue
            role = (
                FieldRole.OUTPUT
                if stage.output in output_names
                else FieldRole.TEMPORARY
            )
            declared.append(Field(stage.output, role))
            seen.add(stage.output)
        missing = output_names - {s.output for s in stages}
        if missing:
            raise ProgramError(f"declared outputs never produced: {sorted(missing)}")
        return StencilProgram(name, tuple(declared), tuple(stages))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ProgramError(f"duplicate field declarations: {dupes}")

        by_name = {f.name: f for f in self.fields}
        produced: Set[str] = set()
        for index, stage in enumerate(self.stages):
            if stage.output not in by_name:
                raise ProgramError(
                    f"stage {stage.name!r} writes undeclared field {stage.output!r}"
                )
            if by_name[stage.output].is_input:
                raise ProgramError(
                    f"stage {stage.name!r} writes program input {stage.output!r}"
                )
            if stage.output in produced:
                raise ProgramError(
                    f"field {stage.output!r} written more than once "
                    f"(by stage {stage.name!r})"
                )
            for read in stage.reads:
                if read not in by_name:
                    raise ProgramError(
                        f"stage {stage.name!r} reads undeclared field {read!r}"
                    )
                if not by_name[read].is_input and read not in produced:
                    raise ProgramError(
                        f"stage {stage.name!r} (#{index}) reads {read!r} "
                        "before it is produced"
                    )
            produced.add(stage.output)

        for field in self.fields:
            if field.is_output and field.name not in produced:
                raise ProgramError(f"output field {field.name!r} never produced")
            if field.is_temporary and field.name not in produced:
                raise ProgramError(f"temporary field {field.name!r} never produced")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def field_map(self) -> Mapping[str, Field]:
        """Field declarations by name (a read-only view)."""
        return MappingProxyType(self._field_map)

    @property
    def input_fields(self) -> Tuple[Field, ...]:
        return tuple(f for f in self.fields if f.is_input)

    @property
    def output_fields(self) -> Tuple[Field, ...]:
        return tuple(f for f in self.fields if f.is_output)

    @property
    def temporary_fields(self) -> Tuple[Field, ...]:
        return tuple(f for f in self.fields if f.is_temporary)

    def stage_index(self, name: str) -> int:
        """Position of the stage with the given name."""
        for index, stage in enumerate(self.stages):
            if stage.name == name:
                return index
        raise KeyError(f"no stage named {name!r}")

    def producer_of(self, field_name: str) -> Optional[int]:
        """Index of the stage producing ``field_name``, or None for inputs."""
        return self._producers.get(field_name)

    def dependency_edges(self) -> List[Tuple[int, int]]:
        """Stage-level dataflow edges ``(producer_index, consumer_index)``."""
        edges: List[Tuple[int, int]] = []
        for consumer_index, stage in enumerate(self.stages):
            for read in stage.reads:
                producer_index = self._producers.get(read)
                if producer_index is not None:
                    edges.append((producer_index, consumer_index))
        return edges

    def consumers_of(self, stage_index: int) -> List[int]:
        """Indices of stages reading the output of ``stage_index``."""
        output = self.stages[stage_index].output
        return [
            i
            for i, stage in enumerate(self.stages)
            if output in stage.reads and i > stage_index
        ]

    # ------------------------------------------------------------------
    # Aggregate metrics
    # ------------------------------------------------------------------
    @property
    def flops_per_point(self) -> int:
        """Total flops per grid point per time step (all stages)."""
        return sum(stage.flops_per_point for stage in self.stages)

    def bytes_per_point_io(self) -> int:
        """Bytes of compulsory input + output traffic per grid point.

        Counts each program input once (read) and each output once
        (written), which is the best-case traffic of a perfectly fused time
        step — the goal of the (3+1)D decomposition.
        """
        total = 0
        for field in self.fields:
            if field.is_input or field.is_output:
                total += field.itemsize
        return total

    def __repr__(self) -> str:
        return (
            f"StencilProgram({self.name!r}, {len(self.stages)} stages, "
            f"{len(self.fields)} fields)"
        )
