"""Unit tests for program structure and validation."""

import pytest

from repro.stencil import (
    Access,
    Field,
    FieldRole,
    ProgramError,
    Stage,
    StencilProgram,
)


def _field(name, role=FieldRole.INPUT):
    return Field(name, role)


class TestFieldDeclarations:
    def test_roles(self):
        assert _field("x").is_input
        assert Field("y", FieldRole.OUTPUT).is_output
        assert Field("t", FieldRole.TEMPORARY).is_temporary

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Field("", FieldRole.INPUT)

    def test_rejects_nonpositive_itemsize(self):
        with pytest.raises(ValueError):
            Field("x", FieldRole.INPUT, itemsize=0)


class TestBuild:
    def test_build_synthesizes_temporaries(self):
        program = StencilProgram.build(
            "p",
            inputs=(_field("x"),),
            stages=(
                Stage("s1", "t", Access("x") + 1.0),
                Stage("s2", "y", Access("t") * 2.0),
            ),
            outputs=("y",),
        )
        roles = {f.name: f.role for f in program.fields}
        assert roles["t"] is FieldRole.TEMPORARY
        assert roles["y"] is FieldRole.OUTPUT

    def test_build_rejects_unproduced_output(self):
        with pytest.raises(ProgramError, match="never produced"):
            StencilProgram.build(
                "p",
                inputs=(_field("x"),),
                stages=(Stage("s1", "t", Access("x")),),
                outputs=("y",),
            )


class TestValidation:
    def test_read_before_write_rejected(self):
        with pytest.raises(ProgramError, match="before it is produced"):
            StencilProgram.build(
                "p",
                inputs=(_field("x"),),
                stages=(
                    Stage("s1", "y", Access("t")),
                    Stage("s2", "t", Access("x")),
                ),
                outputs=("y",),
            )

    def test_double_write_rejected(self):
        with pytest.raises(ProgramError, match="more than once"):
            StencilProgram.build(
                "p",
                inputs=(_field("x"),),
                stages=(
                    Stage("s1", "y", Access("x")),
                    Stage("s2", "y", Access("x") + 1.0),
                ),
                outputs=("y",),
            )

    def test_writing_an_input_rejected(self):
        with pytest.raises(ProgramError, match="writes program input"):
            StencilProgram(
                "p",
                (_field("x"),),
                (Stage("s1", "x", Access("x")),),
            )

    def test_undeclared_read_rejected(self):
        with pytest.raises(ProgramError, match="reads undeclared"):
            StencilProgram(
                "p",
                (_field("x"), Field("y", FieldRole.OUTPUT)),
                (Stage("s1", "y", Access("z")),),
            )

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(ProgramError, match="duplicate"):
            StencilProgram("p", (_field("x"), _field("x")), ())


class TestQueries:
    def test_dependency_edges(self, chain_program):
        assert chain_program.dependency_edges() == [(0, 1), (1, 2)]

    def test_consumers(self, chain_program):
        assert chain_program.consumers_of(0) == [1]
        assert chain_program.consumers_of(2) == []

    def test_producer_of(self, chain_program):
        assert chain_program.producer_of("a") == 0
        assert chain_program.producer_of("x") is None

    def test_field_map_is_one_read_only_mapping(self, chain_program):
        field_map = chain_program.field_map
        assert [name for name in field_map] == ["x", "a", "b", "y"]
        assert field_map["a"].is_temporary
        with pytest.raises(TypeError):
            field_map["z"] = _field("z")
        assert "z" not in chain_program.field_map

    def test_stage_index(self, chain_program):
        assert chain_program.stage_index("s2") == 1
        with pytest.raises(KeyError):
            chain_program.stage_index("nope")

    def test_field_partitions(self, chain_program):
        assert [f.name for f in chain_program.input_fields] == ["x"]
        assert [f.name for f in chain_program.output_fields] == ["y"]
        assert {f.name for f in chain_program.temporary_fields} == {"a", "b"}

    def test_flops_per_point(self, chain_program):
        assert chain_program.flops_per_point == 3

    def test_io_bytes_per_point(self, chain_program):
        # one input + one output, 8 bytes each
        assert chain_program.bytes_per_point_io() == 16
