"""Potential specs, validation rules, and CSV loading."""

import numpy as np
import pytest

from scatter1d.core import (
    AsymmetricPotential,
    NonFiniteSample,
    NonUniformGrid,
    PreconditionViolated,
)
from scatter1d.potential import (
    Sampled,
    SquareWell,
    load_sampled_csv,
    validate,
)
from scatter1d.smatrix import smatrix_via_transfer


def good_sampled(n: int = 9, a: float = 1.0) -> Sampled:
    x = np.linspace(-a, a, n)
    return Sampled(a=a, x=x, v=np.cos(x))


class TestSquareWell:
    def test_pointwise_values(self):
        pot = validate(SquareWell(v0=2.0, a=1.5))
        assert pot(0.0) == -2.0
        assert pot(1.5) == -2.0
        assert pot(1.5000001) == 0.0
        assert pot(-10.0) == 0.0

    def test_scalar_in_scalar_out(self):
        pot = validate(SquareWell(v0=1.0, a=1.0))
        assert isinstance(pot(0.3), float)
        out = pot(np.array([0.0, 2.0]))
        assert out.shape == (2,)

    def test_zero_depth_is_free(self):
        pot = validate(SquareWell(v0=0.0, a=1.0))
        assert pot(0.0) == 0.0

    def test_rejects_negative_depth_and_width(self):
        with pytest.raises(PreconditionViolated):
            validate(SquareWell(v0=-1.0, a=1.0))
        with pytest.raises(PreconditionViolated):
            validate(SquareWell(v0=1.0, a=0.0))

    @pytest.mark.parametrize("v0, a, name", [(np.nan, 1.0, "v0"), (np.inf, 1.0, "v0"), (1.0, np.inf, "a")])
    def test_rejects_non_finite_parameters(self, v0, a, name):
        with pytest.raises(PreconditionViolated, match=f"{name} must be finite"):
            validate(SquareWell(v0=v0, a=a))


    def test_is_a_read_only_three_node_table(self):
        pot = validate(SquareWell(v0=37.5, a=0.3))
        assert pot.x.tolist() == [-0.3, 0.0, 0.3]
        assert pot.v.tolist() == [-37.5, -37.5, -37.5]
        assert not pot.x.flags.writeable and not pot.v.flags.writeable

    @pytest.mark.parametrize("v0, a", [(0.0, 1.0), (2.0, 1.0), (37.5, 0.3), (1e5, 0.5)])
    def test_smatrix_equals_the_fine_table_bit_for_bit(self, v0, a):
        # Linear interpolation of a constant table is exactly -v0 wherever
        # it is read, so the node count cannot move a single bit.
        energies = np.linspace(0.1, 50.0, 32)
        coarse = smatrix_via_transfer(validate(SquareWell(v0=v0, a=a)), energies)
        table = Sampled(a=a, x=np.linspace(-a, a, 257), v=np.full(257, -v0))
        fine = smatrix_via_transfer(validate(table), energies)
        for s, t in zip(coarse, fine):
            assert np.array_equal(s.as_matrix(), t.as_matrix())


class TestSampled:
    def test_roundtrip_and_interpolation(self):
        spec = good_sampled(n=201)
        pot = validate(spec)
        assert abs(pot(0.0) - 1.0) < 1e-12
        # Linear interpolation between nodes, zero outside the support.
        mid = 0.5 * (spec.x[3] + spec.x[4])
        expect = 0.5 * (spec.v[3] + spec.v[4])
        assert abs(pot(mid) - expect) < 1e-12
        assert pot(1.0000001) == 0.0

    def test_rejects_even_count_and_tiny_grids(self):
        x = np.linspace(-1, 1, 8)
        with pytest.raises(PreconditionViolated):
            validate(Sampled(a=1.0, x=x, v=np.zeros(8)))
        with pytest.raises(PreconditionViolated):
            validate(Sampled(a=1.0, x=np.array([0.0]), v=np.array([1.0])))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(PreconditionViolated):
            validate(Sampled(a=1.0, x=np.linspace(-1, 1, 9), v=np.zeros(7)))

    def test_rejects_asymmetric_values(self):
        x = np.linspace(-1, 1, 9)
        with pytest.raises(AsymmetricPotential):
            validate(Sampled(a=1.0, x=x, v=x.copy()))

    def test_symmetry_threshold_is_relative(self):
        x = np.linspace(-1, 1, 9)
        v = np.cos(x) * 100.0
        v[0] += 100.0 * 0.5e-12
        validate(Sampled(a=1.0, x=x, v=v))
        v[0] += 100.0 * 1e-10
        with pytest.raises(AsymmetricPotential):
            validate(Sampled(a=1.0, x=x, v=v))

    def test_rejects_nonuniform_grid(self):
        x = np.linspace(-1, 1, 9).copy()
        x[4] += 1e-3
        with pytest.raises(NonUniformGrid):
            validate(Sampled(a=1.0, x=x, v=np.zeros(9)))

    def test_rejects_grid_not_spanning_support(self):
        x = np.linspace(-0.9, 0.9, 9)
        with pytest.raises(NonUniformGrid):
            validate(Sampled(a=1.0, x=x, v=np.zeros(9)))

    def test_rejects_decreasing_grid(self):
        x = np.linspace(1, -1, 9)
        with pytest.raises(NonUniformGrid):
            validate(Sampled(a=1.0, x=x, v=np.zeros(9)))

    def test_table_is_a_read_only_copy(self):
        x = np.linspace(-1.0, 1.0, 257)
        spec = Sampled(a=1.0, x=x, v=-2.0 * np.ones_like(x))
        pot = validate(spec)
        spec.v[:128] = 0.0
        spec.x[:] = 0.0
        assert pot(-0.5) == pot(0.5) == -2.0
        with pytest.raises(ValueError):
            pot.v[0] = 1.0
        with pytest.raises(ValueError):
            pot.x[0] = 1.0

    def test_rejects_nonfinite_samples(self):
        spec = good_sampled()
        spec.v[2] = np.nan
        with pytest.raises(NonFiniteSample):
            validate(spec)
        spec = good_sampled()
        spec.v[2] = np.inf
        with pytest.raises(NonFiniteSample):
            validate(spec)

    def test_rejects_non_finite_half_width(self):
        spec = good_sampled()
        with pytest.raises(PreconditionViolated, match="a must be finite"):
            validate(Sampled(a=np.inf, x=spec.x, v=spec.v))


class TestLoadSampledCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "pot.csv"
        x = np.linspace(-1.0, 1.0, 9)
        v = -np.exp(-(x**2))
        lines = ["x,V"] + [f"{float(xi)!r},{float(vi)!r}" for xi, vi in zip(x, v)]
        path.write_text("\n".join(lines) + "\n")
        spec = load_sampled_csv(path)
        assert spec.a == 1.0
        np.testing.assert_allclose(spec.x, x, rtol=0, atol=0)
        np.testing.assert_allclose(spec.v, v, rtol=0, atol=0)
        validate(spec)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,0\n")
        with pytest.raises(PreconditionViolated):
            load_sampled_csv(path)

    def test_rejects_malformed_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,V\n-1.0,0.0\noops,0.0\n1.0,0.0\n")
        with pytest.raises(PreconditionViolated):
            load_sampled_csv(path)

    def test_cells_are_read_as_float_reads_them(self, tmp_path):
        # The split rows are cast to float together, and numpy's cast reads
        # underscores, blanks, nan, infinities and overflow as float() does.
        cells = ["1_0", " 2.5 ", "nan", "-Infinity", "1e400", "+.5", "-0"]
        path = tmp_path / "cells.csv"
        path.write_text("x,V\n" + "".join(f"{cell},{cell}\n" for cell in cells))
        spec = load_sampled_csv(path)
        expected = np.array([float(cell) for cell in cells])
        for column in (spec.x, spec.v):
            np.testing.assert_array_equal(column.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0x10,1\n", "malformed CSV row: could not convert string to float: '0x10'"),
            ("1d5,1\n", "malformed CSV row: could not convert string to float: '1d5'"),
            ("1,\n", "malformed CSV row: could not convert string to float: ''"),
            ("1,2,3\n", "every row must hold exactly two columns; line 2 holds 3"),
            ("1\n2\n", "every row must hold exactly two columns; line 2 holds 1"),
            ("-1,0\n1\n", "every row must hold exactly two columns; line 3 holds 1"),
            ("-1,0\n\n0,0,0\n", "every row must hold exactly two columns; line 4 holds 3"),
            ("\n \n", "every row must hold exactly two columns"),
        ],
    )
    def test_refusals_name_the_fault(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("x,V\n" + rows)
        with pytest.raises(PreconditionViolated) as refused:
            load_sampled_csv(path)
        assert str(refused.value) == message

    def test_a_row_of_another_length_is_refused_before_any_cell_is_read(self, tmp_path):
        # Row lengths are checked before the cells are cast, so a row of the
        # wrong length is refused for its length even when an earlier cell
        # is not a number.
        path = tmp_path / "bad.csv"
        path.write_text("x,V\noops,0.0\n1.0\n")
        with pytest.raises(PreconditionViolated) as refused:
            load_sampled_csv(path)
        assert str(refused.value) == "every row must hold exactly two columns; line 3 holds 1"

    def test_rejects_asymmetric_endpoints(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,V\n-1.0,0.0\n0.0,0.0\n2.0,0.0\n")
        with pytest.raises(NonUniformGrid):
            validate(load_sampled_csv(path))
