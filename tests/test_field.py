"""Grid, difference-stencil and F2D-format unit tests."""

import os
import tracemalloc
import warnings

import numpy as np
import pytest

import selfsim as ss
from selfsim import field as fld
from selfsim.errors import DimensionMismatch, DomainError, FormatError

from conftest import per_value_f2d


@pytest.fixture
def grid():
    return ss.Grid2D(-1.0, 1.0, -0.5, 0.5, 17, 13)


def test_grid_properties(grid):
    assert grid.hx == pytest.approx(2.0 / 16)
    assert grid.hy == pytest.approx(1.0 / 12)
    assert grid.shape == (13, 17)
    assert grid.xi1[0] == -1.0 and grid.xi1[-1] == 1.0
    assert grid.xi2[0] == -0.5 and grid.xi2[-1] == 0.5
    assert grid.diam == pytest.approx(np.hypot(2.0, 1.0))


def test_grid_validation():
    with pytest.raises(DomainError):
        ss.Grid2D(0.0, 0.0, 0.0, 1.0, 5, 5)
    with pytest.raises(DomainError):
        ss.Grid2D(0.0, 1.0, 0.0, 1.0, 2, 5)


def test_field_shape_checks(grid):
    with pytest.raises(DimensionMismatch):
        ss.ScalarField(grid, np.zeros((3, 3)))
    f = ss.ScalarField(grid, np.zeros(grid.nx * grid.ny))
    assert f.values.shape == grid.shape
    c = ss.ScalarField.from_function(grid, lambda x, y: 2.0)
    assert np.all(c.values == 2.0)  # constants broadcast to the grid


def test_diff_stencils_exact_on_quadratics(grid):
    X, Y = grid.meshgrid()
    f = 2.0 * X ** 2 - 3.0 * X * Y + Y ** 2 + 0.5 * X - Y + 4.0
    d1 = fld.diff1(f, grid.hx, axis=1)
    assert np.max(np.abs(d1 - (4.0 * X - 3.0 * Y + 0.5))) < 1e-12
    d2 = fld.diff2(f, grid.hx, axis=1)
    assert np.max(np.abs(d2 - 4.0)) < 1e-11
    d2y = fld.diff2(f, grid.hy, axis=0)
    assert np.max(np.abs(d2y - 2.0)) < 1e-11


@pytest.mark.parametrize("diff", [fld.diff1, fld.diff2])
def test_diff_stencils_match_a_moveaxis_reference(diff):
    # the stencils swap the differenced axis to the front; the reference
    # moves it there with np.moveaxis, as the stencils did before
    def reference(values, h, axis):
        f = np.moveaxis(values, axis, 0)
        out = np.empty_like(f)
        if diff is fld.diff1:
            out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
            out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
            out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
        else:
            out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h)
            out[0] = (f[0] - 2.0 * f[1] + f[2]) / (h * h)
            out[-1] = (f[-1] - 2.0 * f[-2] + f[-3]) / (h * h)
        return np.moveaxis(out, 0, axis)

    values = np.random.default_rng(3).normal(size=(7, 11))
    for axis, h in ((0, 0.3), (1, 0.07)):
        got, want = diff(values, h, axis), reference(values, h, axis)
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_hessian_cross_term(grid):
    f = ss.ScalarField.from_function(grid, lambda x, y: x * x * y)
    f11, f12, f22 = fld.hessian(f)
    X, Y = grid.meshgrid()
    assert np.max(np.abs(f11.values - 2.0 * Y)) < 1e-12
    assert np.max(np.abs(f12.values - 2.0 * X)) < 1e-12
    assert np.max(np.abs(f22.values)) < 1e-12


def test_discrete_identities(grid):
    f = ss.ScalarField.from_function(
        grid, lambda x, y: np.sin(2 * x) * np.cos(y) + x * y)
    curl_of_grad = fld.rot(fld.gradient(f)).values
    assert np.max(np.abs(curl_of_grad[1:-1, 1:-1])) < 1e-12
    div_of_perp = fld.divergence(fld.perp_gradient(f)).values
    assert np.max(np.abs(div_of_perp[1:-1, 1:-1])) < 1e-12
    lap = fld.laplacian(f).values
    wide = (fld.diff1(fld.diff1(f.values, grid.hx, 1), grid.hx, 1)
            + fld.diff1(fld.diff1(f.values, grid.hy, 0), grid.hy, 0))
    assert np.array_equal(lap, wide)


def test_f2d_scalar_round_trip(tmp_path, grid):
    rng = np.random.default_rng(7)
    f = ss.ScalarField(grid, rng.normal(size=grid.shape))
    p = tmp_path / "f.f2d"
    fld.write_field(f, p)
    g = fld.read_field(p)
    assert isinstance(g, ss.ScalarField)
    assert g.grid == grid
    assert np.array_equal(g.values, f.values)
    # second serialization is byte-identical (17 significant digits)
    p2 = tmp_path / "g.f2d"
    fld.write_field(g, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_f2d_vector_round_trip(tmp_path, grid):
    rng = np.random.default_rng(8)
    V = ss.VectorField(grid, rng.normal(size=grid.shape),
                       rng.normal(size=grid.shape))
    p = tmp_path / "v.f2d"
    fld.write_field(V, p)
    W = fld.read_field(p)
    assert isinstance(W, ss.VectorField)
    assert np.array_equal(W.u, V.u) and np.array_equal(W.v, V.v)


def test_f2d_special_values_round_trip(tmp_path):
    grid = ss.Grid2D(-1.0, 1.0, -0.5, 0.5, 4, 3)
    special = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308]
    rng = np.random.default_rng(9)
    vals = np.concatenate([special, rng.normal(size=6) * 1e-300])
    for field in (ss.ScalarField(grid, vals),
                  ss.VectorField(grid, vals, vals[::-1])):
        p = tmp_path / "s.f2d"
        fld.write_field(field, p)
        assert p.read_bytes() == per_value_f2d(field)
        back = fld.read_field(p)
        pairs = ([(back.values, field.values)]
                 if isinstance(field, ss.ScalarField)
                 else [(back.u, field.u), (back.v, field.v)])
        for got, want in pairs:  # bit for bit: -0.0 and nan included
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_f2d_writer_matches_the_per_value_join(tmp_path):
    # the body is byte for byte a "%.17g" join value by value, u before v
    # on each line
    grid = ss.Grid2D(0.0, 1.0, 0.0, 2.0, 5, 4)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300, -1e300, 1e-300,
               -1e-300]
    vals = np.concatenate([special, np.random.default_rng(4).normal(
        size=grid.nx * grid.ny - len(special))])
    for field in (ss.ScalarField(grid, vals),
                  ss.VectorField(grid, vals, -vals[::-1])):
        p = tmp_path / "f.f2d"
        fld.write_field(field, p)
        assert p.read_bytes() == per_value_f2d(field)


def _signed(x):
    return np.concatenate([x, -x])


def _neighbours(x):
    """x with the doubles 1 ulp below and above it."""
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.nextafter(x, -np.inf),
                           np.nextafter(x, np.inf)])


def _decades():
    # 1e-330 (0) ... 1e308 with their neighbours, and a random significand
    # in every decade
    tens = np.array([float(f"1e{p}") for p in range(-330, 309)])
    mant = np.random.default_rng(11).uniform(1.0, 10.0, tens.size)
    mant[-1] = 1.5  # below the largest double
    return _signed(np.concatenate([_neighbours(tens), mant * tens]))


def _near_fixed_range():
    # 1e-25 ... 1e25 (the fixed-notation range is 1e-4 <= |v| < 1e17) and
    # the doubles up to 2 ulp from each, where the decimal exponent turns
    tens = np.array([float(f"1e{p}") for p in range(-25, 26)])
    return _signed(_neighbours(_neighbours(tens)))


def _ties():
    # exact decimals of 18 significant digits ending in 5, half-way between
    # two 17-digit values: 1 + j/2**17 (131073/131072 prints as
    # 1.0000076293945312) and m + k/8 with 15 integer digits
    odd = np.arange(1, 2 ** 17, 2)
    m = np.random.default_rng(12).integers(10 ** 14, 2 ** 47, 2000)
    return _signed(np.concatenate([1 + odd / 2 ** 17,
                                   m + (2 * (m % 4) + 1) / 8]))


def _specials():
    return _signed(np.array([
        0.0, np.nan, np.inf, 5e-324, 2.2250738585072009e-308,
        2.2250738585072014e-308, 1.7976931348623157e308, 1e-4,
        9.9999999999999991e-5, 1e17, 99999999999999984.0]))


_VALUE_SETS = {
    "bit-patterns": lambda rng: rng.integers(
        0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(np.float64),
    "decades": lambda rng: _decades(),
    "near-fixed-range": lambda rng: _near_fixed_range(),
    "ties": lambda rng: _ties(),
    "specials": lambda rng: _specials(),
    # every value is outside the fixed-notation range, and none is
    "all-fallback": lambda rng: _signed(rng.uniform(1.0, 10.0, 500) * 10.0
                                        ** rng.choice([-300, -6, -5, 17, 300],
                                                      500)),
    "no-fallback": lambda rng: _signed(rng.uniform(1.0, 10.0, 500) * 10.0
                                       ** rng.integers(-4, 17, 500)),
    # 3 blocks of 4096 values and a part, scalar; 6 blocks and a part, vector
    "block-seams": lambda rng: rng.normal(size=3 * 4096 + 17),
}


@pytest.mark.parametrize("name", _VALUE_SETS)
def test_f2d_writer_is_the_per_value_join_on_every_value(tmp_path, name):
    rng = np.random.default_rng(10)
    values = _VALUE_SETS[name](rng)
    nx = 97
    ny = max(3, -(-values.size // nx))
    values = np.resize(values, nx * ny)  # repeats values to fill the grid
    grid = ss.Grid2D(-1.0, 1.0, 0.0, 3.0, nx, ny)
    for field in (ss.ScalarField(grid, values),
                  ss.VectorField(grid, values, rng.permutation(values))):
        p = tmp_path / "f.f2d"
        fld.write_field(field, p)
        assert p.read_bytes() == per_value_f2d(field)


def test_f2d_comments_and_blank_lines(tmp_path, monkeypatch):
    # comments and blank lines are parsed in one loadtxt call; the line
    # loop runs only to report a malformed line
    def no_line_loop(*args):
        raise AssertionError("value lines parsed one at a time")

    monkeypatch.setattr(fld, "_parse_rows", no_line_loop)
    p = tmp_path / "c.f2d"
    p.write_text("# leading comment\n\nF2D 3 3 0 1 0 1 scalar\n"
                 + "\n".join(f"{v}.0  # node" for v in range(9))
                 + "\n\n# trailing comment\n")
    f = fld.read_field(p)
    assert f.values[0, 1] == 1.0 and f.values[2, 2] == 8.0


def test_f2d_empty_body_is_too_short(tmp_path):
    # a valid header over comments and blank lines only: the body has no
    # value line, which loadtxt would warn about; no warning escapes
    for kind in ("scalar", "vector"):
        p = tmp_path / f"{kind}.f2d"
        p.write_text(f"F2D 3 3 0 1 0 1 {kind}\n# no values\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatch):
                fld.read_field(p)


def test_f2d_crlf_line_ends(tmp_path, grid):
    rng = np.random.default_rng(4)
    v = ss.VectorField(grid, rng.standard_normal(grid.shape),
                       rng.standard_normal(grid.shape))
    p = tmp_path / "v.f2d"
    fld.write_field(v, p)
    p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
    back = fld.read_field(p)
    assert back.grid == grid
    assert np.array_equal(back.u, v.u) and np.array_equal(back.v, v.v)


def test_f2d_read_memory(tmp_path):
    # the body goes to loadtxt as an open file, not as a list of line
    # strings: reading a 129^2 vector file peaks at 1.31 times the bytes of
    # its two arrays (7.9 times with the list of lines)
    grid = ss.Grid2D(0.25, 0.75, 0.25, 0.75, 129, 129)
    rng = np.random.default_rng(5)
    p = tmp_path / "U.f2d"
    fld.write_field(ss.VectorField(grid, rng.standard_normal(grid.shape),
                                   rng.standard_normal(grid.shape)), p)
    fld.read_field(p)  # any first-call set-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f = fld.read_field(p)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2 * (f.u.nbytes + f.v.nbytes)


def test_f2d_format_errors(tmp_path):
    bad_header = tmp_path / "a.f2d"
    bad_header.write_text("F3D 3 3 0 1 0 1 scalar\n" + "0\n" * 9)
    with pytest.raises(FormatError):
        fld.read_field(bad_header)
    bad_kind = tmp_path / "b.f2d"
    bad_kind.write_text("F2D 3 3 0 1 0 1 tensor\n" + "0\n" * 9)
    with pytest.raises(FormatError):
        fld.read_field(bad_kind)
    bad_value = tmp_path / "c.f2d"
    bad_value.write_text("F2D 3 3 0 1 0 1 scalar\n" + "0\n" * 8 + "oops\n")
    with pytest.raises(FormatError) as exc:
        fld.read_field(bad_value)
    assert exc.value.line == 10  # the offending line is reported
    short = tmp_path / "d.f2d"
    short.write_text("F2D 3 3 0 1 0 1 scalar\n" + "0\n" * 5)
    with pytest.raises(DimensionMismatch):
        fld.read_field(short)
    empty = tmp_path / "e.f2d"
    empty.write_text("# nothing\n")
    with pytest.raises(FormatError):
        fld.read_field(empty)
