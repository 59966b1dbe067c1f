"""The columnar artifact writers against their cell-by-cell references:
CSV text from csv.writer and repr, heatmap SVGs from gradient_color."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import parvqe
from parvqe import csvio, harness, svgplot
from parvqe.csvio import csv_chunks, write_csv
from reference import csv_text, gradient_color, heatmap_svg
from test_golden import run_case

SPECIAL_FLOATS = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
                  -1e-310, 2.2250738585072014e-308, 1e-5, 1e16, 0.1, -2.5, 1.0]
TEXTS = st.text(alphabet=st.sampled_from('ab ,"\n\r\t-é'), max_size=6)


def _column(draw, rows):
    """A column of one of the kinds callers pass, and its cells as the
    reference writer sees them."""
    kind = draw(st.sampled_from(["float array", "int array", "list"]))
    if kind == "float array":
        values = draw(st.lists(st.floats() | st.sampled_from(SPECIAL_FLOATS),
                               min_size=rows, max_size=rows))
        return np.array(values, dtype=np.float64), values
    if kind == "int array":
        values = draw(st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=rows, max_size=rows))
        return np.array(values, dtype=np.int64), values
    cells = st.none() | st.integers() | st.floats() | st.sampled_from(SPECIAL_FLOATS) | TEXTS
    values = draw(st.lists(cells, min_size=rows, max_size=rows))
    return values, values


@st.composite
def tables(draw):
    rows = draw(st.integers(0, 12))
    columns = [_column(draw, rows) for _ in range(draw(st.integers(1, 5)))]
    header = draw(st.lists(TEXTS, min_size=len(columns), max_size=len(columns)))
    return header, [c for c, _ in columns], [cells for _, cells in columns]


@given(tables())
def test_columnar_csv_matches_csv_writer(table):
    header, columns, cells = table
    assert "".join(csv_chunks(header, columns)) == csv_text(header, zip(*cells))


def test_float_bit_patterns_stay_apart(tmp_path):
    # 0.0 and -0.0 are equal values with distinct bit patterns
    values = SPECIAL_FLOATS * 3
    path = tmp_path / "t.csv"
    write_csv(path, ["x", "n"], [np.array(values), np.arange(len(values))])
    assert path.read_text() == csv_text(["x", "n"], zip(values, range(len(values))))
    assert path.read_text().splitlines()[1:3] == ["0.0,0", "-0.0,1"]


def test_long_tables_go_out_in_chunks():
    rows = 2 * csvio.CHUNK_LINES + 5
    x = np.random.default_rng(3).normal(size=rows)
    chunks = list(csv_chunks(["i", "x"], [np.arange(rows), x]))
    assert len(chunks) == 4 and all(c.endswith("\n") for c in chunks)   # header, 3 chunks
    assert "".join(chunks) == csv_text(["i", "x"], zip(range(rows), x.tolist()))


def test_unequal_columns_are_rejected():
    for header, columns in ((["a", "b"], [[1, 2], [1]]),
                            (["a", "b"], [np.arange(csvio.CHUNK_LINES), np.arange(3)]),
                            (["a"], [[1], [2]]), (["a", "b"], [[1]]), ([], [])):
        with pytest.raises(ValueError):
            "".join(csv_chunks(header, columns))


def test_a_lone_empty_field_is_quoted():
    assert "".join(csv_chunks(["a"], [[None, 1, ""]])) == csv_text(["a"],
                                                                   [[None], [1], [""]])


# --- heatmap ------------------------------------------------------------------

def _half_fractions() -> list[float]:
    """Fractions at which one channel of the gradient lands exactly on a
    half, so that rounding decides between two colours."""
    stops, out = svgplot._GRADIENT, []
    for i in range(len(stops) - 1):
        for a, b in zip(stops[i], stops[i + 1]):
            for k in range(min(a, b), max(a, b)):
                frac = (i + (k + 0.5 - a) / (b - a)) / (len(stops) - 1)
                pos = frac * (len(stops) - 1)
                w = pos - min(int(pos), len(stops) - 2)
                if (1 - w) * a + w * b == k + 0.5:
                    out.append(frac)
    return out


def test_gradient_colors_match_the_reference():
    halves = _half_fractions()
    assert len(halves) > 100
    fracs = np.array([k / 7 for k in range(8)] + halves
                     + [-0.5, -1e-300, -0.0, 1.0 + 1e-15, 1.5, 1e300, -np.inf, np.inf])
    fracs = np.concatenate([fracs, np.nextafter(fracs, -np.inf), np.nextafter(fracs, np.inf)])
    assert svgplot.gradient_colors(fracs).tolist() == [gradient_color(f) for f in fracs]
    grid = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert svgplot.gradient_colors(grid / 3).shape == (2, 2)


@st.composite
def grids(draw):
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1.5, -3.25])
    if draw(st.booleans()):
        cells = st.just(draw(cells))        # a constant grid: span 0
    elif draw(st.booleans()):
        cells = cells | st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308])
    return np.array(draw(st.lists(st.lists(cells, min_size=ny, max_size=ny),
                                  min_size=nx, max_size=nx)))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], max_examples=60)
@given(grid=grids())
def test_heatmap_matches_the_cell_by_cell_reference(grid, tmp_path):
    args = ("title", "x", "y", (-3.0, 3.0, -1.0, 2.0))
    path = tmp_path / "h.svg"
    try:
        want = heatmap_svg(grid.tolist(), *args)
    except ValueError:
        with pytest.raises(ValueError):
            svgplot.heatmap(path, grid, *args)
        return
    svgplot.heatmap(path, grid, *args)
    assert path.read_text() == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_heatmap_rejects_a_non_finite_cell(bad, tmp_path):
    grid = np.arange(6.0).reshape(2, 3)
    grid[1, 2] = bad
    with pytest.raises(ValueError):
        heatmap_svg(grid.tolist(), "t", "x", "y", (0, 1, 0, 1))
    with pytest.raises(ValueError):
        svgplot.heatmap(tmp_path / "h.svg", grid, "t", "x", "y", (0, 1, 0, 1))


# --- one writer -----------------------------------------------------------------

def test_one_columnar_csv_writer():
    """write_csv takes columns, not rows; no module keeps a per-cell
    formatter or a csv.writer of its own."""
    assert list(inspect.signature(harness.write_csv).parameters) == ["path", "header",
                                                                       "columns"]
    for module in Path(parvqe.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None), *(a.name for a in node.names)]
                assert "csv" not in names, module.name
            if isinstance(node, ast.FunctionDef):
                assert node.name != "_cell", module.name


def test_every_harness_csv_is_written_from_columns(tmp_path, monkeypatch):
    calls = []

    def spy(path, header, columns):
        calls.append((Path(path), list(header), [len(c) for c in columns]))
        write_csv(path, header, columns)

    monkeypatch.setattr(harness, "write_csv", spy)
    for case in ("benchmark-pairs", "heatmap-ni", "vqe-spsa", "vqe-speedup-sweep",
                 "shots-sweep", "optimizer-compare"):
        (tmp_path / case).mkdir()
        run_case(case, tmp_path / case)
    source = ast.parse(inspect.getsource(harness))
    sites = [n for n in ast.walk(source) if isinstance(n, ast.Call)
             and getattr(n.func, "id", None) == "write_csv"]
    assert len(calls) == len(sites) == 10
    for path, header, lengths in calls:
        lines = path.read_text().count("\n")
        assert len(lengths) == len(header) and set(lengths) == {lines - 1}, path.name

