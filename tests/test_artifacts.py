"""The columnar artifact writers against their cell-by-cell references:
CSV text from csv.writer and repr, and tools/plot.py's heatmap SVGs from
gradient_color; the plot tool's refusals; and the one writing stage."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parvqe
from parvqe import csvio, harness
from parvqe.csvio import csv_chunks, write_csv
from parvqe.cli import main as cli_main
from reference import csv_text, gradient_color, heatmap_svg, plot
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
    if draw(st.booleans()):    # one object as two columns
        columns.append(columns[draw(st.integers(0, len(columns) - 1))])
    header = draw(st.lists(TEXTS, min_size=len(columns), max_size=len(columns)))
    return header, [c for c, _ in columns], [cells for _, cells in columns]


@given(tables(), st.integers(1, 4))
def test_columnar_csv_matches_csv_writer(table, chunk_lines):
    """With chunks of 1-4 lines, most drawn tables span several chunks."""
    header, columns, cells = table
    with mock.patch.object(csvio, "CHUNK_LINES", chunk_lines):
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
    stops, out = plot._GRADIENT, []
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
    assert plot.gradient_colors(fracs).tolist() == [gradient_color(f) for f in fracs]
    grid = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert plot.gradient_colors(grid / 3).shape == (2, 2)


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


@settings(max_examples=60)
@given(grid=grids())
def test_heatmap_matches_the_cell_by_cell_reference(grid):
    args = ("title", "x", "y", (-3.0, 3.0, -1.0, 2.0))
    try:
        want = heatmap_svg(grid.tolist(), *args)
    except ValueError:
        with pytest.raises(ValueError):
            plot.heatmap(grid, *args)
        return
    assert plot.heatmap(grid, *args) == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_heatmap_rejects_a_non_finite_cell(bad):
    grid = np.arange(6.0).reshape(2, 3)
    grid[1, 2] = bad
    with pytest.raises(ValueError):
        heatmap_svg(grid.tolist(), "t", "x", "y", (0, 1, 0, 1))
    with pytest.raises(ValueError):
        plot.heatmap(grid, "t", "x", "y", (0, 1, 0, 1))


# --- the plot tool's refusals ---------------------------------------------------

def _refused(run_dir, capsys, message: str) -> None:
    """tools/plot.py exits 2 on run_dir with message on stderr, and leaves
    the directory as it was."""
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    assert plot.main([str(run_dir)]) == 2
    assert message in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


def test_plot_refuses_a_directory_without_a_record(tmp_path, capsys):
    (tmp_path / "heatmap_exact.csv").write_text("phi,theta,e_exact\n0.0,0.0,1.0\n")
    _refused(tmp_path, capsys, "record.json")
    # and as a script, by its exit status
    env = {**os.environ, "PYTHONPATH": str(Path(parvqe.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, str(Path(plot.__file__)), str(tmp_path / "none")],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 2 and "record.json" in run.stderr


def test_plot_refuses_an_unknown_command(tmp_path, capsys):
    (tmp_path / "record.json").write_text(json.dumps({"command": "bogus", "metrics": {}}))
    _refused(tmp_path, capsys, "unknown command 'bogus'")


def test_plot_refuses_a_run_with_a_missing_table(tmp_path, capsys):
    # heatmap_exact.svg could be drawn, but no plot is written before all are
    out = tmp_path / "out"
    assert cli_main(["heatmap", "--seed", "4", "--grid", "3", "--pairs", "3", "--shots", "50",
                     "--out", str(out)]) == 0
    (out / "heatmap_simulated.csv").unlink()
    _refused(out, capsys, "heatmap_simulated.csv")


def test_the_package_draws_no_plots():
    """No module of the package imports a plot module or names an .svg
    file: tools/plot.py draws every plot."""
    for module in Path(parvqe.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                assert not any("plot" in name for name in names), module.name
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert ".svg" not in node.value, module.name


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
    """Each run's write_csv calls write exactly the CSVs its record.json
    lists, in its order, each from a header and equal-length columns."""
    calls = []

    def spy(path, header, columns):
        calls.append((Path(path), list(header), [len(c) for c in columns]))
        write_csv(path, header, columns)

    monkeypatch.setattr(harness, "write_csv", spy)
    for case in ("benchmark-pairs", "heatmap-ni", "vqe-spsa", "vqe-speedup-sweep",
                 "shots-sweep", "optimizer-compare"):
        calls.clear()
        (tmp_path / case).mkdir()
        run_case(case, tmp_path / case)
        out = tmp_path / case / "out"
        artifacts = json.loads((out / "record.json").read_text())["artifacts"]
        assert [path for path, _, _ in calls] == [out / name for name in artifacts
                                                  if name.endswith(".csv")], case
        for path, header, lengths in calls:
            lines = path.read_text().count("\n")
            assert len(lengths) == len(header) and set(lengths) == {lines - 1}, path.name


def _writes(node) -> list:
    """The nodes under node that write a file: write_csv, np.save, open and
    any .write, .mkdir, .write_text or .write_bytes call."""
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Name) and n.id in ("write_csv", "open")
            or isinstance(n, ast.Attribute) and (
                n.attr in ("write", "mkdir", "write_text", "write_bytes")
                or n.attr == "save" and getattr(n.value, "id", None) == "np")]


def test_only_finish_writes_in_the_harness():
    """Every file write in harness lies in _Run.finish (record.json's in
    RunRecord.write), so no command writes before its inputs are all
    checked; finish writes the CSVs and .npy arrays."""
    source = ast.parse(inspect.getsource(harness))
    methods = {f"{cls.name}.{fn.name}": fn for cls in source.body
               if isinstance(cls, ast.ClassDef) for fn in cls.body
               if isinstance(fn, ast.FunctionDef)}
    allowed = {id(n) for name in ("_Run.finish", "RunRecord.write")
               for n in _writes(methods[name])}
    assert [ast.unparse(n) for n in _writes(source) if id(n) not in allowed] == []
    in_finish = {ast.unparse(n) for n in _writes(methods["_Run.finish"])}
    assert {"write_csv", "np.save"} <= in_finish
