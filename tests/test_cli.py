"""Command-line interface: table shapes, parsing, exit codes, determinism.

Commands run in-process through main(argv) so stdout/stderr and the return
code can be asserted directly.
"""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsecs import cli, coherent, morse_core
from morsecs.cli import _csv_table, _json_table, main
from morsecs.errors import TruncationWarning


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    # A separate interpreter, so that anything written to stderr outside
    # the CLI's own messages (warnings included) is seen as the user sees it.
    return subprocess.run([sys.executable, "-m", "morsecs.cli", *argv],
                          capture_output=True, text=True, timeout=60)


_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from morsecs.cli import main
sys.exit(main({argv!r}))
"""


def assert_refused_under_cap(*argv):
    """Under a 1 GiB address-space cap the CLI must refuse argv before
    allocating, with exit 2 and one line."""
    result = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN.format(argv=list(argv))],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("morsecs: ")
    assert result.stderr.count("\n") == 1, result.stderr


# Every character str.splitlines breaks a line at.
LINE_BREAKS = ("\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029")


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def numpy_scalar_table(header, rows):
    """Reference CSV: each cell formatted from a NumPy scalar, one type
    check after another."""
    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, str):
            return value
        return repr(float(value))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell(v) for v in row])
    return buf.getvalue()


def json_dumps_table(config, header, rows):
    """Reference JSON report: one dict per row, through json.dumps (finite
    Python floats, ints, bools and strings only)."""
    data = [dict(zip(header, row)) for row in rows]
    return json.dumps({"config": config, "data": data}, indent=2) + "\n"


# A config holding every kind of JSON value, so that the rows are spliced
# after a nested document.
CONFIG = {"command": "t", "s": 1.75, "n": 3, "grid": [0.0, 1.0, 3],
          "quick": False, "label": 'q"\\%{null}'}


class TestBasis:
    def test_table_shape_and_signs(self, capsys):
        code, out, _ = run(capsys, "basis", "--s", "1.75", "--n-max", "4",
                           "--grid", "0.1:20:200", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["y", "phi0", "phi1", "phi2", "phi3", "phi4"]
        assert len(rows) == 200
        y = np.array([float(r[0]) for r in rows])
        assert np.all(np.diff(y) < 0.0)  # x ascending means y descending
        assert all(float(r[1]) > 0.0 for r in rows)

    def test_negative_grid_minimum(self, capsys):
        code, out, _ = run(capsys, "basis", "--s", "1.0", "--n-max", "0",
                           "--grid", "-2:8:11")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 11
        assert float(rows[0][0]) == pytest.approx(2.0 * math.exp(2.0))

    def test_repeated_runs_byte_identical(self, capsys):
        args = ("basis", "--s", "1.75", "--n-max", "3", "--grid", "0.5:10:50")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "basis.csv"
        code, out, _ = run(capsys, "basis", "--s", "1.0", "--n-max", "1",
                           "--grid", "0:5:8", "--out", str(target))
        assert code == 0
        assert out == ""
        header, rows = parse_csv(target.read_text())
        assert header == ["y", "phi0", "phi1"]
        assert len(rows) == 8

    def test_bad_grid_is_validation_error(self, capsys):
        code, _, err = run(capsys, "basis", "--s", "1.0", "--grid", "1:2")
        assert code == 1
        assert "min:max:count" in err


class TestOutFile:
    @pytest.mark.parametrize("where, reason", [
        ("missing/dir/x.csv", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_unwritable_out_is_one_line_error(self, capsys, tmp_path,
                                              where, reason):
        target = tmp_path / where
        code, out, err = run(capsys, "ham", "--s", "1.75", "--n", "3",
                             "--out", str(target))
        assert code == 1
        assert out == ""
        assert err == f"morsecs: cannot write {target}: {reason}\n"

    @pytest.mark.parametrize("brk", LINE_BREAKS)
    def test_line_break_in_the_path_is_escaped(self, capsys, tmp_path, brk):
        target = tmp_path / f"miss{brk}ing" / "x.csv"
        code, out, err = run(capsys, "ham", "--s", "1.75", "--n", "3",
                             "--out", str(target))
        assert (code, out) == (1, "")
        shown = str(target).replace(brk, repr(brk)[1:-1])
        assert err == (f"morsecs: cannot write {shown}: "
                       "No such file or directory\n")


class TestHam:
    def test_small_block_values(self, capsys):
        code, out, _ = run(capsys, "ham", "--s", "1.0", "--n", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["index", "diagonal", "super_diagonal"]
        assert [float(r[1]) for r in rows] == [1.25, 4.25, 11.25]
        assert float(rows[0][2]) == 0.0
        assert float(rows[1][2]) == pytest.approx(-math.sqrt(6.0), abs=1e-15)
        assert rows[2][2] == ""  # no coupling beyond the block

    def test_last_super_diagonal_cell_is_blank(self, capsys):
        code, out, _ = run(capsys, "ham", "--s", "3.6", "--n", "2")
        assert code == 0
        # One coupling, exactly zero at sigma = s, then the padded blank.
        assert out == ("index,diagonal,super_diagonal\n"
                       "0,3.85,0.0\n"
                       "1,12.049999999999999,\n")

    def test_json_arrays(self, capsys):
        code, out, _ = run(capsys, "ham", "--s", "1.0", "--n", "4",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["command"] == "ham"
        assert len(doc["data"]["diagonal"]) == 4
        assert len(doc["data"]["super_diagonal"]) == 3


class TestSpectrum:
    def test_bound_levels_table(self, capsys):
        code, out, err = run(capsys, "spectrum", "--s", "3.6")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["index", "ritz_value", "formula_value",
                          "abs_diff", "threshold"]
        assert len(rows) == 4
        assert float(rows[0][1]) == 3.85
        assert float(rows[0][3]) < 1e-12
        assert all(float(r[4]) == 16.81 for r in rows)
        assert "level-adapted" in err

    def test_deep_well_lists_every_level(self, capsys):
        code, out, err = run(capsys, "spectrum", "--s", "50.3")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 51
        for k, r in enumerate(rows):
            formula = morse_core.bound_energy(k, 50.3)
            assert float(r[2]) == formula
            assert abs(float(r[1]) - formula) <= 1e-14 * max(1.0, formula), k

    def test_integer_shape_warning_is_one_line(self):
        result = run_process("spectrum", "--s", "3")
        assert result.returncode == 0, result.stderr
        lines = result.stderr.splitlines()
        assert lines[0].startswith("morsecs: warning: s = 3.0 is an integer")
        assert lines[1] == ("bound levels from level-adapted tridiagonal "
                            "blocks at sigma = s - n")
        assert len(lines) == 2, result.stderr
        _, rows = parse_csv(result.stdout)
        assert len(rows) == 4
        # The marginal level is the threshold, exactly.
        assert rows[3] == ["3", "12.25", "12.25", "0.0", "12.25"]

    def test_level_bound_is_one_line_capability_error(self, capsys):
        code, out, err = run(capsys, "spectrum", "--s", "512.5")
        assert code == 2
        assert out == ""
        assert err == ("morsecs: 513 bound levels exceed the supported "
                       "maximum of 512\n")

    def test_search_options_removed(self, capsys):
        for opt in ("--n", "--n-max", "--tol"):
            code, out, err = run(capsys, "spectrum", "--s", "3.6", opt, "1")
            assert code == 1, opt
            assert out == ""
            assert "unrecognized arguments" in err


class TestCoherent:
    def test_origin_sparsity(self, capsys):
        code, out, _ = run(capsys, "coherent", "--s", "1.75",
                           "--beta", "0", "--n", "5")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][3]) == 1.0
        assert all(float(r[3]) == 0.0 for r in rows[1:])

    def test_i_and_j_suffixes_agree(self, capsys):
        _, out_i, _ = run(capsys, "coherent", "--s", "1.75",
                          "--beta", "0.3+0.4i", "--n", "8")
        _, out_j, _ = run(capsys, "coherent", "--s", "1.75",
                          "--beta", "0.3+0.4j", "--n", "8")
        assert out_i == out_j

    def test_phase_space_label_input(self, capsys):
        code, out, _ = run(capsys, "coherent", "--s", "1.0",
                           "--x", "0.0", "--p", "0.0", "--n", "3")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][3]) == 1.0

    def test_conflicting_labels_rejected(self, capsys):
        code, _, err = run(capsys, "coherent", "--s", "1.75",
                           "--beta", "0.1", "--x", "1.0")
        assert code == 1
        assert "mutually exclusive" in err

    def test_label_outside_disk_rejected(self, capsys):
        code, _, err = run(capsys, "coherent", "--s", "1.75", "--beta", "1.5")
        assert code == 1
        assert "unit disk" in err

    def test_unparseable_label_rejected(self, capsys):
        code, _, _ = run(capsys, "coherent", "--s", "1.75", "--beta", "zz")
        assert code == 1

    def test_label_beyond_float_range_rejected(self, capsys):
        # e^x overflows float64 for x > ~709.8.
        for command in ("coherent", "displace"):
            code, out, err = run(capsys, command, "--s", "1.75",
                                 "--x", "800", "--n", "8")
            assert code == 1, command
            assert out == ""
            assert err.startswith("morsecs: ") and err.count("\n") == 1
            assert "unit disk" in err


class TestWavefunction:
    def test_columns_agree_and_diagnostic_on_stderr(self, capsys):
        code, out, err = run(capsys, "wavefunction", "--s", "1.75",
                             "--beta", "0.3+0.4i", "--n", "400",
                             "--grid", "-2:8:40")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["y", "series_re", "series_im",
                          "closed_re", "closed_im"]
        assert len(rows) == 40
        for r in rows:
            assert abs(float(r[1]) - float(r[3])) < 1e-9
            assert abs(float(r[2]) - float(r[4])) < 1e-9
        assert "max |series - closed|" in err
        assert "max |series - closed|" not in out

    def test_short_series_warns_once(self):
        argv = ("wavefunction", "--s", "200", "--beta", "0.9", "--n", "400",
                "--grid", "-2:8:100")
        result = run_process(*argv)
        assert result.returncode == 0
        warned = [line for line in result.stderr.splitlines()
                  if line.startswith("morsecs: warning:")]
        assert len(warned) == 1 and "tail bound of inf" in warned[0]
        # The warning goes to stderr only; the report is whole.
        header, rows = parse_csv(result.stdout)
        assert header[0] == "y" and len(rows) == 100

    def test_converged_series_does_not_warn(self):
        result = run_process("wavefunction", "--s", "5", "--beta", "0.8",
                             "--n", "200", "--grid", "-2:8:10")
        assert result.returncode == 0
        assert "warning" not in result.stderr

    def test_overflowing_grid_is_one_line_domain_error(self):
        # y = 2 e^{-x} overflows at x = -800; the inf is rejected as a
        # domain error, and no floating-point warning reaches stderr.
        result = run_process("wavefunction", "--s", "1.75", "--beta", "0.2",
                             "--grid", "-800:1:3")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("morsecs: ")
        assert result.stderr.count("\n") == 1, result.stderr

    @pytest.mark.parametrize("argv", [
        ("basis", "--s", "1.75"),
        ("wavefunction", "--s", "1.75", "--beta", "0.3", "--n", "5"),
        ("wavefunction", "--s", "1.75", "--beta", "0.3", "--n", "5",
         "--format", "json")])
    def test_overflowing_grid_span_is_one_line_domain_error(self, argv):
        # Finite endpoints whose span overflows: linspace's max - min was
        # inf, and two NumPy warnings came before the refusal.
        result = run_process(*argv, "--grid", "-1e308:1e308:3")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == (
            "morsecs: --grid span max - min must be finite\n")


class TestResolution:
    def test_deviation_report(self, capsys):
        code, out, _ = run(capsys, "resolution", "--s", "1.75", "--n", "12")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-1] == "max_deviation_from_pi_identity"
        assert len(rows) == 1
        assert float(rows[0][3]) < 1e-10

    # An angular panel of 10^8 columns (4.8 GB at n = 3) and a radial rule
    # of 10^6 points (its eigenvectors alone 8 TB).
    @pytest.mark.skipif(sys.platform != "linux",
                        reason="RLIMIT_AS caps the address space on Linux")
    @pytest.mark.parametrize("sizes", [
        ("--n", "3", "--angular", "100000000", "--quad-points", "2"),
        ("--n", "3", "--quad-points", "1000000"),
    ])
    def test_sizes_beyond_memory_bound_are_one_line_capability_error(
            self, sizes):
        assert_refused_under_cap("resolution", "--s", "1.75", *sizes)


class TestSizeCaps:
    # Each asks for 1.6 to 3.2 GB (a matrix, a grid, a coefficient vector,
    # a Laguerre table of orders x points) unless its size is refused first.
    @pytest.mark.skipif(sys.platform != "linux",
                        reason="RLIMIT_AS caps the address space on Linux")
    @pytest.mark.parametrize("argv", [
        ("ham", "--s", "1.75", "--n", "400000000"),
        ("basis", "--s", "1.75", "--grid", "0:1:400000000"),
        ("coherent", "--s", "1.75", "--beta", "0.3", "--n", "400000000"),
        ("basis", "--s", "1.75", "--n-max", "2000000", "--grid", "0:1:100"),
        ("wavefunction", "--s", "1.75", "--beta", "0.3", "--n", "2000000",
         "--grid", "0:1:100"),
    ])
    def test_sizes_beyond_memory_bound_are_one_line_capability_error(
            self, argv):
        assert_refused_under_cap(*argv)

    @pytest.mark.parametrize("kind", ["bare", "numpy", "write"])
    def test_memory_error_is_one_line_exit_2(self, capsys, monkeypatch, kind):
        # A legal report can still exhaust a host short of memory, while it
        # is built or while it is written out.
        def handler(args):
            if kind == "bare":
                raise MemoryError
            if kind == "numpy":
                np.empty(1 << 58)  # 2 EiB: refused before anything is mapped
            return "index\n0\n", 0

        class FullStream:
            def write(self, text):
                raise MemoryError

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "_cmd_spectrum", handler)
        if kind == "write":
            monkeypatch.setattr(sys, "stdout", FullStream())
        code, out, err = run(capsys, "spectrum", "--s", "3.6")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith("morsecs: Unable to allocate 2.00 EiB "
                              if kind == "numpy" else "morsecs: out of memory")

    def test_grid_bound(self, capsys, monkeypatch):
        # The bound admits exactly _MAX_GRID_POINTS points.
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 4)
        assert run(capsys, "basis", "--s", "1.75", "--grid", "0:1:4")[0] == 0
        code, out, err = run(capsys, "wavefunction", "--s", "1.75",
                             "--beta", "0.3", "--grid", "0:1:5")
        assert (code, out) == (2, "")
        assert err == ("morsecs: grid of 5 points exceeds the supported "
                       "maximum of 4\n")


class TestDisplace:
    # The displacement operator is dense, O(n^2) memory: order 20000 would
    # need more than 10 GB.
    @pytest.mark.skipif(sys.platform != "linux",
                        reason="RLIMIT_AS caps the address space on Linux")
    def test_order_beyond_memory_bound_is_one_line_capability_error(self):
        assert_refused_under_cap("displace", "--s", "1.75", "--x", "0.5",
                                 "--p", "1", "--n", "20000")

    def test_report_values(self, capsys):
        code, out, _ = run(capsys, "displace", "--s", "1.75",
                           "--x", "0.5", "--p", "1.0", "--n", "300")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "unitarity_deviation", "fidelity",
                          "ordering_deviation"]
        assert float(rows[0][1]) < 1e-10
        assert float(rows[0][2]) > 1.0 - 1e-6
        assert float(rows[0][3]) < 1e-8

    def test_report_reads_the_full_pair(self, capsys):
        # The px ordering is formed on its compared leading third only; the
        # report must print the numbers the full pair gives.
        s, n = 1.75, 300
        label = coherent.from_phase_space(coherent.PhaseSpaceLabel(0.5, 1.0),
                                          s)
        d_xp, d_px = coherent.displacement_matrix(
            coherent.to_phase_space(label, s), s, n)
        target = coherent.coefficients(label, s, n).coeffs
        want = [repr(float(np.abs(d_xp.conj().T @ d_xp - np.eye(n)).max())),
                repr(float(abs(np.vdot(target, d_xp[:, 0])))),
                repr(float(np.abs((d_xp - d_px)[:n // 3, :n // 3]).max()))]
        code, out, _ = run(capsys, "displace", "--s", "1.75",
                           "--x", "0.5", "--p", "1", "--n", "300")
        assert code == 0
        assert parse_csv(out)[1] == [["300", *want]]

    def test_truncated_intermediate_state_warns(self, capsys):
        # The xp ordering boosts first: its intermediate state (0, p) has
        # a coefficient tail bound of 15.5 at order 300, and the report
        # reads fidelity 0.19. One warning line; the report is unchanged.
        argv = ("displace", "--s", "0.1", "--x", "3", "--p", "50",
                "--n", "300")
        result = run_process(*argv)
        assert result.returncode == 0
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("morsecs: warning: ")
        assert "1.552e+01" in lines[0] and "raise --n" in lines[0]
        # The last bits depend on the BLAS thread count, which the child
        # shares with this process: the expected line is computed here.
        s = 0.1
        label = coherent.from_phase_space(coherent.PhaseSpaceLabel(3, 50), s)
        with pytest.warns(TruncationWarning):
            unit, d_e0, ordering = coherent.displacement_check(
                coherent.to_phase_space(label, s), s, 300)
        fidelity = float(abs(np.vdot(
            coherent.coefficients(label, s, 300).coeffs, d_e0)))
        assert round(fidelity, 2) == 0.19 and abs(fidelity - 0.1903) < 1e-4
        assert result.stdout == (
            "n,unitarity_deviation,fidelity,ordering_deviation\n"
            f"300,{unit!r},{fidelity!r},{ordering!r}\n")
        # A small boost is silent at the same order.
        assert run_process("displace", "--s", "1.75", "--x", "0.5", "--p",
                           "1", "--n", "300").stderr == ""

    def test_order_two_is_one_line_domain_error(self):
        # n // 3 = 0 leaves no block to compare the orderings on.
        result = run_process("displace", "--s", "1.75", "--x", "0.5",
                             "--p", "1", "--n", "2")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("morsecs: ")
        assert result.stderr.count("\n") == 1, result.stderr
        assert "n_dim >= 3" in result.stderr


class TestVerify:
    def test_text_report_and_exit(self, capsys):
        code, out, _ = run(capsys, "verify", "--quick")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert len(lines) >= 15
        assert all(ln.startswith("PASS") for ln in lines)
        assert "residual=" in lines[0] and "tolerance=" in lines[0]

    def test_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "verify", "--quick")
        _, out2, _ = run(capsys, "verify", "--quick")
        assert out1 == out2

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "verify", "--quick", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"] == {"command": "verify", "quick": True}
        assert len(doc["data"]) >= 15
        for item in doc["data"]:
            assert set(item) == {"property", "residual", "tolerance", "pass"}
            assert math.isfinite(item["residual"])
        assert "NaN" not in out and "Infinity" not in out

    def test_csv_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--quick", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["property", "residual", "tolerance", "pass"]
        assert all(r[3] in ("true", "false") for r in rows)


class TestTables:
    def test_python_scalars_format_like_numpy_scalars(self):
        header = ["index", "value", "flag", "name", "blank"]
        values = np.array([0.1, -0.0, 1.0 / 3.0, 5e-324, 1e-300, 2.5e300,
                           np.inf, -np.inf, 123456789.125, -7.0])
        np_rows = [[np.int64(k), v, k % 3 == 0, "a,b", ""]
                   for k, v in enumerate(values)]
        flags = [k % 3 == 0 for k in range(values.size)]
        names, blanks = ["a,b"] * values.size, [""] * values.size
        # Floats reach the writer as float64 arrays; the other columns are
        # cells of Python or NumPy integers, bools and strings.
        np_cols = [list(np.arange(values.size)), values, flags, names, blanks]
        py_cols = [list(range(values.size)), values, flags, names, blanks]
        expected = numpy_scalar_table(header, np_rows)
        assert _csv_table(header, py_cols) == expected
        assert _csv_table(header, np_cols) == expected
        # The JSON writer on the finite rows, against json.dumps of dicts.
        keep = np.flatnonzero(np.isfinite(values)).tolist()
        py_rows = [[k, values[k].item(), flags[k], names[k], blanks[k]]
                   for k in keep]
        expected = json_dumps_table(CONFIG, header, py_rows)
        for cols in (py_cols, np_cols):
            kept = [col[keep] if isinstance(col, np.ndarray)
                    else [col[k] for k in keep] for col in cols]
            assert _json_table(CONFIG, header, kept) == expected

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_columns_match_csv_writer(self, data):
        n_rows = data.draw(st.integers(0, 12))
        specials = [np.float64(v).view(np.uint64).item() for v in
                    (-0.0, 5e-324, -2.2250738585072e-308, np.inf, -np.inf,
                     np.nan)]
        bits = st.one_of(st.integers(0, 2 ** 64 - 1), st.sampled_from(specials))
        floats = st.lists(bits, min_size=n_rows, max_size=n_rows).map(
            lambda b: np.array(b, dtype=np.uint64).view(np.float64))
        ints = st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=n_rows,
                        max_size=n_rows)
        bools = st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)
        # Quotes, backslashes, control characters and non-ASCII text, in
        # the cells and in the header.
        chars = st.sampled_from(
            'ab ,"\\%{}\r\n\t\x00\x1f\x7f\x85\xe9\u2028\U0001f600')
        texts = st.lists(st.one_of(st.just(""), st.just('""'), st.text(
            alphabet=chars, max_size=6)), min_size=n_rows, max_size=n_rows)
        columns = data.draw(st.lists(st.one_of(floats, ints, bools, texts),
                                     min_size=2, max_size=5))
        # Repeated names included: the CSV writer takes any header.
        header = data.draw(st.lists(
            st.one_of(st.sampled_from(["y", "a,b", 'q"', "c\rd", "%s", "%",
                                       "\\", "{", "phi\u2080"]),
                      st.text(alphabet=chars, max_size=4)),
            min_size=len(columns), max_size=len(columns)))
        rows = [list(row) for row in zip(*columns)]
        assert _csv_table(header, columns) == numpy_scalar_table(header, rows)
        # The JSON writer on the same table, with the non-finite cells of
        # each float column replaced: a report never holds one. The
        # reference keys a dict by name, so repeated names get a suffix
        # (no drawn name holds a digit).
        if len(set(header)) < len(header):
            header = [f"{name}{k}" for k, name in enumerate(header)]
        columns = [np.nan_to_num(col, posinf=1.5, neginf=-2.5)
                   if isinstance(col, np.ndarray) else col for col in columns]
        rows = [[v.item() if isinstance(v, np.float64) else v for v in row]
                for row in zip(*columns)]
        assert (_json_table(CONFIG, header, columns)
                == json_dumps_table(CONFIG, header, rows))

    def test_float_columns_spell_every_cell_as_repr(self):
        # Seeded bit patterns (subnormals, non-finite and every binade),
        # the edges of repr's positional range [1e-4, 1e16) and of the
        # decade 1e-5 <= |v| < 1e-4, and exponents e-05 to e-10 and e+16
        # to e+308 with their neighbours, both signs.
        rng = np.random.default_rng(16)
        bits = rng.integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
        exponents = [*range(-10, -4), *range(16, 309)]
        powers = np.array([float(f"{m}e{k}") for k in exponents
                           for m in ("1", "2.5")])
        edges = np.concatenate([
            [0.0, 5e-324, np.finfo(float).max, np.inf, np.nan, 1e-5,
             np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e16, 0.0), 1e16],
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            rng.uniform(1e-5, 1e-4, 1000)])
        col = np.concatenate([bits.view(np.float64), edges, -edges])
        lines = _csv_table(["v"], [col]).split("\n")
        assert lines[0] == "v" and lines[-1] == ""
        assert lines[1:-1] == list(map(float.__repr__, col.tolist()))
        finite = col[np.isfinite(col)]
        assert _json_table({}, ["v"], [finite]) == json_dumps_table(
            {}, ["v"], [[v] for v in finite.tolist()])
        # One-cell columns, so that a column holding no cell orjson spells
        # 0.0000... or null takes the path without the repr mask.
        signed = np.concatenate([edges, -edges]).tolist()
        assert [_csv_table(["v"], [np.array([v])]) for v in signed] == [
            f"v\n{v!r}\n" for v in signed]
        assert _csv_table(["v", "w"], [np.array([]), np.array([])]) == "v,w\n"
        assert _json_table(CONFIG, ["v", "w"], [np.array([]), []]) == (
            json_dumps_table(CONFIG, ["v", "w"], []))

    @pytest.mark.parametrize("argv", [
        ("coherent", "--s", "1.75", "--beta", "0.3+0.4i", "--n", "65536"),
        ("basis", "--s", "1.75", "--n-max", "3", "--grid", "0:1:65536"),
    ])
    def test_json_report_peak_is_near_csv(self, tmp_path, argv):
        # The JSON rows are spliced from the CSV's cell strings, so the
        # JSON report holds no per-row dict or float object beyond them.
        def peak(fmt):
            tracemalloc.start()
            try:
                code = main([*argv, "--format", fmt,
                             "--out", str(tmp_path / fmt)])
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        main(["spectrum", "--s", "3.6", "--out", str(tmp_path / "warm")])
        (csv_code, csv_peak), (json_code, json_peak) = peak("csv"), peak("json")
        assert (csv_code, json_code) == (0, 0)
        assert json_peak <= 1.5 * csv_peak, (json_peak, csv_peak)

    def test_basis_table_bytes(self, capsys):
        _, out, _ = run(capsys, "basis", "--s", "2.3", "--n-max", "20",
                        "--grid", "-1.5:9:1900")
        y = morse_core.y_from_x(np.linspace(-1.5, 9.0, 1900))
        cols = [morse_core.pseudo_wavefunction(n, 2.3, y) for n in range(21)]
        rows = [[y[i]] + [c[i] for c in cols] for i in range(1900)]
        header = ["y"] + [f"phi{n}" for n in range(21)]
        assert out == numpy_scalar_table(header, rows)

    @pytest.mark.parametrize("beta,n", [
        (0.9 + 0.3j, 2000), (0j, 5), (0.3 + 0.4j, 64), (-0.999 - 0.01j, 700),
        (1e-200j, 3)])
    def test_coherent_table_bytes(self, capsys, beta, n):
        _, out, _ = run(capsys, "coherent", "--s", "1.75",
                        "--beta", repr(beta), "--n", str(n))
        c = coherent.coefficients(beta, 1.75, n).coeffs
        rows = [[k, c[k].real, c[k].imag, abs(c[k])] for k in range(n)]
        assert out == numpy_scalar_table(["n", "real", "imag", "abs"], rows)
        # The abs column is the scalar abs of each coefficient, to the bit.
        _, table = parse_csv(out)
        got = np.array([float(r[3]) for r in table])
        want = np.array([abs(v) for v in c.tolist()])
        assert got.tobytes() == want.tobytes()


class TestFloatColumns:
    def test_every_float_reaches_the_writer_in_a_float64_array(
            self, capsys, monkeypatch):
        # The writer spells floats, and tests them for finiteness, only as
        # float64 arrays; a float cell in any other column would bypass both.
        seen = {}
        table_output = cli._table_output

        def recording(args, config, header, columns, data=None):
            seen[args.command] = columns
            return table_output(args, config, header, columns, data)

        monkeypatch.setattr(cli, "_table_output", recording)
        for argv in (
                ("basis", "--s", "1.75", "--n-max", "3", "--grid", "0:4:5"),
                ("ham", "--s", "3.6", "--n", "2"),
                ("spectrum", "--s", "3.6"),
                ("coherent", "--s", "1.75", "--beta", "0.3+0.4i", "--n", "8"),
                ("wavefunction", "--s", "1.75", "--beta", "0.3", "--n", "60",
                 "--grid", "0:4:5"),
                ("resolution", "--s", "1.75", "--n", "4"),
                ("displace", "--s", "1.75", "--x", "0.5", "--p", "1",
                 "--n", "30"),
                ("verify", "--quick", "--format", "csv")):
            assert run(capsys, *argv)[0] == 0, argv
        assert sorted(seen) == sorted((
            "basis", "ham", "spectrum", "coherent", "wavefunction",
            "resolution", "displace", "verify"))
        for command, columns in seen.items():
            for col in columns:
                if isinstance(col, np.ndarray) and col.dtype == np.float64:
                    continue
                assert not any(isinstance(v, (float, np.floating))
                               for v in col), (command, col)


class TestNonFiniteCells:
    # L_n(y) overflows at y ~ 3600 (x = -7.5) while the envelope
    # underflows, so these cells are nan until a scaled recurrence lands.
    @pytest.mark.parametrize("argv,column", [
        (("basis", "--s", "1.75", "--n-max", "250",
          "--grid", "-7.5:-7.4:2"), "phi"),
        (("basis", "--s", "1.75", "--n-max", "250",
          "--grid", "-7.5:-7.4:2", "--format", "json"), "phi"),
        (("wavefunction", "--s", "1.75", "--beta", "0.3", "--n", "400",
          "--grid", "-7.5:-6:4"), "series_re"),
    ])
    def test_exit_2_with_one_line_naming_the_column(self, argv, column):
        result = run_process(*argv)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        last = result.stderr.splitlines()[-1]
        assert last.startswith(f"morsecs: column {column}"), result.stderr
        assert "non-finite" in last


class TestParsing:
    def test_unknown_command_exits_1(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_required_exits_1(self, capsys):
        assert run(capsys, "basis", "--grid", "0:1:4")[0] == 1

    def test_nonpositive_s_is_domain_error(self, capsys):
        code, _, err = run(capsys, "coherent", "--s", "-1.0", "--beta", "0")
        assert code == 1
        assert "positive" in err

    def test_json_tables_parse_everywhere(self, capsys):
        cases = [
            ("basis", "--s", "1.0", "--n-max", "1", "--grid", "0:4:6"),
            ("spectrum", "--s", "3.6"),
            ("coherent", "--s", "1.0", "--beta", "0.2"),
            ("wavefunction", "--s", "1.0", "--beta", "0.2",
             "--grid", "0:4:6", "--n", "50"),
            ("resolution", "--s", "1.75", "--n", "6"),
            ("displace", "--s", "1.75", "--x", "0.1", "--p", "0.2",
             "--n", "60"),
        ]
        for case in cases:
            code, out, _ = run(capsys, *case, "--format", "json")
            assert code == 0, case
            doc = json.loads(out)
            assert "config" in doc and "data" in doc
            assert "NaN" not in out and "Infinity" not in out


def run_captured(argv):
    """main(argv) with stdout and stderr captured, for tests that run many
    argvs in one process (hypothesis examples among them)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestParserReuse:
    def test_main_builds_its_parser_once(self, capsys, monkeypatch, tmp_path):
        calls = []
        build_parser = cli.build_parser

        def counting_build_parser():
            calls.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        codes = [run(capsys, *argv)[0] for argv in (
            ("spectrum", "--s", "3.6"),
            ("ham", "--s", "1.75", "--n", "4", "--format", "json"),
            ("nosuch",),
            ("coherent", "--s", "1.75", "--beta", "0.3", "--n", "4",
             "--out", str(tmp_path / "c.csv")),
            ("basis", "--s", "1.0", "--grid", "0:1:4"),
        )]
        assert codes == [0, 0, 1, 0, 0]
        assert len(calls) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_no_state_leaks_between_calls(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_parser", None)
        report = tmp_path / "c.json"
        assert run_captured(("coherent", "--s", "1.75", "--beta", "0.3+0.4i",
                             "--n", "5", "--format", "json",
                             "--out", str(report)))[:2] == (0, "")
        assert json.loads(report.read_text())["config"]["n"] == 5
        assert run_captured(("coherent", "--s", "1.75", "--n", "x"))[0] == 1
        reused = run_captured(("coherent", "--s", "1.75", "--beta", "0.3+0.4i"))
        monkeypatch.setattr(cli, "_parser", None)
        fresh = run_captured(("coherent", "--s", "1.75", "--beta", "0.3+0.4i"))
        assert reused == fresh
        code, out, _ = reused
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "real", "imag", "abs"]
        assert len(rows) == 32


_COMMANDS_WITH_S = ("basis", "ham", "spectrum", "coherent", "wavefunction",
                    "resolution", "displace")
# Option names no command has, and none is a prefix of (argparse accepts
# unambiguous prefixes of long options); some hold line breaks.
_unknown_option = st.tuples(
    st.just("--zz"), st.lists(st.sampled_from(
        tuple("abcdefghijklmnopqrstuvwxyz") + LINE_BREAKS), max_size=6)).map(
    lambda c: c[0] + "".join(c[1]))


def _not_a_number(parse):
    def fails(text):
        try:
            parse(text)
        except ValueError:
            return True
        return False
    return st.text(st.characters(min_codepoint=33, max_codepoint=126),
                   min_size=1, max_size=8).filter(
        lambda t: not t.startswith("-") and fails(t))


_bad_argv = st.one_of(
    st.tuples(st.sampled_from(_COMMANDS_WITH_S), _unknown_option).map(
        lambda c: [c[0], "--s", "1.75", c[1]]),
    st.tuples(st.sampled_from(_COMMANDS_WITH_S), st.booleans()).map(
        lambda c: [c[0], "--format", "json"] if c[1] else [c[0]]),
    st.tuples(st.sampled_from(_COMMANDS_WITH_S), _not_a_number(float)).map(
        lambda c: [c[0], "--s", c[1]]),
    st.tuples(st.sampled_from(("ham", "coherent", "resolution", "displace")),
              _not_a_number(int)).map(
        lambda c: [c[0], "--s", "1.75", "--n", c[1]]),
    st.tuples(st.sampled_from(_COMMANDS_WITH_S + ("verify",)),
              st.from_regex(r"[a-z]{1,6}", fullmatch=True).filter(
                  lambda f: f not in ("csv", "json", "text"))).map(
        lambda c: [c[0]] + (["--s", "1.75"] if c[0] != "verify" else [])
        + ["--format", c[1]]),
    st.tuples(st.sampled_from(("coherent", "displace")),
              st.sampled_from(("--x", "--p"))).map(
        lambda c: [c[0], "--s", "1.75", "--beta", "0.3", c[1], "1",
                   "--n", "30"]),
)


class TestBadArguments:
    @settings(max_examples=60, deadline=None)
    @given(argv=_bad_argv)
    def test_exit_1_with_one_line_the_same_every_time(self, argv):
        first = run_captured(argv)
        code, out, err = first
        assert code == 1, argv
        assert out == ""
        assert err.splitlines() == [err[:-1]] and err.endswith("\n"), err
        assert "Traceback" not in err
        assert run_captured(argv) == first

    @pytest.mark.parametrize("brk", LINE_BREAKS)
    def test_line_breaks_in_an_argument_are_escaped(self, brk):
        shown = repr(brk)[1:-1]
        assert run_captured(("spectrum", "--s", "1.75", f"--zz{brk}q{brk}")
                            ) == (1, "", "morsecs: error: unrecognized "
                                  f"arguments: --zz{shown}q{shown}\n")
