"""Command-line interface.

Output discipline: the report requested by the user goes to stdout (or the
--out file) and nothing else does; diagnostics, and warnings as one line
each, go to stderr. All floats are rendered with repr, so a rerun with the
same arguments produces byte-identical output.

Exit codes: 0 success, 1 argument or domain validation error, 2 numerical
failure (non-finite result, failed self-check, beyond a supported size or
out of memory).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
import warnings

import numpy as np
import orjson

from . import __version__, coherent, morse_core, operators, verify
from .errors import (CapabilityError, ConsistencyError, DomainError,
                     TruncationWarning)


# repr's spelling of every character str.splitlines breaks a line at, so
# that a message echoing user text stays one line.
_ONE_LINE = str.maketrans({c: repr(c)[1:-1] for c in
                           "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"})


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; this interface
    # reserves 2 for numerical failures, so remap to 1. The message stays
    # one line: line breaks copied from raw arguments are escaped as in repr.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message.translate(_ONE_LINE)}\n")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Let values like "-2:8:5" (grids with negative minima) pass as
        # option arguments; no option name here starts with a digit.
        self._negative_number_matcher = re.compile(r"^-\d")


def _parse_complex(text: str) -> complex:
    """Accept 'a+bi' as well as Python's 'a+bj' notation."""
    try:
        return complex(text.strip().replace("i", "j").replace("I", "j"))
    except ValueError:
        raise DomainError(f"cannot parse complex number from {text!r}")


# Most grid points, 2 MiB per float64 column at the cap.
_MAX_GRID_POINTS = 1 << 18


def _parse_grid(text: str) -> tuple[list, np.ndarray]:
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError("--grid expects min:max:count")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(f"cannot parse grid from {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo or count < 2:
        raise DomainError("--grid needs finite min < max and count >= 2")
    if not math.isfinite(hi - lo):
        raise DomainError("--grid span max - min must be finite")
    if count > _MAX_GRID_POINTS:
        raise CapabilityError(
            f"grid of {count} points exceeds the supported maximum "
            f"of {_MAX_GRID_POINTS}")
    return [lo, hi, count], morse_core.y_from_x(np.linspace(lo, hi, count))


def _resolve_label(args, s: float) -> coherent.CoherentLabel:
    has_ps = args.x is not None or args.p is not None
    if args.beta is not None and has_ps:
        raise DomainError("--beta and --x/--p are mutually exclusive")
    if args.beta is not None:
        return coherent.CoherentLabel(_parse_complex(args.beta))
    ps = coherent.PhaseSpaceLabel(args.x if args.x is not None else 0.0,
                                  args.p if args.p is not None else 0.0)
    return coherent.from_phase_space(ps, s)


def _is_float_array(col) -> bool:
    return isinstance(col, np.ndarray) and col.dtype == np.float64


def _float_cells(col) -> list:
    """float.__repr__ of every cell of a float64 array, in one pass.

    orjson spells each value by the same shortest round-trip rule as repr.
    Its text differs in the exponent, which is mended here, and in two
    kinds of cell, which keep repr: 1e-5 <= |v| < 1e-4, which orjson writes
    positionally (0.000015), and the non-finite values it writes as null.
    """
    if not col.size:
        return []
    text = orjson.dumps(np.ascontiguousarray(col),
                        option=orjson.OPT_SERIALIZE_NUMPY).decode()
    # Every "e" is an exponent, so each piece after the first starts with
    # one and runs to the next: repr signs it (1e16 -> 1e+16) and pads a
    # negative one to two digits (2.5e-7 -> 2.5e-07).
    head, *tails = text[1:-1].split("e")
    cells = "e".join([head] + [
        "+" + t if t[0] != "-"
        else "-0" + t[1:] if len(t) == 2 or t[2] == "," else t
        for t in tails]).split(",")
    if "0.0000" not in text and "null" not in text:
        return cells
    size = np.abs(col)
    kept = np.flatnonzero(((size >= 1e-5) & (size < 1e-4)) | ~np.isfinite(col))
    for i, value in zip(kept.tolist(), col[kept].tolist()):
        cells[i] = float.__repr__(value)
    return cells


def _csv_field(text: str) -> str:
    # Minimal quoting, as the csv module's writer does with a "\n" line
    # terminator: only a comma, a quote or a newline needs quotes.
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(col, quote) -> list:
    """A column's cells in either format: float64 arrays in one pass (reprs
    need no quotes), ints by str, bools as true or false, texts by `quote`."""
    if _is_float_array(col):
        return _float_cells(col)
    return [quote(v) if isinstance(v, str)
            else ("true" if v else "false") if isinstance(v, bool)
            else str(v) for v in col]


def _csv_table(header, columns) -> str:
    """CSV of columns under a header, one line per row, blank-padded."""
    head = ",".join(map(_csv_field, header))
    rows = itertools.zip_longest(*[_cells(col, _csv_field) for col in columns],
                                 fillvalue="")
    return "\n".join(itertools.chain([head], map(",".join, rows))) + "\n"


def _json_table(config, header, columns) -> str:
    """json.dumps({"config": config, "data": [dict(zip(header, row)), ...]},
    indent=2) + "\n" from the CSV's cells: json spells a float by its repr."""
    head, tail = json.dumps({"config": config, "data": None}, indent=2,
                            allow_nan=False).rsplit("null", 1)
    keys = (json.dumps(name).replace("%", "%%") for name in header)
    row = "\n    {\n" + ",\n".join(f"      {k}: %s" for k in keys) + "\n    }"
    # A list, so that the cells are let go before the rows are joined.
    rows = ",".join(list(map(row.__mod__, zip(*[_cells(col, json.dumps)
                                                for col in columns]))))
    return f"{head}[{rows}\n  ]{tail}\n" if rows else f"{head}[]{tail}\n"


def _table_output(args, config, header, columns, data=None) -> str:
    """The report of named columns (floats in float64 arrays, other cells
    int, bool or str) in the requested format. A non-finite cell fails the
    command in either format. The JSON config opens with the command's
    name; `data`, when given, replaces the JSON rows."""
    for name, col in zip(header, columns):
        if _is_float_array(col) and not np.isfinite(col).all():
            raise CapabilityError(
                f"column {name} holds a non-finite value: the evaluation "
                "left float range")
    if args.format == "csv":
        return _csv_table(header, columns)
    config = {"command": args.command, **config}
    if data is None:
        return _json_table(config, header, columns)
    return json.dumps({"config": config, "data": data}, indent=2,
                      allow_nan=False) + "\n"


def _cmd_basis(args):
    s = args.s
    grid, y = _parse_grid(args.grid)
    if args.n_max < 0:
        raise DomainError("--n-max must be >= 0")
    # The table's size is checked before the header is built.
    columns = [y, *morse_core.pseudo_wavefunctions(args.n_max, s, y)]
    header = ["y"] + [f"phi{n}" for n in range(args.n_max + 1)]
    config = {"s": s, "n_max": args.n_max, "grid": grid}
    return _table_output(args, config, header, columns), 0


def _cmd_ham(args):
    s = args.s
    h = operators.matrix_H(s, args.n)
    config = {"s": s, "n": args.n}
    header = ["index", "diagonal", "super_diagonal"]
    columns = [range(args.n), h.diag, h.offdiag]
    data = {"diagonal": h.diag.tolist(), "super_diagonal": h.offdiag.tolist()}
    return _table_output(args, config, header, columns, data), 0


def _cmd_spectrum(args):
    s = args.s
    levels = operators.bound_spectrum(s)
    count = len(levels)
    threshold = morse_core.continuum_threshold(s)
    formulas = np.array([morse_core.bound_energy(k, s) for k in range(count)])
    print("bound levels from level-adapted tridiagonal blocks at sigma = s - n",
          file=sys.stderr)
    header = ["index", "ritz_value", "formula_value", "abs_diff", "threshold"]
    columns = [range(count), levels, formulas, np.abs(levels - formulas),
               np.full(count, threshold)]
    config = {"s": s, "n_levels": count}
    return _table_output(args, config, header, columns), 0


def _cmd_coherent(args):
    s, n = args.s, args.n
    label = _resolve_label(args, s)
    state = coherent.coefficients(label, s, n)
    c = state.coeffs
    header = ["n", "real", "imag", "abs"]
    # np.hypot of the parts, as Python's abs of each complex, not np.abs
    # of the array: the latter differs in the last bit for some coefficients.
    columns = [range(n), c.real, c.imag, np.hypot(c.real, c.imag)]
    config = {"s": s, "n": n,
              "beta_re": label.beta.real, "beta_im": label.beta.imag}
    return _table_output(args, config, header, columns), 0


def _cmd_wavefunction(args):
    s, n = args.s, args.n
    label = _resolve_label(args, s)
    grid, y = _parse_grid(args.grid)
    tail = coherent.coefficient_tail_bound(label, s, n)
    if tail > 1e-12:
        warnings.warn(
            f"the series of {n} terms leaves a coefficient tail bound of "
            f"{tail:.3e} (above 1e-12); raise --n", TruncationWarning)
    ser = coherent.wavefunction_series(label, s, y, n)
    clo = coherent.wavefunction_closed(label, s, y)
    dev = float(np.abs(ser - clo).max())
    print(f"max |series - closed| = {dev!r}", file=sys.stderr)
    header = ["y", "series_re", "series_im", "closed_re", "closed_im"]
    columns = [y, ser.real, ser.imag, clo.real, clo.imag]
    config = {"s": s, "n_terms": n, "beta_re": label.beta.real,
              "beta_im": label.beta.imag, "grid": grid}
    return _table_output(args, config, header, columns), 0


def _cmd_resolution(args):
    s = args.s
    m = args.n
    out = coherent.resolution_of_unity(s, m, n_radial=args.quad_points,
                                       n_angular=args.angular)
    dev = np.abs(out - math.pi * np.eye(m)).max()
    header = ["m_basis", "n_radial", "n_angular", "max_deviation_from_pi_identity"]
    columns = [[m], [args.quad_points], [args.angular], np.array([dev])]
    config = {"s": s, "m_basis": m, "n_radial": args.quad_points,
              "n_angular": args.angular}
    return _table_output(args, config, header, columns), 0


def _cmd_displace(args):
    s = args.s
    label = _resolve_label(args, s)
    ps = coherent.to_phase_space(label, s)
    unit, d_e0, ordering_dev = coherent.displacement_check(ps, s, args.n)
    target = coherent.coefficients(label, s, args.n).coeffs
    fidelity = np.array([abs(np.vdot(target, d_e0))])
    header = ["n", "unitarity_deviation", "fidelity", "ordering_deviation"]
    columns = [[args.n], np.array([unit]), fidelity, np.array([ordering_dev])]
    config = {"s": s, "n": args.n, "x_tilde": ps.x_tilde,
              "p_tilde": ps.p_tilde}
    return _table_output(args, config, header, columns), 0


def _cmd_verify(args):
    results = verify.run_checks(quick=args.quick)
    code = 0 if all(r.passed for r in results) else 2
    if args.format == "text":
        return verify.format_text(results), code
    config = {"quick": args.quick}
    header = ["property", "residual", "tolerance", "pass"]
    columns = [[r.name for r in results],
               np.array([r.residual for r in results]),
               np.array([r.tolerance for r in results]),
               [r.passed for r in results]]
    return _table_output(args, config, header, columns), code


def _add_label(p):
    p.add_argument("--beta", metavar="A+BI",
                   help="disk label, e.g. 0.3+0.4i (also accepts 0.3+0.4j)")
    p.add_argument("--x", type=float, help="phase-space position label")
    p.add_argument("--p", type=float, help="phase-space momentum label")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="morsecs",
                     description="Pseudo-number basis, coherent states and "
                                 "displacement operators for the Morse well.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    models = []

    def model(name, handler, summary):
        # A command on a well of shape s, reported as csv or json.
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--s", type=float, required=True, help="shape parameter")
        models.append(p)
        return p

    p = model("basis", _cmd_basis, "tabulate basis functions on a grid")
    p.add_argument("--n-max", type=int, default=4,
                   help="highest basis index to tabulate (default 4)")
    p.add_argument("--grid", required=True, metavar="MIN:MAX:COUNT",
                   help="uniform grid in the physical coordinate x; the "
                        "first output column is y = 2 exp(-x)")

    p = model("ham", _cmd_ham, "dump the tridiagonal Hamiltonian block")
    p.add_argument("--n", type=int, default=10, help="block order (default 10)")

    model("spectrum", _cmd_spectrum, "bound energies from level-adapted blocks")

    p = model("coherent", _cmd_coherent, "coefficient table of one state")
    p.add_argument("--n", type=int, default=32,
                   help="number of coefficients (default 32)")
    _add_label(p)

    p = model("wavefunction", _cmd_wavefunction,
              "series and closed wavefunction side by side")
    p.add_argument("--n", type=int, default=400,
                   help="series terms (default 400)")
    p.add_argument("--grid", required=True, metavar="MIN:MAX:COUNT",
                   help="uniform grid in the physical coordinate x")
    _add_label(p)

    p = model("resolution", _cmd_resolution,
              "disk resolution of unity deviation report")
    p.add_argument("--n", type=int, default=12,
                   help="basis block size (default 12)")
    p.add_argument("--quad-points", type=int, default=200,
                   help="radial quadrature points (default 200)")
    p.add_argument("--angular", type=int, default=64,
                   help="angular quadrature points (default 64)")

    p = model("displace", _cmd_displace,
              "unitarity and fidelity of the displacement")
    p.add_argument("--n", type=int, default=300,
                   help="truncation order (default 300)")
    _add_label(p)

    verify_p = sub.add_parser("verify", help="run the deterministic self-checks")
    verify_p.set_defaults(handler=_cmd_verify)
    verify_p.add_argument("--quick", action="store_true",
                          help="smaller sizes, same properties")
    verify_p.add_argument("--format", choices=["text", "csv", "json"],
                          default="text", help="output format (default text)")

    # The report options come last in every command's help screen.
    for p in models:
        p.add_argument("--format", choices=["csv", "json"], default="csv",
                       help="output format (default csv)")
    for p in [*models, verify_p]:
        p.add_argument("--out", metavar="FILE",
                       help="write the report to FILE instead of stdout")
    return parser


# The parser main uses, built on its first call. Parsing leaves a parser
# unchanged (defaults go into a new namespace each time), so every later
# call in the process reuses it.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:  # argparse help/usage paths
        return exc.code if isinstance(exc.code, int) else 1
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(
            f"morsecs: warning: {message}", file=sys.stderr)
        # Writing can run out of memory too, so it stays inside this try.
        try:
            body, code = args.handler(args)
            if not args.out:
                sys.stdout.write(body)
                return code
            try:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    fh.write(body)
            except OSError as exc:
                print(f"morsecs: cannot write {args.out.translate(_ONE_LINE)}: "
                      f"{exc.strerror}", file=sys.stderr)
                return 1
        except DomainError as exc:
            print(f"morsecs: {exc}", file=sys.stderr)
            return 1
        except (ConsistencyError, CapabilityError, MemoryError) as exc:
            print(f"morsecs: {str(exc) or 'out of memory'}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
