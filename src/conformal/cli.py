"""Command-line front end: surface specs in, CSV/JSON artifacts out.

Output is deterministic: fixed row order, floats rendered with %.12g,
masked values as empty CSV fields; JSON reports embed the tool version and
the fully resolved configuration.  The ``cycl`` group is the one error
boundary of its commands: tool errors exit with code 3 and configuration
errors with code 2, each with a machine-readable JSON error record on
stderr.
"""
from __future__ import annotations

import json
import math
import sys
import warnings
from json.encoder import encode_basestring_ascii

import click
import numpy as np

from . import __version__
from .errors import (CanalPoint, DegenerateDenominator, DupinPoint,
                     ToolkitError, UmbilicPoint)
from .catalog import (CatalogEntry, make_canonical, make_graph, make_helcat,
                      make_sphere, make_torus, make_tube)
from .intersect import trace_cyclide_intersection
from .invariants import invariant_sample, psi_from_thetas
from .linefields import (darboux_critical_points, dupin_angle,
                         integrate_darboux_line, integrate_dupin_line)
from .osculation import (osculating_cyclide, osculating_psi_c,
                         verify_contact_order)

_TABLE_ROWS = [
    ("0", 0.0, (1.5, 1.5, 1.5)),
    ("pi/100", np.pi/100, (1.54, 1.79, 3.18)),
    ("pi/7.384663", np.pi/7.384663, (2.0, 5.12, 31.7)),
    ("pi/6", np.pi/6, (2.07, 5.84, 37.96)),
    ("pi/4", np.pi/4, (2.17, 7.44, 52.34)),
    ("pi/3", np.pi/3, (2.12, 8.44, 62.33)),
    ("pi/2.25", np.pi/2.25, (1.82, 8.6, 66.32)),
    ("pi/2.1", np.pi/2.1, (1.68, 8.29, 64.62)),
    ("pi/2.01", np.pi/2.01, (1.53, 1.79, 61.68)),
]
# Two published cells are misprints of the closed-form psi_c (the make_helcat
# oracle): pi/2.01, s=1 repeats the pi/100, s=1 value, and pi/100, s=2 prints
# 3.18 for 3.81.  Only the first is flagged, since its printed value belongs
# to another cell; the second is its own cell's value with two digits
# transposed, so the plain discrepancy note and its gap describe it, and the
# table's output format (one flagged cell) is unchanged.
_FLAGGED_CELL = ("pi/2.01", 1)
# largest |psi_invariant - psi_from_thetas| that `verify` reports as ok
_TOL_XCHECK = 1e-2


# --------------------------------------------------------------------------
# formatting helpers
# --------------------------------------------------------------------------
def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and not np.isfinite(x):
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.12g" % float(x)
    return str(x)


# the cell types a column is formatted whole for, and the %.12g text of a
# non-finite float (a masked numeric cell is formatted as nan)
_FLOATS = {float, np.float64, type(None)}
_NUMBERS = _FLOATS | {int, np.int64}
_TEXT = {str, bool, np.bool_}
_BLANK = dict.fromkeys(("nan", "inf", "-inf"), "")
_NULL = dict.fromkeys(("nan", "inf", "-inf"), "null")


def _token(x) -> str:
    """The JSON text of one cell: null where :func:`_fmt` leaves it empty, a
    number re-parsed from %.12g, else the string :func:`_fmt` gives."""
    c = _fmt(x)
    if c == "":
        return "null"
    return json.dumps(float("%.12g" % x) if _is_number(x) else c)


def _column(col, fmt):
    """Each cell of one column as :func:`_fmt` (csv) or :func:`_token`
    (json) writes it.  A column of floats and None (in json, ints too) is
    formatted by one %.12g call, json strings by the C string encoder."""
    kinds = set(map(type, col))
    if kinds <= (_FLOATS if fmt == "csv" else _NUMBERS):
        if type(None) in kinds:
            col = [np.nan if x is None else x for x in col]
        text = ("%.12g," * len(col) % tuple(col))[:-1].split(",")
        if fmt == "csv":
            return list(map(_BLANK.get, text, text))
        return list(map(_NULL.get, text, map(repr, map(float, text))))
    if fmt == "csv":
        return list(map(_fmt, col))
    if kinds <= _TEXT:
        text = list(map(_fmt, col))
        return list(map({"": "null"}.get, text,
                        map(encode_basestring_ascii, text)))
    return list(map(_token, col))


def _emit(rows, header, out, fmt, meta):
    """Write ``rows`` under ``header`` as CSV or as a JSON report, a column
    at a time; the JSON layout is ``json.dumps(..., indent=1,
    sort_keys=True)`` of the report, with the rows assembled here."""
    cells = zip(*[_column(c, fmt) for c in zip(*rows, strict=True)])
    if fmt == "csv":
        text = "\n".join([",".join(header), *map(",".join, cells)]) + "\n"
    else:
        body = ",\n  ".join(map("[\n   {}\n  ]".format,
                                map(",\n   ".join, cells)))
        text = json.dumps({"version": __version__, "config": meta,
                           "header": list(header), "rows": None},
                          indent=1, sort_keys=True).replace(
            '\n "rows": null',
            '\n "rows": ' + (f"[\n  {body}\n ]" if rows else "[]"), 1) + "\n"
    _write(text, out)


def _write(text, out):
    """Write ``text`` to the file ``out``, or to stdout when it is None."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _is_number(x):
    return isinstance(x, (int, float, np.integer, np.floating)) \
        and not isinstance(x, (bool, np.bool_))


def _fail(exc: Exception, code: int):
    rec = {"error": type(exc).__name__, "message": str(exc)}
    click.echo(json.dumps(rec), err=True)
    sys.exit(code)


# --------------------------------------------------------------------------
# surface spec files
# --------------------------------------------------------------------------
# the keys each kind of spec reads, beside ``kind``; each is required but
# a sphere's radius, which defaults to 1
_SPEC_KEYS = {"helcat": ("alpha_h",), "torus": ("R", "r"),
              "tube": ("curve", "radius"), "graph": ("coeffs",),
              "sphere": ("radius",), "canonical": ("coeffs",)}
_SPEC_OPTIONAL = {("sphere", "radius")}


def load_surface_spec(path: str) -> CatalogEntry:
    """Parse a key = value spec file into a catalog entry.

    Keys: kind (helcat|torus|sphere|tube|graph|canonical), and those of
    ``_SPEC_KEYS`` its kind reads: alpha_h, R, r, radius (sphere, default
    1, or tube), curve ("circle <R>" or "helix <A> <B>"), coeffs (7 comma-
    or space-separated numbers for canonical; "i j c; ..." monomials for
    graph, each (i, j) once).  A malformed value, a key given twice, a key
    the kind does not read and a key it needs but is not given are each a
    ValueError.
    """
    kv = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad spec line: {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in kv:
                raise ValueError(f"spec key {key!r} is given twice")
            kv[key] = val
    kind = kv.get("kind")
    if kind not in _SPEC_KEYS:
        raise ValueError(f"unknown surface kind {kind!r}")
    for key in kv:
        if key != "kind" and key not in _SPEC_KEYS[kind]:
            raise ValueError(f"spec key {key!r} is not read by kind {kind}")
    for key in _SPEC_KEYS[kind]:
        if key not in kv and (kind, key) not in _SPEC_OPTIONAL:
            raise ValueError(f"spec key {key!r} is missing: kind {kind} "
                             "needs it")
    if kind == "helcat":
        return make_helcat(float(kv["alpha_h"]))
    if kind == "torus":
        return make_torus(float(kv["R"]), float(kv["r"]))
    if kind == "tube":
        name, *nums = kv["curve"].split() or [""]
        return make_tube((name, *map(float, nums)), float(kv["radius"]))
    if kind == "graph":
        poly = {}
        for term in kv["coeffs"].split(";"):
            term = term.strip()
            if term:
                i, j, cc = term.split()
                key = int(i), int(j)
                if key in poly:
                    raise ValueError("graph coeffs repeat x^%d y^%d" % key)
                poly[key] = float(cc)
        return make_graph(poly)
    if kind == "sphere":
        return make_sphere(float(kv.get("radius", 1.0)))
    if kind == "canonical":
        nums = [float(x) for x in kv["coeffs"].replace(",", " ").split()]
        if len(nums) != 7:
            raise ValueError("canonical coeffs needs 7 numbers")
        return make_canonical(*nums)


def _parse_grid(text):
    n1, n2 = text.lower().split("x")
    n1, n2 = int(n1), int(n2)
    if min(n1, n2) < 8:
        raise ValueError("grid resolution must be >= 8")
    return n1, n2


def _pair(text, sep):
    """The two numbers of ``a<sep>b``; a ValueError unless both are
    finite (a seed ``u,v`` and each side ``lo:hi`` of a range)."""
    a, b = (float(x) for x in text.split(sep))
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"coordinates must be finite, got {text!r}")
    return a, b


def _parse_range(text, surface):
    if text is None:
        (u0, u1), (v0, v1) = surface.domain
        return float(u0), float(u1), float(v0), float(v1)
    upart, vpart = text.split(",")
    return _pair(upart, ":") + _pair(vpart, ":")


def _square_grid(text):
    """The side n of an ``nxn`` grid (the planar commands need n x n)."""
    n1, n2 = _parse_grid(text)
    if n1 != n2:
        raise ValueError(f"grid must be square, got {text!r}")
    return n1


# --------------------------------------------------------------------------
# CLI group
# --------------------------------------------------------------------------
class _Boundary(click.Group):
    """The one error boundary of every command: floating-point warnings
    are off, a ToolkitError exits 3 and a configuration error (ValueError,
    KeyError, OSError) exits 2, each after a JSON error record."""

    def invoke(self, ctx):
        try:
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                return super().invoke(ctx)
        except ToolkitError as exc:
            _fail(exc, 3)
        except (ValueError, KeyError, OSError) as exc:
            _fail(exc, 2)


@click.group(cls=_Boundary)
@click.version_option(version=__version__)
def main():
    """Conformal-geometry toolkit command line."""


_surface_opt = click.option("--surface", "surface_path", required=True,
                            type=click.Path(exists=True, dir_okay=False))
_out_opt = click.option("--out", "out", default=None,
                        type=click.Path(dir_okay=False))
_fmt_opt = click.option("--format", "fmt", default="csv",
                        type=click.Choice(["csv", "json"]))
_seed_opt = click.option("--seed", "seeds", multiple=True, required=True)
_sweep_opts = (click.option("--grid", default="16x16"),
               click.option("--range", "rng", default=None))


def _table(name, *options):
    """Register ``fn(entry, **options) -> (rows, header, meta)`` as the
    command ``name``, with ``--surface``, ``--out`` and ``--format``: it
    loads the spec and writes the rows, the spec path in their config."""
    def register(fn):
        def command(surface_path, out, fmt, **kwargs):
            # module globals, read at each call: a rebinding of either
            # (a tracer's wrapper) is the one called
            rows, header, meta = fn(load_surface_spec(surface_path),
                                    **kwargs)
            _emit(rows, header, out, fmt, {"surface": surface_path, **meta})
        for option in reversed((_surface_opt, _out_opt, _fmt_opt) + options):
            command = option(command)
        main.command(name, help=fn.__doc__)(command)
        return fn
    return register


def _sweep(entry, grid, rng, header, values):
    """One row per grid point, u, v and ``values(surface, u, v)``; a
    ToolkitError leaves the values empty and names itself in the last."""
    n1, n2 = _parse_grid(grid)
    u0, u1, v0, v1 = _parse_range(rng, entry.surface)
    rows = []
    for u in np.linspace(u0, u1, n1).tolist():
        for v in np.linspace(v0, v1, n2).tolist():
            try:
                rows.append([u, v] + values(entry.surface, u, v))
            except ToolkitError as exc:
                name = ("Umbilic" if isinstance(exc, UmbilicPoint)
                        else type(exc).__name__)
                rows.append([u, v] + [None]*(len(header) - 3) + [name])
    return rows, header, {"grid": grid, "range": rng}


def _invariant_cells(surface, u, v):
    s = invariant_sample(surface, u, v)
    return [s.k1, s.k2, s.H, s.mu, s.theta1, s.theta2, s.psi, s.a, s.b,
            s.c, s.d, s.classification]


def _class_cells(surface, u, v):
    return [invariant_sample(surface, u, v, with_coeffs=False).classification]


@_table("invariants", *_sweep_opts)
def cmd_invariants(entry, grid, rng):
    """Pointwise invariant sweep over a parameter grid."""
    return _sweep(entry, grid, rng,
                  ["u", "v", "k1", "k2", "H", "mu", "theta1", "theta2",
                   "psi", "a", "b", "c", "d", "class"], _invariant_cells)


@_table("classify", *_sweep_opts)
def cmd_classify(entry, grid, rng):
    """Point classification sweep (Generic/Canal/Dupin/Umbilic)."""
    return _sweep(entry, grid, rng, ["u", "v", "class"], _class_cells)


@_table("osculate", _seed_opt)
def cmd_osculate(entry, seeds):
    """Osculating-cyclide data at the given seed points."""
    rows = []
    for text in seeds:
        u, v = _pair(text, ",")
        try:
            c = osculating_cyclide(entry.surface, u, v)
            rows.append([u, v, c.t, c.alpha, c.psi_c, verify_contact_order(c),
                         c.limit_derived])
        except (CanalPoint, DupinPoint):
            rows.append([u, v, None, None, None, None, None])
    header = ["u", "v", "t", "alpha", "psi_c", "contact_order",
              "limit_derived"]
    return rows, header, {"seeds": list(seeds)}


def _trace_rows(traces, with_angles=False):
    header = ["curve_id", "k", "u", "v", "x", "y", "z"]
    if with_angles:
        header += ["alpha", "sigma"]
    header += ["closed", "termination"]
    rows = []
    for cid, tr in enumerate(traces):
        for k in range(len(tr.uv)):
            row = [cid, k, tr.uv[k, 0], tr.uv[k, 1],
                   tr.positions[k, 0], tr.positions[k, 1],
                   tr.positions[k, 2]]
            if with_angles:
                row += [tr.alpha[k], tr.sigma[k]]
            row += [tr.closed, tr.termination]
            rows.append(row)
    return rows, header


@_table("dupin-lines", _seed_opt,
        click.option("--step", default=0.01, type=float),
        click.option("--max-length", default=10.0, type=float))
def cmd_dupin_lines(entry, seeds, step, max_length):
    """Integrate the distinguished tangency direction field."""
    traces = [integrate_dupin_line(entry.surface, _pair(s, ","), step=step,
                                   max_length=max_length) for s in seeds]
    return (*_trace_rows(traces),
            {"seeds": list(seeds), "step": step, "max_length": max_length})


@_table("darboux", _seed_opt,
        click.option("--alpha0", default=None, type=float),
        click.option("--step", default=0.005, type=float),
        click.option("--max-length", default=5.0, type=float),
        click.option("--orient", default=1, type=int))
def cmd_darboux(entry, seeds, alpha0, step, max_length, orient):
    """Integrate fixed-angle direction traces and report angle criticals."""
    traces = []
    crit_rows = []
    for s in seeds:
        uv = _pair(s, ",")
        a0 = dupin_angle(entry.surface, uv) if alpha0 is None else alpha0
        tr = integrate_darboux_line(entry.surface, uv, a0, step=step,
                                    max_length=max_length, orient=orient)
        for cp in darboux_critical_points(tr, entry.surface):
            crit_rows.append([len(traces), cp.index, cp.u, cp.v, cp.alpha,
                              cp.relation_residual, cp.tangency_gap,
                              cp.genericity, cp.is_extremum])
        traces.append(tr)
    meta = {"seeds": list(seeds), "alpha0": alpha0, "step": step,
            "max_length": max_length,
            "criticals_header": ["curve_id", "index", "u", "v", "alpha",
                                 "relation_residual", "tangency_gap",
                                 "genericity", "is_extremum"],
            "criticals": [[_fmt(x) for x in r] for r in crit_rows]}
    return (*_trace_rows(traces, with_angles=True), meta)


@_table("intersect", click.option("--psi-c", "psi_c", default=None,
                                  type=float),
        click.option("--window", default=1.0, type=float),
        click.option("--grid", default="128x128"))
def cmd_intersect(entry, psi_c, window, grid):
    """Trace the intersection of a canonical graph with a cyclide."""
    coeffs = entry.params.get("invariants")
    if coeffs is None:
        raise ValueError("intersect needs a canonical surface spec")
    # default: the osculating value from the prescribed invariants
    pc = float(osculating_psi_c(coeffs)) if psi_c is None else psi_c
    n = _square_grid(grid)
    cs = trace_cyclide_intersection(coeffs, pc, window=window, resolution=n)
    rows = [[cid, comp, k, x, y]
            for cid, (pl, comp) in enumerate(zip(cs.polylines,
                                                 cs.component_of_polyline))
            for k, (x, y) in enumerate(pl.tolist())]
    meta = {"psi_c": pc, "window": window, "resolution": n,
            "component_count": cs.component_count,
            "origin_component_index": cs.origin_component_index,
            "degenerate": cs.degenerate}
    return rows, ["curve_id", "component", "k", "x", "y"], meta


@main.command("prescribe")
@_surface_opt
@_out_opt
@click.option("--grid", default="65x65")
def cmd_prescribe(surface_path, out, grid):
    """Run the coframe construction pipeline and report realizability."""
    # imported here: no other command runs the pipeline
    from .prescribe import helcat_coframe, prescribe

    entry = load_surface_spec(surface_path)
    alpha_h = entry.params.get("alpha_h")
    if alpha_h is None:
        raise ValueError("prescribe expects a helcat surface spec")
    n = _square_grid(grid)
    # the coframe alone: prescribe reads nothing else of helcat_grid
    x1, x2, f, kap = helcat_coframe(alpha_h, n)[:4]
    _, rep = prescribe(kap, f, f[:, 0], x1, x2)
    payload = {
        "version": __version__,
        "config": {"surface": surface_path, "grid": grid,
                   "kappa": float(kap)},
        "max_norm": {k: _fmt(v) for k, v in rep.max_norm.items()},
        "rms": {k: _fmt(v) for k, v in rep.rms.items()},
        "margin": rep.margin,
        "order": rep.order,
        "extra": {k: _fmt(v) for k, v in rep.extra.items()
                  if k != "realizable"},
        "realizable": bool(rep.extra["realizable"]),
    }
    _write(json.dumps(payload, indent=1, sort_keys=True) + "\n", out)


@main.command("verify")
@_surface_opt
@_out_opt
@_fmt_opt
@_seed_opt
def cmd_verify(surface_path, out, fmt, seeds):
    """Compare psi_invariant with psi_from_thetas at seeds.

    The theta path recovers the canonical normal form's psi, which differs
    from psi_invariant by xi1(theta1) + xi2(theta2); the two agree only
    where that offset is below ``_TOL_XCHECK``."""
    entry = load_surface_spec(surface_path)
    header = ["u", "v", "psi_field", "psi_thetas", "gap", "status"]
    rows = []
    ok = True
    for text in seeds:
        u, v = _pair(text, ",")
        s = invariant_sample(entry.surface, u, v)
        try:
            p2 = psi_from_thetas(entry.surface, u, v)
            gap = abs(s.psi - p2)
            status = "ok" if gap < _TOL_XCHECK else "mismatch"
            ok = ok and gap < _TOL_XCHECK
            rows.append([u, v, s.psi, p2, gap, status])
        except DegenerateDenominator:
            rows.append([u, v, s.psi, None, None, "degenerate"])
    _emit(rows, header, out, fmt,
          {"surface": surface_path, "seeds": list(seeds)})
    if not ok:
        sys.exit(1)


@main.command("table1")
@_out_opt
@_fmt_opt
def cmd_table1(out, fmt):
    """Reference-table reproduction with per-cell discrepancy report."""
    header = ["alpha", "s", "computed", "reference", "abs_gap", "rel_gap",
              "note"]
    rows = []
    for name, al, refs in _TABLE_ROWS:
        entry = make_helcat(al)
        for s_val, ref in zip((0.0, 1.0, 2.0), refs):
            got = osculating_cyclide(entry.surface, s_val, 0.3).psi_c
            gap = abs(got - ref)
            note = ""
            if (name, int(s_val)) == _FLAGGED_CELL:
                note = ("flagged: reference cell inconsistent with "
                        "neighbors; computed value reported")
            elif gap > max(0.02, 0.02*abs(ref)):
                note = "discrepancy"
            rows.append([name, s_val, got, ref, gap, gap/abs(ref), note])
    _emit(rows, header, out, fmt, {})


if __name__ == "__main__":
    main()
