"""File formats for the command-line tools.

Matrices travel as JSON {"n": n, "entries": [[[re, im], ...], ...]} or, for
real symmetric input, as bare CSV (n rows of n comma-separated reals).
A measure is one RadonMeasure01 on lam in [0, 1], read from either of two
schemas: {"atoms": [{"lambda": l, "w": w}, ...], "quad": [...]}, whose quad
nodes must be interior and join the atoms, or the half-line form
{"mass0": a, "massInf": b, "interior": [{"s": s, "w": w}, ...]}, converted by
RadonMeasure01.from_half_line.  Measures are written in the lambda schema.
Scalar samples and grid functions are two-column CSV.
All loaders raise UsageError with the offending file (and line, for CSV)
named in the message.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .choquet import GridFunction
from .errors import UsageError
from .hermitian import HermitianMatrix
from .measures import RadonMeasure01


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"{path}: cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def _require_number(obj, what: str, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise UsageError(f"{path}: {what} must be a number, got {obj!r}")
    v = float(obj)
    if not math.isfinite(v):
        raise UsageError(f"{path}: {what} must be finite, got {v}")
    return v


def load_matrix_json(path: str) -> HermitianMatrix:
    data = _load_json(path)
    if not isinstance(data, dict) or "n" not in data or "entries" not in data:
        raise UsageError(f'{path}: matrix JSON needs keys "n" and "entries"')
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise UsageError(f'{path}: "n" must be a positive integer, got {n!r}')
    rows = data["entries"]
    if not isinstance(rows, list) or len(rows) != n:
        raise UsageError(f"{path}: expected {n} rows, got {len(rows) if isinstance(rows, list) else type(rows).__name__}")
    out = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise UsageError(f"{path}: row {i} must be a list of {n} [re, im] pairs")
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise UsageError(f"{path}: entry ({i},{j}) must be an [re, im] pair")
            re = _require_number(cell[0], f"entry ({i},{j}) real part", path)
            im = _require_number(cell[1], f"entry ({i},{j}) imaginary part", path)
            out[i, j] = complex(re, im)
    try:
        return HermitianMatrix.from_array(out)
    except (UsageError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _read_csv_rows(path: str):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return [
                (lineno, row)
                for lineno, row in enumerate(csv.reader(fh), start=1)
                if row and any(cell.strip() for cell in row)
            ]
    except OSError as exc:
        raise UsageError(f"{path}: cannot read file: {exc}") from exc


def _parse_float(cell: str, path: str, lineno: int) -> float:
    try:
        v = float(cell)
    except ValueError as exc:
        raise UsageError(f"{path}: line {lineno}: not a number: {cell!r}") from exc
    if not math.isfinite(v):
        raise UsageError(f"{path}: line {lineno}: non-finite value {cell!r}")
    return v


def load_matrix_csv(path: str) -> HermitianMatrix:
    rows = _read_csv_rows(path)
    if not rows:
        raise UsageError(f"{path}: empty matrix file")
    n = len(rows)
    out = np.empty((n, n), dtype=np.complex128)
    for i, (lineno, row) in enumerate(rows):
        if len(row) != n:
            raise UsageError(
                f"{path}: line {lineno}: expected {n} entries, got {len(row)}"
            )
        for j, cell in enumerate(row):
            out[i, j] = _parse_float(cell, path, lineno)
    try:
        return HermitianMatrix.from_array(out)
    except (UsageError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def load_matrix(path: str) -> HermitianMatrix:
    """Dispatch on extension; .json unless the name ends in .csv."""
    if path.lower().endswith(".csv"):
        return load_matrix_csv(path)
    return load_matrix_json(path)


def matrix_to_obj(a: HermitianMatrix) -> dict:
    return {
        "n": a.dim,
        "entries": [
            [[z.real, z.imag] for z in row] for row in a.entries.tolist()
        ],
    }


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _pairs(data, key: str, a_key: str, path: str):
    items = data.get(key, [])
    if not isinstance(items, list):
        raise UsageError(
            f'{path}: "{key}" must be a list of objects with keys "{a_key}" and "w"'
        )
    out = []
    for k, item in enumerate(items):
        if not isinstance(item, dict) or a_key not in item or "w" not in item:
            raise UsageError(
                f'{path}: {key}[{k}] must be an object with keys "{a_key}" and "w"'
            )
        out.append(
            (
                _require_number(item[a_key], f"{key}[{k}].{a_key}", path),
                _require_number(item["w"], f"{key}[{k}].w", path),
            )
        )
    return tuple(out)


def load_measure(path: str) -> RadonMeasure01:
    """A measure in either schema, keyed by its fields."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise UsageError(f"{path}: measure JSON must be an object")
    if "mass0" in data or "massInf" in data or "interior" in data:
        mass0 = _require_number(data.get("mass0", 0.0), "mass0", path)
        mass_inf = _require_number(data.get("massInf", 0.0), "massInf", path)
        interior = _pairs(data, "interior", "s", path)
        try:
            return RadonMeasure01.from_half_line(mass0, mass_inf, interior)
        except UsageError as exc:
            raise UsageError(f"{path}: {exc}") from exc
    if "atoms" in data or "quad" in data:
        atoms = _pairs(data, "atoms", "lambda", path)
        quad = _pairs(data, "quad", "lambda", path)
        for lam, _ in quad:
            if not 0.0 < lam < 1.0:
                raise UsageError(f"{path}: quadrature node {lam} must be interior to (0, 1)")
        try:
            return RadonMeasure01(atoms=atoms + quad)
        except UsageError as exc:
            raise UsageError(f"{path}: {exc}") from exc
    raise UsageError(
        f'{path}: measure JSON needs "atoms"/"quad" or "mass0"/"massInf"/"interior"'
    )


def measure_to_obj(m: RadonMeasure01) -> dict:
    # every node is an atom; the empty quad list keeps the written schema
    return {
        "atoms": [{"lambda": l, "w": w} for l, w in m.atoms],
        "quad": [],
    }


def load_samples_csv(path: str) -> list:
    """Rows of (t, f(t)); a leading non-numeric header row is skipped."""
    rows = _read_csv_rows(path)
    out = []
    for k, (lineno, row) in enumerate(rows):
        if len(row) < 2:
            raise UsageError(f"{path}: line {lineno}: expected two columns t,value")
        if k == 0:
            try:
                float(row[0])
            except ValueError:
                continue
        out.append(
            (_parse_float(row[0], path, lineno), _parse_float(row[1], path, lineno))
        )
    if not out:
        raise UsageError(f"{path}: no sample rows found")
    return out


def dump_samples_csv(pairs, header=("t", "value")) -> str:
    lines = [",".join(header)]
    lines += [f"{t!r},{v!r}" for t, v in pairs]
    return "\n".join(lines) + "\n"


def load_gridfunction_csv(path: str) -> GridFunction:
    pairs = load_samples_csv(path)
    xs = np.array([t for t, _ in pairs])
    ys = np.array([v for _, v in pairs])
    try:
        return GridFunction(xs, ys)
    except (UsageError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def load_polytope(path: str):
    """{"vertices": [[...], ...]} with an optional "point": [...] field."""
    data = _load_json(path)
    if not isinstance(data, dict) or "vertices" not in data:
        raise UsageError(f'{path}: polytope JSON needs a "vertices" key')
    verts = data["vertices"]
    if not isinstance(verts, list) or not verts:
        raise UsageError(f"{path}: vertices must be a nonempty list of rows")
    d = None
    rows = []
    for i, row in enumerate(verts):
        if not isinstance(row, list):
            raise UsageError(f"{path}: vertex {i} must be a list of coordinates")
        if d is None:
            d = len(row)
        if len(row) != d or d == 0:
            raise UsageError(f"{path}: vertex {i} has {len(row)} coordinates, expected {d}")
        rows.append([_require_number(c, f"vertex {i} coordinate", path) for c in row])
    point = None
    if "point" in data:
        p = data["point"]
        if not isinstance(p, list) or len(p) != d:
            raise UsageError(f'{path}: "point" must be a list of {d} coordinates')
        point = [_require_number(c, "point coordinate", path) for c in p]
    return np.array(rows), (None if point is None else np.array(point))


def parse_point_arg(text: str, dim: int) -> np.ndarray:
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"--point {text!r}: not a comma-separated number list") from exc
    if len(vals) != dim:
        raise UsageError(f"--point has {len(vals)} coordinates, polytope has {dim}")
    if not all(math.isfinite(v) for v in vals):
        raise UsageError(f"--point {text!r}: coordinates must be finite")
    return np.array(vals)
