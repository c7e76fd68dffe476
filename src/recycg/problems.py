"""
Problem generators and Matrix Market I/O.

The benchmark sequences are finite-difference diffusion operators on a
regular 2-D/3-D grid with stiff axis-aligned inclusions; per-material
conductivities are redrawn for every system from a seeded counter-based
generator, so a (spec, count) pair fully determines every matrix byte.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np
import scipy.sparse

from .core import ContractViolation, SparseSpdMatrix, _field, _integer, _real


def _integers(values):
    return tuple(map(_integer, values))


@dataclass(frozen=True)
class InclusionGridSpec:
    """Randomized diffusion sequence on a regular grid with inclusions.

    ``inclusion_layout`` is a tuple of blocks, each block a tuple of
    half-open ``(lo, hi)`` ranges per axis.  One conductivity per material
    (background plus each inclusion) is drawn per system from a normal law
    with the given relative standard deviation, clamped positive by
    redrawing.  ``inclusion_coeff_mean`` is given as one scalar shared by all
    inclusions or as a per-inclusion sequence, and is stored as one float per
    inclusion block; spreading the means apart separates the low outliers of
    the preconditioned spectrum, which is what makes selective recycling bite.

    Each field is converted and checked here; a bad one raises a
    ContractViolation naming it and its value.  The grid has 1 to 3
    nonempty axes and at least 2 cells, the seed is >= 0, the means are
    positive and finite, ``rel_std`` is nonnegative and finite, and a
    boolean is not a number.
    """

    grid: tuple
    inclusion_layout: tuple = ()
    matrix_coeff_mean: float = 1.0
    inclusion_coeff_mean: float | tuple = 100.0
    rel_std: float = 0.10
    seed: int = 0

    def __post_init__(self):
        def put(name, convert, valid=lambda v: True):
            value = _field(name, getattr(self, name), convert, valid)
            object.__setattr__(self, name, value)
            return value

        grid = put("grid", _integers, lambda g: 0 < len(g) <= 3 and min(g) >= 1 and max(g) >= 2)
        layout = put("inclusion_layout", lambda v: tuple(
            tuple((_integer(lo), _integer(hi)) for lo, hi in block) for block in v))
        # an infinite mean would make the positive redraw loop forever
        put("matrix_coeff_mean", _real, lambda m: 0 < m < np.inf)
        means = put("inclusion_coeff_mean",
                    lambda v: tuple(map(_real, v)) if np.ndim(v) else (_real(v),) * len(layout),
                    lambda v: all(0 < m < np.inf for m in v))
        put("rel_std", _real, lambda s: 0 <= s < np.inf)
        put("seed", _integer, lambda s: s >= 0)
        if len(means) != len(layout):
            raise ContractViolation("need one inclusion mean per inclusion block")
        for block in layout:
            if len(block) != len(grid):
                raise ContractViolation("inclusion block rank must match grid rank")
            for (lo, hi), g in zip(block, grid):
                if not 0 <= lo < hi <= g:
                    raise ContractViolation("inclusion block out of grid bounds")

    @property
    def n(self):
        return int(np.prod(self.grid))


def regular_inclusion_layout(grid, per_axis):
    """A regular ``per_axis x per_axis (x per_axis)`` arrangement of blocks
    half a cell wide on a grid the spec accepts; ``per_axis`` runs from 1 to
    the smallest axis, beyond which blocks would repeat."""
    grid = InclusionGridSpec(grid).grid
    per_axis = _field("inclusions_per_axis", per_axis, _integer, lambda p: 1 <= p <= min(grid))
    spans = []
    for g in grid:
        cell = g / per_axis
        width = max(1, int(round(cell * 0.5)))
        spans.append([(int(round(i * cell + (cell - width) / 2)),) for i in range(per_axis)])
        spans[-1] = [(s[0], min(g, s[0] + width)) for s in spans[-1]]
    return tuple(product(*spans))


def benchmark_spec(seed=0, grid=(64, 64)):
    """The standard benchmark problem: a 64x64 grid with a 4x4 arrangement of
    inclusions whose stiffness means are geometrically spread from 10 to 1000."""
    layout = regular_inclusion_layout(grid, 4)
    return InclusionGridSpec(grid=grid, inclusion_layout=layout,
                             inclusion_coeff_mean=np.logspace(1.0, 3.0, len(layout)),
                             rel_std=0.10, seed=seed)


def _draw_coefficient(rng, mean, rel_std):
    while True:
        value = mean * (1.0 + rel_std * rng.standard_normal())
        if value > 1e-6 * mean:
            return value


def _material_map(spec: InclusionGridSpec):
    """Per-cell material index: 0 = background, i = inclusion i."""
    materials = np.zeros(spec.grid, dtype=np.int64)
    for i, block in enumerate(spec.inclusion_layout, start=1):
        slices = tuple(slice(lo, hi) for lo, hi in block)
        materials[slices] = i
    return materials


def _diffusion_pattern(grid):
    """``(faces, row_offsets, col_indices, order)`` of every system on ``grid``.

    ``faces`` holds, per axis of size >= 2, the index tuples of the lower and
    upper cells of its interior faces and of its first and last boundary
    planes.  ``order`` puts the entries of ``_diffusion_values`` in the CSR
    order of the int32 ``row_offsets`` and ``col_indices``, which all the
    matrices of a sequence share read-only.
    """
    n = int(np.prod(grid))
    index = np.arange(n).reshape(grid)
    faces = [tuple(tuple(slice(start, stop) if a == axis else slice(None) for a in range(len(grid)))
                   for start, stop in ((0, g - 1), (1, g), (0, 1), (g - 1, g)))
             for axis, g in enumerate(grid) if g >= 2]
    lower = [index[lo].ravel() for lo, *_ in faces]
    upper = [index[hi].ravel() for _, hi, *_ in faces]
    rows = np.concatenate(lower + upper + [index.ravel()])
    cols = np.concatenate(upper + lower + [index.ravel()])
    order = np.lexsort((cols, rows))
    row_offsets = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n)))).astype(np.int32)
    col_indices = cols[order].astype(np.int32)
    row_offsets.flags.writeable = col_indices.flags.writeable = False
    return faces, row_offsets, col_indices, order


def _diffusion_values(cell_coeff, faces):
    """Finite-difference diffusion entries with harmonic face coefficients
    and Dirichlet boundaries, where a boundary face uses the cell's own
    coefficient: the lower-to-upper couplings of every axis, the
    upper-to-lower ones, then the diagonal."""
    diag = np.zeros(cell_coeff.shape)
    couplings = []
    for lo, hi, first, last in faces:
        face = 2.0 * cell_coeff[lo] * cell_coeff[hi] / (cell_coeff[lo] + cell_coeff[hi])
        diag[lo] += face
        diag[hi] += face
        diag[first] += cell_coeff[first]  # Dirichlet boundary faces
        diag[last] += cell_coeff[last]
        couplings.append(-face.ravel())
    return np.concatenate(couplings * 2 + [diag.ravel()])


def _load_vector(grid, faces):
    """Fixed deterministic load: unit source at the center, boundary flux."""
    b = np.zeros(grid)
    for *_, first, last in faces:
        b[first] += 0.01
        b[last] += 0.01
    b[tuple(g // 2 for g in grid)] += 1.0
    return b.ravel()


def generate_diffusion_sequence(spec: InclusionGridSpec, count):
    """Yield ``count`` (matrix, rhs) pairs with redrawn material coefficients;
    the CSR pattern is built once and each system fills only its values."""
    count = _field("count", count, _integer, lambda c: c >= 1)
    materials = _material_map(spec)
    means = (spec.matrix_coeff_mean, *spec.inclusion_coeff_mean)
    faces, row_offsets, col_indices, order = _diffusion_pattern(spec.grid)
    b = _load_vector(spec.grid, faces)
    rng = np.random.Generator(np.random.Philox(spec.seed))
    for _ in range(count):
        coeffs = np.array([_draw_coefficient(rng, m, spec.rel_std) for m in means])
        values = _diffusion_values(coeffs[materials], faces)[order]
        yield SparseSpdMatrix(spec.n, row_offsets, col_indices, values), b.copy()


class MatrixMarketError(ValueError):
    """Malformed or unsupported Matrix Market content; carries a line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


def read_matrix_market(path):
    """Read a symmetric sparse matrix (coordinate) or a vector (array).

    Symmetric storage is expanded to the full pattern; matrices declared
    ``general`` are rejected.
    """
    path = Path(path)
    with path.open() as fh:
        lines = fh.readlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise MatrixMarketError(path, 1, "missing MatrixMarket header")
    header = lines[0].split()
    if len(header) != 5 or header[1] != "matrix":
        raise MatrixMarketError(path, 1, "malformed header")
    _, _, fmt, dtype, kind = header
    if dtype != "real":
        raise MatrixMarketError(path, 1, f"unsupported data type {dtype!r}")
    body_start = 1
    while body_start < len(lines) and lines[body_start].lstrip().startswith("%"):
        body_start += 1
    if body_start >= len(lines):
        raise MatrixMarketError(path, len(lines), "missing size line")
    size_line_no = body_start + 1
    size_fields = lines[body_start].split()

    if fmt == "array":
        if kind != "general":
            raise MatrixMarketError(path, 1, "array format supported for vectors only")
        if len(size_fields) != 2:
            raise MatrixMarketError(path, size_line_no, "array size line needs 2 fields")
        try:
            nrow, ncol = int(size_fields[0]), int(size_fields[1])
        except ValueError:
            raise MatrixMarketError(path, size_line_no, "invalid array size line") from None
        if ncol != 1:
            raise MatrixMarketError(path, size_line_no, "only single-column vectors supported")
        entries = []
        for off, line in enumerate(lines[body_start + 1:], start=size_line_no + 1):
            if not line.strip():
                continue
            try:
                entries.append(float(line.split()[0]))
            except ValueError:
                raise MatrixMarketError(path, off, "invalid numeric entry") from None
        if len(entries) != nrow:
            raise MatrixMarketError(path, len(lines), f"expected {nrow} entries, got {len(entries)}")
        return np.asarray(entries)

    if fmt != "coordinate":
        raise MatrixMarketError(path, 1, f"unsupported format {fmt!r}")
    if kind != "symmetric":
        raise MatrixMarketError(path, 1, f"matrix kind must be symmetric, got {kind!r}")
    if len(size_fields) != 3:
        raise MatrixMarketError(path, size_line_no, "coordinate size line needs 3 fields")
    try:
        nrow, ncol, nnz = (int(v) for v in size_fields)
    except ValueError:
        raise MatrixMarketError(path, size_line_no, "invalid coordinate size line") from None
    if nrow != ncol:
        raise MatrixMarketError(path, size_line_no, "matrix must be square")
    rows, cols, vals = [], [], []
    for off, line in enumerate(lines[body_start + 1:], start=size_line_no + 1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 3:
            raise MatrixMarketError(path, off, "coordinate entry needs 3 fields")
        try:
            i, j, v = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            raise MatrixMarketError(path, off, "invalid coordinate entry") from None
        if not (1 <= i <= nrow and 1 <= j <= ncol):
            raise MatrixMarketError(path, off, "index out of range")
        if j > i:
            raise MatrixMarketError(path, off, "symmetric storage requires lower triangle")
        if i == j and v <= 0.0:
            raise MatrixMarketError(path, off, "nonpositive diagonal entry")
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
        if i != j:
            rows.append(j - 1)
            cols.append(i - 1)
            vals.append(v)
    if len([1 for r, c in zip(rows, cols) if r >= c]) != nnz:
        raise MatrixMarketError(path, len(lines), f"expected {nnz} stored entries")
    coo = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(nrow, nrow))
    return SparseSpdMatrix.from_scipy(coo)


def write_matrix_market(path, obj):
    """Write a matrix (coordinate symmetric, lower triangle) or a vector (array)."""
    if isinstance(obj, SparseSpdMatrix):
        rows = np.repeat(np.arange(obj.n), np.diff(obj.row_offsets))
        lower = obj.col_indices <= rows
        head = f"%%MatrixMarket matrix coordinate real symmetric\n{obj.n} {obj.n} {lower.sum()}\n"
        body = map("{} {} {:.17g}\n".format, (rows[lower] + 1).tolist(),
                   (obj.col_indices[lower] + 1).tolist(), obj.values[lower].tolist())
    else:
        vec = np.asarray(obj, dtype=np.float64).reshape(-1)
        head = f"%%MatrixMarket matrix array real general\n{len(vec)} 1\n"
        body = map("{:.17g}\n".format, vec.tolist())
    Path(path).write_text(head + "".join(body))
