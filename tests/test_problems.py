"""Problem-generator and Matrix Market I/O tests."""
import hashlib
from itertools import product

import numpy as np
import pytest

from recycg import (ContractViolation, InclusionGridSpec, SparseSpdMatrix,
                    generate_diffusion_sequence, read_matrix_market, write_matrix_market)
from recycg import problems
from recycg.problems import (MatrixMarketError, benchmark_spec,
                             regular_inclusion_layout)
from conftest import dense_sym_eig, generate_prescribed_spectrum


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_bad_grid():
    with pytest.raises(ContractViolation):
        InclusionGridSpec(grid=(1, 1))
    with pytest.raises(ContractViolation):
        InclusionGridSpec(grid=(4, 4, 4, 4))


def test_spec_rejects_out_of_bounds_inclusion():
    with pytest.raises(ContractViolation):
        InclusionGridSpec(grid=(4, 4), inclusion_layout=(((0, 5), (0, 2)),))


def test_spec_rejects_mean_count_mismatch():
    layout = (((0, 2), (0, 2)), ((2, 4), (2, 4)))
    with pytest.raises(ContractViolation):
        InclusionGridSpec(grid=(4, 4), inclusion_layout=layout,
                          inclusion_coeff_mean=(10.0,))


def test_spec_rejects_nonpositive_means():
    with pytest.raises(ContractViolation):
        InclusionGridSpec(grid=(4, 4), matrix_coeff_mean=0.0)
    with pytest.raises(ContractViolation):
        InclusionGridSpec(grid=(4, 4), rel_std=-0.1)
    # a NaN spread would make the positive redraw loop forever
    with pytest.raises(ContractViolation):
        InclusionGridSpec(grid=(4, 4), rel_std=float("nan"))
    with pytest.raises(ContractViolation):
        InclusionGridSpec(grid=(4, 4), matrix_coeff_mean=float("nan"))


@pytest.mark.parametrize("kwargs", [
    {"matrix_coeff_mean": float("inf")},
    {"inclusion_layout": (((0, 2), (0, 2)),), "inclusion_coeff_mean": float("inf")},
    {"inclusion_layout": (((0, 2), (0, 2)), ((2, 4), (2, 4))),
     "inclusion_coeff_mean": (10.0, float("inf"))},
    {"rel_std": float("inf")},
    {"grid": (4.7, 4)},
    {"inclusion_layout": (((0, 2.5), (0, 2)),)},
    {"inclusion_layout": (((0, 2, 3), (0, 2)),)},
    {"inclusion_layout": (((0, 2), (0, 2)),), "inclusion_coeff_mean": "stiff"},
    {"matrix_coeff_mean": None},
    {"rel_std": [0.1]},
    {"seed": -1},
], ids=["matrix-mean-inf", "inclusion-mean-inf", "one-inclusion-mean-inf", "rel_std-inf",
        "grid-float", "block-bound-float", "block-range-not-a-pair", "inclusion-mean-text",
        "matrix-mean-none", "rel_std-list", "seed-negative"])
def test_spec_rejects_non_finite_and_non_integer_input(kwargs):
    """An infinite mean would make the positive redraw loop forever, a
    fractional size or bound would be truncated, and the other inputs would
    fail later with a raw error (a negative seed at the first system)."""
    with pytest.raises(ContractViolation):
        InclusionGridSpec(**{"grid": (4, 4), **kwargs})


def test_regular_layout_counts():
    # up to one block per cell of the smallest axis, also on a non-square grid
    for grid, per_axis in (((64, 64), 4), ((5, 9), 5), ((3, 7, 4), 3)):
        layout = regular_inclusion_layout(grid, per_axis)
        assert len(set(layout)) == len(layout) == per_axis ** len(grid)
        for block in layout:
            for (lo, hi), g in zip(block, grid):
                assert 0 <= lo < hi <= g


@pytest.mark.parametrize("per_axis", [0, 6, True, 2.5])
def test_regular_layout_refuses_a_count_outside_the_grid(per_axis):
    """Beyond the smallest axis blocks would repeat, and 0 divided by zero."""
    with pytest.raises(ContractViolation, match=f"bad inclusions_per_axis value {per_axis!r}"):
        regular_inclusion_layout((5, 9), per_axis)


def test_benchmark_spec_shape():
    spec = benchmark_spec()
    assert spec.grid == (64, 64)
    assert len(spec.inclusion_layout) == 16
    means = np.asarray(spec.inclusion_coeff_mean)
    assert len(means) == 16
    # geometrically spread contrasts, strictly increasing
    assert np.all(np.diff(means) > 0)


# ---------------------------------------------------------------------------
# diffusion assembly


def test_unit_1d_grid_is_laplacian():
    spec = InclusionGridSpec(grid=(1, 6), rel_std=0.0)
    A, b = next(generate_diffusion_sequence(spec, 1))
    expected = 2.0 * np.eye(6) - np.eye(6, k=1) - np.eye(6, k=-1)
    np.testing.assert_allclose(A.to_dense(), expected, rtol=1e-14)
    assert len(b) == 6


def test_zero_variance_systems_identical():
    spec = InclusionGridSpec(grid=(5, 5), rel_std=0.0,
                             inclusion_layout=(((1, 3), (1, 3)),),
                             inclusion_coeff_mean=50.0)
    systems = list(generate_diffusion_sequence(spec, 3))
    ref = systems[0][0]
    for A, b in systems[1:]:
        np.testing.assert_array_equal(A.values, ref.values)
        np.testing.assert_array_equal(b, systems[0][1])


def test_scalar_inclusion_mean_is_one_mean_per_block():
    layout = regular_inclusion_layout((8, 8), 2)
    scalar = InclusionGridSpec(grid=(8, 8), inclusion_layout=layout,
                               inclusion_coeff_mean=50.0, seed=4)
    per_block = InclusionGridSpec(grid=(8, 8), inclusion_layout=layout,
                                  inclusion_coeff_mean=(50.0,) * 4, seed=4)
    assert scalar.inclusion_coeff_mean == (50.0,) * 4
    assert scalar == per_block
    for (A1, b1), (A2, b2) in zip(generate_diffusion_sequence(scalar, 3),
                                  generate_diffusion_sequence(per_block, 3)):
        assert A1.values.tobytes() == A2.values.tobytes()
        assert A1.col_indices.tobytes() == A2.col_indices.tobytes()
        assert b1.tobytes() == b2.tobytes()


def test_sequence_deterministic():
    spec = InclusionGridSpec(grid=(6, 6), seed=7,
                             inclusion_layout=(((2, 4), (2, 4)),))
    run1 = [(A.values.copy(), b.copy())
            for A, b in generate_diffusion_sequence(spec, 4)]
    run2 = [(A.values.copy(), b.copy())
            for A, b in generate_diffusion_sequence(spec, 4)]
    for (v1, b1), (v2, b2) in zip(run1, run2):
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(b1, b2)


def test_different_seeds_differ():
    base = InclusionGridSpec(grid=(6, 6), seed=0)
    other = InclusionGridSpec(grid=(6, 6), seed=1)
    A0, _ = next(generate_diffusion_sequence(base, 1))
    A1, _ = next(generate_diffusion_sequence(other, 1))
    assert not np.array_equal(A0.values, A1.values)


def test_coefficient_spread_matches_normal_law():
    # relative std 10%: +-23% is about 2.3 sigma, covering >= 97% of draws
    spec = InclusionGridSpec(grid=(1, 2), rel_std=0.10, seed=3)
    diags = [A.diagonal()[0] for A, _ in generate_diffusion_sequence(spec, 500)]
    coeffs = np.asarray(diags) / 2.0  # unit 1x2 grid: diagonal = 2 * coeff
    within = np.abs(coeffs - 1.0) <= 0.23
    assert within.mean() >= 0.97


def test_generated_matrix_is_positive_definite():
    spec = InclusionGridSpec(grid=(6, 6), seed=2,
                             inclusion_layout=(((1, 3), (1, 3)),),
                             inclusion_coeff_mean=100.0)
    A, _ = next(generate_diffusion_sequence(spec, 1))
    assert dense_sym_eig(A.to_dense()).values.min() > 0.0


def test_3d_grid_assembly():
    spec = InclusionGridSpec(grid=(3, 3, 3), rel_std=0.0)
    A, b = next(generate_diffusion_sequence(spec, 1))
    assert A.n == 27
    # interior cell touches 6 faces of unit coefficient
    center = A.to_dense()[13, 13]
    assert center == pytest.approx(6.0)


# sha256 of row_offsets, col_indices, values and b of each of the 40 systems
# of benchmark_spec(seed=0), in that order; every seed-0 history, the pilot
# fixture and the perfbench references are taken on these bytes
BENCHMARK_DIGEST = "4a58c2de3ef060a9e3e7459f124eeccc48951ae0ce68a9fea64401d57672e383"


def test_benchmark_inputs_are_pinned():
    digest = hashlib.sha256()
    for A, b in generate_diffusion_sequence(benchmark_spec(seed=0), 40):
        assert A.row_offsets.dtype == A.col_indices.dtype == np.int32
        for array in (A.row_offsets, A.col_indices, A.values, b):
            digest.update(array.tobytes())
    assert digest.hexdigest() == BENCHMARK_DIGEST


def reference_system(spec, rng):
    """The next (A, b) of ``spec``'s sequence as dense arrays, assembled cell
    by cell: for each axis in turn, a cell's diagonal adds its upper face,
    its lower face, then its first-plane and last-plane boundary terms; a
    face coefficient is the harmonic mean 2 c_lo c_hi / (c_lo + c_hi) and a
    boundary face takes the cell's own coefficient."""
    means = (spec.matrix_coeff_mean, *spec.inclusion_coeff_mean)
    coeffs = []
    for mean in means:
        while (value := mean * (1.0 + spec.rel_std * rng.standard_normal())) <= 1e-6 * mean:
            pass
        coeffs.append(value)
    cell = np.full(spec.grid, coeffs[0])
    for i, block in enumerate(spec.inclusion_layout, start=1):
        cell[tuple(slice(lo, hi) for lo, hi in block)] = coeffs[i]
    n = spec.n
    A = np.zeros((n, n))
    b = np.zeros(n)
    for idx in product(*(range(g) for g in spec.grid)):
        i = np.ravel_multi_index(idx, spec.grid)
        diag = 0.0
        for axis, g in enumerate(spec.grid):
            if g < 2:
                continue
            for step in (1, -1):
                other = list(idx)
                other[axis] += step
                if not 0 <= other[axis] < g:
                    continue
                lo, hi = (idx, tuple(other)) if step == 1 else (tuple(other), idx)
                face = 2.0 * cell[lo] * cell[hi] / (cell[lo] + cell[hi])
                A[i, np.ravel_multi_index(other, spec.grid)] = -face
                diag += face
            for end in (0, g - 1):
                if idx[axis] == end:
                    diag += cell[idx]
                    b[i] += 0.01
        A[i, i] = diag
    b[np.ravel_multi_index(tuple(g // 2 for g in spec.grid), spec.grid)] += 1.0
    return A, b


@pytest.mark.parametrize("grid, block", [
    ((9,), ((2, 5),)),
    ((1, 6), ((0, 1), (1, 3))),
    ((7, 1, 5), ((1, 4), (0, 1), (2, 5))),
    ((5, 6, 7), ((1, 3), (2, 5), (3, 6))),
], ids=["9", "1x6", "7x1x5", "5x6x7"])
def test_assembly_matches_cell_by_cell_reference(grid, block):
    spec = InclusionGridSpec(grid=grid, inclusion_layout=(block,),
                             inclusion_coeff_mean=37.0, rel_std=0.3, seed=5)
    rng = np.random.Generator(np.random.Philox(spec.seed))
    for A, b in generate_diffusion_sequence(spec, 3):
        A_ref, b_ref = reference_system(spec, rng)
        assert np.array_equal(A.to_dense(), A_ref)
        assert A.nnz == np.count_nonzero(A_ref)
        assert np.array_equal(b, b_ref)


def test_pattern_built_once_per_sequence(monkeypatch):
    calls = []
    pattern = problems._diffusion_pattern

    def counted(grid):
        calls.append(grid)
        return pattern(grid)

    monkeypatch.setattr(problems, "_diffusion_pattern", counted)
    systems = list(generate_diffusion_sequence(benchmark_spec(seed=0, grid=(8, 8)), 5))
    assert len(systems) == 5
    assert calls == [(8, 8)]


def test_count_validation():
    spec = InclusionGridSpec(grid=(4, 4))
    for count in (0, True):
        with pytest.raises(ContractViolation, match=f"bad count value {count!r}"):
            list(generate_diffusion_sequence(spec, count))


# ---------------------------------------------------------------------------
# the prescribed-spectrum oracle of conftest


def test_prescribed_identity_spectrum():
    A = generate_prescribed_spectrum((1.0, 1.0, 1.0))
    np.testing.assert_allclose(A.to_dense(), np.eye(3), atol=1e-12)


def test_prescribed_spectrum_round_trip():
    A = generate_prescribed_spectrum((1.0, 2.0, 3.0, 4.0, 5.0), seed=11)
    values = np.sort(dense_sym_eig(A.to_dense()).values)
    np.testing.assert_allclose(values, [1.0, 2.0, 3.0, 4.0, 5.0], atol=1e-10)


def test_prescribed_spectrum_seed_freedom():
    A = generate_prescribed_spectrum((1.0, 4.0, 9.0), seed=0)
    B = generate_prescribed_spectrum((1.0, 4.0, 9.0), seed=1)
    assert not np.allclose(A.to_dense(), B.to_dense())
    np.testing.assert_allclose(np.sort(dense_sym_eig(B.to_dense()).values),
                               [1.0, 4.0, 9.0], atol=1e-10)


def test_prescribed_spectrum_validation():
    for eigenvalues in ((1.0, -2.0), (), np.ones(501)):
        with pytest.raises(ContractViolation):
            generate_prescribed_spectrum(eigenvalues)


# ---------------------------------------------------------------------------
# Matrix Market I/O


def test_read_coordinate_symmetric_identity(tmp_path):
    path = tmp_path / "eye.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "2 2 2\n1 1 1.0\n2 2 1.0\n")
    A = read_matrix_market(path)
    np.testing.assert_array_equal(A.to_dense(), np.eye(2))


def test_matrix_round_trip(tmp_path):
    spec = InclusionGridSpec(grid=(5, 5), seed=4,
                             inclusion_layout=(((1, 3), (1, 3)),))
    A, b = next(generate_diffusion_sequence(spec, 1))
    write_matrix_market(tmp_path / "A.mtx", A)
    write_matrix_market(tmp_path / "b.mtx", b)
    A2 = read_matrix_market(tmp_path / "A.mtx")
    b2 = read_matrix_market(tmp_path / "b.mtx")
    np.testing.assert_array_equal(A2.to_dense(), A.to_dense())
    np.testing.assert_array_equal(b2, b)


def test_written_benchmark_files_are_pinned(tmp_path):
    """The sha256 of the Matrix Market files of the first benchmark system,
    as the entry-by-entry writer wrote them: lower triangle in CSR order,
    every value with 17 significant digits."""
    A, b = next(generate_diffusion_sequence(benchmark_spec(seed=0), 1))
    write_matrix_market(tmp_path / "A.mtx", A)
    write_matrix_market(tmp_path / "b.mtx", b)
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("A.mtx", "b.mtx")]
    assert digests == ["d5a46d0f9a58b5c3be2572fd1bd6277ea3992d4c4e3bad8d5c8735d21ee9773d",
                       "eabd7ab9f6cdc91945b7e905597776de9f4c8d97c091ba5aa3c3249e9a7bfb8c"]


def test_rejects_general_matrix_kind(tmp_path):
    path = tmp_path / "gen.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 2\n1 1 1.0\n2 2 1.0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(path)


def test_rejects_upper_triangle_entry(tmp_path):
    path = tmp_path / "up.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "2 2 2\n1 1 1.0\n1 2 0.5\n")
    with pytest.raises(MatrixMarketError) as exc_info:
        read_matrix_market(path)
    assert exc_info.value.line_no == 4


def test_rejects_nonpositive_diagonal(tmp_path):
    path = tmp_path / "npd.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "1 1 1\n1 1 -2.0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(path)


def test_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("2 2 2\n1 1 1.0\n2 2 1.0\n")
    with pytest.raises(MatrixMarketError) as exc_info:
        read_matrix_market(path)
    assert exc_info.value.line_no == 1


def test_rejects_entry_count_mismatch(tmp_path):
    path = tmp_path / "cnt.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "2 2 3\n1 1 1.0\n2 2 1.0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(path)


def test_read_vector_with_comments(tmp_path):
    path = tmp_path / "v.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n"
                    "% a comment line\n"
                    "3 1\n1.5\n-2.0\n0.25\n")
    np.testing.assert_array_equal(read_matrix_market(path), [1.5, -2.0, 0.25])


def test_rejects_multicolumn_array(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n"
                    "2 2\n1.0\n2.0\n3.0\n4.0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(path)


def test_rejects_non_integer_coordinate_size_line(tmp_path):
    path = tmp_path / "size.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "% a comment line\n"
                    "2 two 2\n1 1 1.0\n2 2 1.0\n")
    with pytest.raises(MatrixMarketError, match=r"^line 3: ") as exc_info:
        read_matrix_market(path)
    assert exc_info.value.line_no == 3


def test_rejects_non_integer_array_size_line(tmp_path):
    path = tmp_path / "size.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n"
                    "2 x\n1.0\n2.0\n")
    with pytest.raises(MatrixMarketError, match=r"^line 2: ") as exc_info:
        read_matrix_market(path)
    assert exc_info.value.line_no == 2


COORDINATE = "%%MatrixMarket matrix coordinate real symmetric\n"
ARRAY = "%%MatrixMarket matrix array real general\n"

# one file per message of the reader, then files with several faults, whose
# first fault in the reader's order of checks is the one reported
MALFORMED_FILES = [
    ("", 1, "missing MatrixMarket header"),
    ("2 2 2\n1 1 1.0\n2 2 1.0\n", 1, "missing MatrixMarket header"),
    ("%%MatrixMarket matrix coordinate real\n1 1 1\n1 1 1.0\n", 1, "malformed header"),
    ("%%MatrixMarket vector coordinate real symmetric\n1 1 1\n1 1 1.0\n", 1,
     "malformed header"),
    ("%%MatrixMarket matrix coordinate complex symmetric\n1 1 1\n1 1 1.0 0.0\n", 1,
     "unsupported data type 'complex'"),
    (COORDINATE + "% only a comment\n", 2, "missing size line"),
    ("%%MatrixMarket matrix array real symmetric\n2 1\n1.0\n2.0\n", 1,
     "array format supported for vectors only"),
    (ARRAY + "2\n1.0\n2.0\n", 2, "array size line needs 2 fields"),
    (ARRAY + "% a comment\n2 x\n1.0\n2.0\n", 3, "invalid array size line"),
    (ARRAY + "2 2\n1.0\n2.0\n3.0\n4.0\n", 2, "only single-column vectors supported"),
    (ARRAY + "2 1\n1.0\nabc\n", 4, "invalid numeric entry"),
    (ARRAY + "3 1\n1.0\n\n2.0\n", 5, "expected 3 entries, got 2"),
    ("%%MatrixMarket matrix dense real symmetric\n1 1 1\n1 1 1.0\n", 1,
     "unsupported format 'dense'"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n", 1,
     "matrix kind must be symmetric, got 'general'"),
    (COORDINATE + "2 2\n1 1 1.0\n", 2, "coordinate size line needs 3 fields"),
    (COORDINATE + "% a comment\n2 two 2\n1 1 1.0\n2 2 1.0\n", 3, "invalid coordinate size line"),
    (COORDINATE + "2 3 1\n1 1 1.0\n", 2, "matrix must be square"),
    (COORDINATE + "2 2 2\n1 1\n2 2 1.0\n", 3, "coordinate entry needs 3 fields"),
    (COORDINATE + "2 2 2\n1 1 1.0\n2 x 1.0\n", 4, "invalid coordinate entry"),
    (COORDINATE + "2 2 1\n3 1 1.0\n", 3, "index out of range"),
    (COORDINATE + "2 2 2\n1 1 1.0\n1 2 0.5\n", 4, "symmetric storage requires lower triangle"),
    (COORDINATE + "1 1 1\n1 1 -2.0\n", 3, "nonpositive diagonal entry"),
    (COORDINATE + "2 2 3\n1 1 1.0\n\n2 2 1.0\n", 5, "expected 3 stored entries"),
    # several faults
    ("%%MatrixMarket matrix array real symmetric\n% no size line\n", 2, "missing size line"),
    ("%%MatrixMarket matrix dense real symmetric\n", 1, "missing size line"),
    ("%%MatrixMarket matrix dense complex symmetric\n1 1 1\n", 1,
     "unsupported data type 'complex'"),
    ("%%MatrixMarket matrix coordinate real general\n2 2\n", 1,
     "matrix kind must be symmetric, got 'general'"),
    (ARRAY + "2 2 2\n1.0\n", 2, "array size line needs 2 fields"),
    (ARRAY + "3 2\nabc\n", 2, "only single-column vectors supported"),
    (ARRAY + "3 1\nabc\n", 3, "invalid numeric entry"),
    (COORDINATE + "2 3 x\n", 2, "invalid coordinate size line"),
    (COORDINATE + "2 2 1\n1 3 1.0\n", 3, "index out of range"),
    (COORDINATE + "2 2 1\n1 x\n", 3, "coordinate entry needs 3 fields"),
    (COORDINATE + "2 2 1\n1 2 -1.0\n", 3, "symmetric storage requires lower triangle"),
    (COORDINATE + "2 2 1\n2 2 -1.0\n3 1 1.0\n", 3, "nonpositive diagonal entry"),
    (COORDINATE + "2 2 5\n1 1 1.0\n2 1 x\n", 4, "invalid coordinate entry"),
]


@pytest.mark.parametrize("text, line_no, message", MALFORMED_FILES,
                         ids=[f"{k}-{m.split()[0]}" for k, (_, _, m) in enumerate(MALFORMED_FILES)])
def test_every_reader_message_names_its_line(tmp_path, text, line_no, message):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(MatrixMarketError) as exc_info:
        read_matrix_market(path)
    assert exc_info.value.line_no == line_no
    assert str(exc_info.value).endswith(message)
