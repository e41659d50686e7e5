import tracemalloc

import numpy as np
import pytest

from imputed_ridge import (
    CsvFormatError,
    Dataset,
    load_csv,
    normalize,
    split,
)
from tests.conftest import random_corrupted


def test_sample_rejects_nonbinary_mask():
    for bad in (0.5, 2.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="0 or 1"):
            Dataset(np.zeros((2, 3)), np.array([[1.0, 1.0, 1.0], [1.0, bad, 0.0]]), np.zeros(2))


def test_sample_rejects_nonzero_masked_value():
    with pytest.raises(ValueError, match="stored as zero"):
        Dataset(np.array([[1.0, 0.0], [1.0, 2.0]]), np.array([[1.0, 0.0], [1.0, 0.0]]), np.zeros(2))


def test_dataset_shape_validation():
    X = np.zeros((4, 3))
    with pytest.raises(ValueError):
        Dataset(X, np.zeros((4, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        Dataset(X, np.zeros((4, 3)), np.zeros(5))


def test_dataset_rejects_nonfinite():
    for bad in (np.inf, -np.inf, np.nan):
        X = np.ones((2, 2))
        X[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Dataset(X, np.ones((2, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.ones((2, 2)), np.ones((2, 2)), np.array([0.0, bad]))


def test_dataset_accepts_empty_and_negative_zero():
    """A 0-row batch and -0.0 at a masked entry (in X or in Z) are valid."""
    ds = Dataset(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
    assert ds.m == 0 and ds.d == 3
    X = np.array([[1.0, -0.0], [2.0, 3.0]])
    Z = np.array([[1.0, -0.0], [1.0, 1.0]])
    Dataset(X, Z, np.zeros(2))


def test_dataset_validation_allocates_one_mask(rng):
    """The checks keep at most one m x d boolean temporary alive at a time.

    Validation runs on every fold and predict batch, so its temporaries
    sit on top of the batch itself (the arrays here are already float64,
    so construction copies none of them).
    """
    ds = random_corrupted(rng, 200_000, 8)
    tracemalloc.start()
    try:
        Dataset(ds.X, ds.Z, ds.y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ds.m * ds.d + 2**19


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_load_csv_basic(tmp_path):
    p = _write(tmp_path / "a.csv", "1,2,3\n4,?,6\n7,8,9\n")
    ds = load_csv(p)
    assert ds.m == 3 and ds.d == 2
    np.testing.assert_array_equal(ds.y, [3.0, 6.0, 9.0])
    assert ds.Z[1, 1] == 0.0 and ds.X[1, 1] == 0.0
    assert ds.Z[0, 1] == 1.0 and ds.X[0, 1] == 2.0


def test_load_csv_missing_tokens(tmp_path):
    """Empty cells and the common NA spellings all mean missing."""
    p = _write(tmp_path / "a.csv", "1,,5\n2,na,5\n3,NaN,5\n4,?,5\n")
    ds = load_csv(p)
    assert (ds.Z[:, 1] == 0.0).all()
    assert (ds.Z[:, 0] == 1.0).all()


def test_load_csv_label_by_name(tmp_path):
    p = _write(tmp_path / "a.csv", "alpha,target,beta\n1,10,2\n3,20,4\n")
    ds = load_csv(p, label_column="target", has_header=True)
    np.testing.assert_array_equal(ds.y, [10.0, 20.0])
    np.testing.assert_array_equal(ds.X[0], [1.0, 2.0])


def test_load_csv_label_by_negative_index(tmp_path):
    p = _write(tmp_path / "a.csv", "1,2,3\n4,5,6\n")
    ds = load_csv(p, label_column=-2)
    np.testing.assert_array_equal(ds.y, [2.0, 5.0])


def test_load_csv_name_without_header(tmp_path):
    p = _write(tmp_path / "a.csv", "1,2\n")
    with pytest.raises(ValueError):
        load_csv(p, label_column="y")


def test_load_csv_missing_label_is_error(tmp_path):
    p = _write(tmp_path / "a.csv", "1,2\n3,?\n")
    with pytest.raises(CsvFormatError):
        load_csv(p)


def test_load_csv_ragged_row(tmp_path):
    p = _write(tmp_path / "a.csv", "1,2,3\n4,5\n")
    with pytest.raises(CsvFormatError, match="row 1"):
        load_csv(p)


def test_load_csv_unparseable_cell(tmp_path):
    p = _write(tmp_path / "a.csv", "1,abc,3\n")
    with pytest.raises(CsvFormatError, match="abc"):
        load_csv(p)


def test_load_csv_nonfinite_cell(tmp_path):
    for cell in ("inf", "-Infinity", "1e999"):
        p = _write(tmp_path / "a.csv", f"0.1,0.2,1\n{cell},0.5,2\n0.3,?,3\n0.4,0.9,4\n")
        with pytest.raises(CsvFormatError, match="row 1, column 0"):
            load_csv(p)
    p = _write(tmp_path / "a.csv", "0.1,0.2,1\n0.3,0.5,inf\n")
    with pytest.raises(CsvFormatError, match="row 1, column 2"):
        load_csv(p)


def test_load_csv_rejects_non_integral_label_column(tmp_path):
    p = _write(tmp_path / "a.csv", "1,2,3\n4,5,6\n")
    for bad in (1.5, True, None, [1]):
        with pytest.raises(ValueError, match="label_column"):
            load_csv(p, label_column=bad)
    np.testing.assert_array_equal(load_csv(p, label_column=np.int64(0)).y, [1.0, 4.0])


_SPELLINGS = ("", "?", " ? ", "na", "NA", "Na", " na", "nan", " nan ", "NaN", "NAN", "  ")


def test_load_csv_bitwise_equals_written_values(tmp_path):
    """Seeded table with every missing spelling, quoting and blank lines.

    Observed values are written with repr, so X and y must equal them
    bit for bit (signed zeros included) and Z must be the written mask.
    """
    rng = np.random.default_rng(11)
    m, width, label = 400, 6, 2
    values = rng.standard_normal((m, width)) * 10.0 ** rng.integers(-8, 9, (m, width))
    values[rng.random((m, width)) < 0.02] = 0.0
    values[rng.random((m, width)) < 0.02] = -0.0
    missing = rng.random((m, width)) < 0.25
    missing[:, label] = False
    lines = [",".join(f"c{j}" if j != label else "target" for j in range(width))]
    for i in range(m):
        cells = []
        for j in range(width):
            cell = (_SPELLINGS[rng.integers(len(_SPELLINGS))] if missing[i, j]
                    else " " * int(rng.integers(2)) + repr(float(values[i, j])) + " " * int(rng.integers(2)))
            cells.append(f'"{cell}"' if rng.random() < 0.2 else cell)
        lines.append(",".join(cells))
        if rng.random() < 0.05:
            lines.append("" if rng.random() < 0.5 else "   ")
    p = _write(tmp_path / "a.csv", "\n".join(lines) + "\n")

    X = np.delete(np.where(missing, 0.0, values), label, axis=1)
    Z = np.delete(~missing, label, axis=1).astype(float)
    for column in ("target", label, label - width):
        ds = load_csv(p, label_column=column, has_header=True)
        assert ds.X.tobytes() == X.tobytes() and ds.X.shape == X.shape
        assert ds.Z.tobytes() == Z.tobytes()
        assert ds.y.tobytes() == values[:, label].tobytes()
        assert ds.X.flags.c_contiguous and ds.Z.flags.c_contiguous


_LATE = 1500  # faulty data row of a 2,000-row table


@pytest.mark.parametrize(
    "faults, message",
    [
        ({(_LATE, None): "ragged"}, f"row {_LATE}: expected 5 cells, found 4"),
        ({(_LATE, 3): "abc"}, f"row {_LATE}, column 3: cannot parse 'abc' as a number"),
        ({(_LATE, 3): " inf"}, f"row {_LATE}, column 3: 'inf' is not a finite number"),
        ({(_LATE, 3): "-nan"}, f"row {_LATE}, column 3: '-nan' is not a finite number"),
        ({(_LATE, 2): "x1"}, f"row {_LATE}, column 2: cannot parse 'x1' as a number"),
        ({(_LATE, 2): "-Infinity"}, f"row {_LATE}, column 2: '-Infinity' is not a finite number"),
        ({(_LATE, 2): "-nan"}, f"row {_LATE}, column 2: '-nan' is not a finite number"),
        ({(_LATE, 2): " ? "}, f"row {_LATE}: label value is missing"),
        # the earliest faulty row wins, then the label, then columns in order
        ({(_LATE, 3): "abc", (1800, 0): "inf"}, f"row {_LATE}, column 3: cannot parse 'abc' as a number"),
        ({(_LATE, 0): "inf", (1800, 3): "abc"}, f"row {_LATE}, column 0: 'inf' is not a finite number"),
        ({(_LATE, 3): "-nan", (1800, 2): "?"}, f"row {_LATE}, column 3: '-nan' is not a finite number"),
        ({(_LATE, 0): "abc", (1600, None): "ragged"}, f"row {_LATE}, column 0: cannot parse 'abc' as a number"),
        ({(_LATE, None): "ragged", (1600, 1): "abc"}, f"row {_LATE}: expected 5 cells, found 4"),
        ({(_LATE, 4): "abc", (_LATE, 2): "nan"}, f"row {_LATE}: label value is missing"),
        ({(_LATE, 4): "inf", (_LATE, 1): "abc"}, f"row {_LATE}, column 1: cannot parse 'abc' as a number"),
    ],
)
def test_load_csv_late_fault(tmp_path, faults, message):
    """A fault deep in the file names the same row and column as a row-by-row read."""
    rng = np.random.default_rng(5)
    rows = [[repr(v) for v in row] for row in rng.standard_normal((2000, 5)).tolist()]
    for (i, j), cell in faults.items():
        if j is None:
            rows[i].pop()
        else:
            rows[i][j] = cell
    p = _write(tmp_path / "a.csv", "".join(",".join(r) + "\n" for r in rows))
    with pytest.raises(CsvFormatError) as err:
        load_csv(p, label_column=2)
    assert str(err.value) == message


def test_load_csv_empty_file(tmp_path):
    p = _write(tmp_path / "a.csv", "\n\n")
    with pytest.raises(CsvFormatError):
        load_csv(p)


def test_normalize_observed_entries_only():
    # feature 0 observed range [2, 6], the masked 100 must not leak in
    X = np.array([[2.0, 1.0], [6.0, 2.0], [0.0, 3.0]])
    Z = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
    ds = Dataset(X * Z, Z, np.array([0.0, 5.0, 10.0]))
    n = normalize(ds)
    np.testing.assert_allclose(n.X[:, 0], [0.0, 1.0, 0.0])
    np.testing.assert_allclose(n.X[:, 1], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(n.y, [0.0, 0.5, 1.0])


def test_normalize_keeps_masked_zero(rng):
    X = rng.uniform(-5, 5, (30, 4))
    Z = (rng.random((30, 4)) > 0.3).astype(float)
    Z[0] = 1.0  # keep every feature observed at least once
    ds = Dataset(X * Z, Z, rng.random(30))
    n = normalize(ds)
    assert np.all(n.X[n.Z == 0.0] == 0.0)
    assert n.X.min() >= 0.0 and n.X.max() <= 1.0


def test_normalize_constant_feature_warns():
    X = np.array([[3.0, 1.0], [3.0, 2.0]])
    ds = Dataset(X, np.ones((2, 2)), np.array([1.0, 2.0]))
    with pytest.warns(UserWarning, match="constant"):
        n = normalize(ds)
    assert np.all(n.X[:, 0] == 0.0)


def test_normalize_constant_labels_warn():
    ds = Dataset(np.array([[0.0], [1.0]]), np.ones((2, 1)), np.array([4.0, 4.0]))
    with pytest.warns(UserWarning):
        n = normalize(ds)
    assert np.all(n.y == 0.0)


def test_normalize_unobserved_feature_rejected():
    Z = np.array([[1.0, 0.0], [1.0, 0.0]])
    ds = Dataset(np.ones((2, 2)) * Z, Z, np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="feature 1"):
        normalize(ds)


def test_split_partitions(rng):
    X = rng.random((20, 3))
    ds = Dataset(X, np.ones((20, 3)), np.arange(20.0))
    tr, te = split(ds, 12, seed=5)
    assert tr.m == 12 and te.m == 8
    together = np.sort(np.concatenate([tr.y, te.y]))
    np.testing.assert_array_equal(together, np.arange(20.0))


def test_split_deterministic(rng):
    X = rng.random((40, 2))
    ds = Dataset(X, np.ones((40, 2)), rng.random(40))
    a1, _ = split(ds, 20, seed=9)
    a2, _ = split(ds, 20, seed=9)
    np.testing.assert_array_equal(a1.X, a2.X)
    b1, _ = split(ds, 20, seed=10)
    assert not np.array_equal(a1.X, b1.X)


def test_split_size_validation():
    ds = Dataset(np.ones((3, 1)), np.ones((3, 1)), np.ones(3))
    with pytest.raises(ValueError):
        split(ds, 3, seed=0)
    with pytest.raises(ValueError):
        split(ds, 0, seed=0)
