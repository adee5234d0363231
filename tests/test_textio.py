import numpy as np
import pytest

from transmission.textio import text, write_fields, write_table


def test_numpy_scalars_are_written_as_plain_numbers(tmp_path):
    path = tmp_path / "fields.txt"
    values = {"f64": np.float64(13.336662871798268), "f32": np.float32(0.1),
              "i64": np.int64(7), "inf": np.inf, "py": 0.1, "word": "unavailable"}
    write_fields(path, values)
    lines = path.read_text().splitlines()
    assert lines == ["f64=13.336662871798268", f"f32={float(np.float32(0.1))!r}",
                     "i64=7", "inf=inf", "py=0.1", "word=unavailable"]
    for line, value in zip(lines[:5], list(values.values())[:5]):
        assert float(line.split("=", 1)[1]) == value


def test_table_matches_a_repr_loop(tmp_path):
    # the reference: the row-by-row repr loop the writers replaced
    x = np.concatenate([np.random.default_rng(0).standard_normal(5) * 1e-5,
                        [0.0, -0.0, 1e-300, np.inf, np.nan, 3.0]])
    k = np.arange(len(x))
    tags = np.array(["dirichlet", "neumann"] * 6, dtype="<U10")[:len(x)]
    path = tmp_path / "table.csv"
    write_table(path, "k,x,tag", k, x, tags, last="END,1.5")
    reference = "k,x,tag\n" + "".join(f"{i},{float(v)!r},{t}\n"
                                      for i, v, t in zip(k, x, tags))
    assert path.read_text() == reference + "END,1.5\n"
    assert text(x[0]) == repr(float(x[0]))


def _joined(header, *columns, last=None):
    # the reference: the per-row join of str() values that write_table replaced
    cols = [np.asarray(c).tolist() for c in columns]
    lines = [header] + [",".join(map(str, row)) for row in zip(*cols)]
    return "\n".join(lines + ([] if last is None else [last])) + "\n"


@pytest.mark.parametrize("last", [None, "OUTCOME,Completed,3.0"])
def test_table_matches_the_per_row_join(tmp_path, last):
    columns = ([1, -2, 0, 10 ** 20],
               np.array([7, -1, 0, 2 ** 62], dtype=np.int64),
               [0.1 + 0.2, 1e16, 1e-05, -0.0],
               np.array([np.nan, np.inf, -np.inf, 1e-300]),
               np.array([True, False, True, False]),
               np.array(["dirichlet", "neumann", "interface", ""]))
    header = "py_int,np_int,py_float,np_float,np_bool,tag"
    write_table(tmp_path / "t.csv", header, *columns, last=last)
    assert (tmp_path / "t.csv").read_text() == _joined(header, *columns, last=last)


@pytest.mark.parametrize("last", [None, "END,1.5"])
def test_table_of_zero_rows_matches_the_per_row_join(tmp_path, last):
    write_table(tmp_path / "t.csv", "k,x", [], np.array([]), last=last)
    assert (tmp_path / "t.csv").read_text() == _joined("k,x", [], [], last=last)


@pytest.mark.parametrize("header, columns", [
    ("a,b", ([1.0, 2.0], [1.0])),
    ("a,b", ([1.0, 2.0],)),
    ("a", ([1.0], [2.0])),
])
def test_table_rejects_mismatched_columns(tmp_path, header, columns):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", header, *columns)
    assert not (tmp_path / "t.csv").exists()
