import json

import numpy as np
import pytest

from loewnerlab.errors import UsageError
from loewnerlab.fileio import (
    dump_json,
    dump_samples_csv,
    load_gridfunction_csv,
    load_matrix,
    load_matrix_csv,
    load_matrix_json,
    load_measure,
    load_polytope,
    load_samples_csv,
    matrix_to_obj,
    measure_to_obj,
    parse_point_arg,
)
from loewnerlab.hermitian import HermitianMatrix
from loewnerlab.measures import RadonMeasure01


@pytest.fixture
def complex_matrix():
    return HermitianMatrix(np.array([[2.0, 1.0 - 0.5j], [1.0 + 0.5j, 3.0]]))


def test_matrix_json_roundtrip(tmp_path, complex_matrix):
    p = tmp_path / "m.json"
    p.write_text(dump_json(matrix_to_obj(complex_matrix)))
    back = load_matrix_json(str(p))
    assert np.array_equal(back.entries, complex_matrix.entries)


def test_matrix_json_format_shape(tmp_path, complex_matrix):
    obj = matrix_to_obj(complex_matrix)
    assert obj["n"] == 2
    assert obj["entries"][0][1] == [1.0, -0.5]


def test_matrix_csv(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("2.0, 1.0\n1.0, 3.0\n")
    m = load_matrix_csv(str(p))
    np.testing.assert_array_equal(m.entries.real, [[2.0, 1.0], [1.0, 3.0]])
    # extension dispatch picks the CSV reader
    same = load_matrix(str(p))
    assert np.array_equal(same.entries, m.entries)


def test_matrix_csv_bad_shape(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(UsageError, match="line 2"):
        load_matrix_csv(str(p))


def test_matrix_csv_not_symmetric(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,2.0\n0.0,1.0\n")
    with pytest.raises(UsageError, match="Hermitian"):
        load_matrix_csv(str(p))


def test_corrupt_json_names_path_and_line(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"n": 1,\n  "entries": [[[1.0, 0.0]]')
    with pytest.raises(UsageError) as exc_info:
        load_matrix_json(str(p))
    msg = str(exc_info.value)
    assert "bad.json" in msg and "line" in msg


def test_matrix_json_validation(tmp_path):
    cases = [
        {"entries": [[[1.0, 0.0]]]},                      # missing n
        {"n": 0, "entries": []},                          # n < 1
        {"n": 2, "entries": [[[1.0, 0.0]]]},              # row count
        {"n": 1, "entries": [[[1.0]]]},                   # not an [re, im] pair
        {"n": 1, "entries": [[["x", 0.0]]]},              # non-numeric
        {"n": 1, "entries": [[[1.0, 0.5]]]},              # 1x1 with imag: not Hermitian
    ]
    for k, obj in enumerate(cases):
        p = tmp_path / f"m{k}.json"
        p.write_text(json.dumps(obj))
        with pytest.raises(UsageError):
            load_matrix_json(str(p))


def test_missing_file():
    with pytest.raises(UsageError, match="cannot read"):
        load_matrix_json("/nonexistent/nope.json")


def test_measure_roundtrip_01(tmp_path):
    mu = RadonMeasure01(atoms=((0.0, 0.5), (1.0, 0.25), (0.5, 0.25)))
    p = tmp_path / "mu.json"
    p.write_text(dump_json(measure_to_obj(mu)))
    back = load_measure(str(p))
    assert isinstance(back, RadonMeasure01)
    assert back.atoms == mu.atoms
    # quad nodes are read as atoms, after the listed atoms
    q = tmp_path / "q.json"
    q.write_text('{"atoms": [{"lambda": 0.0, "w": 0.5}, {"lambda": 1.0, "w": 0.25}],'
                 ' "quad": [{"lambda": 0.5, "w": 0.25}]}')
    assert load_measure(str(q)).atoms == mu.atoms


def test_measure_roundtrip_inf(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"mass0": 0.3, "massInf": 0.2, "interior": [{"s": 1.5, "w": 0.5}]}')
    back = load_measure(str(p))
    assert isinstance(back, RadonMeasure01)
    assert back.atoms == ((0.0, 0.3), (0.6, 0.5), (1.0, 0.2))
    assert back.alpha == 0.3 and back.beta == 0.2
    (s, w), = back.interior
    assert s == pytest.approx(1.5, rel=1e-15) and w == 0.5


def test_measure_json_wire_format(tmp_path):
    obj01 = measure_to_obj(RadonMeasure01(atoms=((0.25, 1.0),)))
    assert obj01 == {"atoms": [{"lambda": 0.25, "w": 1.0}], "quad": []}
    # a half-line file is written back in the lambda schema
    p = tmp_path / "m.json"
    p.write_text('{"mass0": 0.5, "interior": [{"s": 1.0, "w": 0.5}]}')
    obj = measure_to_obj(load_measure(str(p)))
    assert obj == {"atoms": [{"lambda": 0.0, "w": 0.5}, {"lambda": 0.5, "w": 0.5}],
                   "quad": []}


def test_measure_rejects_unknown_shape(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"weights": [1, 2]}')
    with pytest.raises(UsageError):
        load_measure(str(p))
    p.write_text('{"atoms": [{"lambda": 2.0, "w": 1.0}]}')
    with pytest.raises(UsageError):  # lambda outside [0, 1]
        load_measure(str(p))
    p.write_text('{"quad": [{"lambda": 0.0, "w": 1.0}]}')
    with pytest.raises(UsageError, match="interior"):  # quad nodes must be interior
        load_measure(str(p))
    p.write_text('{"atoms": [{"lambda": 0.5, "w": 1.0}], "quad": [{"lambda": 0.5, "w": 1.0}]}')
    with pytest.raises(UsageError, match="duplicate"):  # an atom and a node at one lam
        load_measure(str(p))
    p.write_text('{"massInf": 0.5, "interior": [{"s": 1e17, "w": 0.5}]}')
    with pytest.raises(UsageError, match="massInf"):  # s = 1e17 rounds to lam = 1
        load_measure(str(p))


def test_samples_csv_roundtrip_with_header(tmp_path):
    pairs = [(0.5, 2.25), (1.0, 1.0), (2.0, 4.0)]
    p = tmp_path / "s.csv"
    p.write_text(dump_samples_csv(pairs))
    back = load_samples_csv(str(p))
    assert back == pairs


def test_samples_csv_no_header_also_fine(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    assert load_samples_csv(str(p)) == [(1.0, 2.0), (3.0, 4.0)]


def test_samples_csv_errors(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("t,value\n")
    with pytest.raises(UsageError, match="no sample rows"):
        load_samples_csv(str(p))
    p.write_text("1.0\n")
    with pytest.raises(UsageError, match="two columns"):
        load_samples_csv(str(p))
    p.write_text("t,value\n1.0,oops\n")
    with pytest.raises(UsageError, match="line 2"):
        load_samples_csv(str(p))


def test_gridfunction_csv(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("x,y\n0.0,1.0\n1.0,3.0\n2.0,2.0\n")
    gf = load_gridfunction_csv(str(p))
    np.testing.assert_array_equal(gf.xs, [0.0, 1.0, 2.0])
    p.write_text("x,y\n1.0,1.0\n1.0,2.0\n")  # not strictly increasing
    with pytest.raises(UsageError):
        load_gridfunction_csv(str(p))


def test_polytope_with_and_without_point(tmp_path):
    p = tmp_path / "poly.json"
    p.write_text('{"vertices": [[0, 0], [1, 0], [0, 1]], "point": [0.25, 0.25]}')
    verts, point = load_polytope(str(p))
    assert verts.shape == (3, 2)
    np.testing.assert_array_equal(point, [0.25, 0.25])
    p.write_text('{"vertices": [[0, 0], [1, 0]]}')
    _, point = load_polytope(str(p))
    assert point is None


def test_polytope_validation(tmp_path):
    p = tmp_path / "poly.json"
    for text in ('{"vertices": []}',
                 '{"vertices": [[0, 0], [1]]}',
                 '{"vertices": [[0, 0]], "point": [1]}',
                 '{"nope": 1}'):
        p.write_text(text)
        with pytest.raises(UsageError):
            load_polytope(str(p))


def test_parse_point_arg():
    np.testing.assert_array_equal(parse_point_arg("1.0, 2.5", 2), [1.0, 2.5])
    np.testing.assert_array_equal(parse_point_arg("1;2;3", 3), [1.0, 2.0, 3.0])
    with pytest.raises(UsageError):
        parse_point_arg("1.0", 2)
    with pytest.raises(UsageError):
        parse_point_arg("a,b", 2)
    with pytest.raises(UsageError):
        parse_point_arg("inf,0", 2)


def test_dump_json_returns_text_without_path():
    text = dump_json({"a": 1})
    assert json.loads(text) == {"a": 1}
    assert text.endswith("\n")
