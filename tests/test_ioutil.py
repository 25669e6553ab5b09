import csv
import io
import json

import numpy as np
import pytest

from axisym import ioutil


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_loads(text):
    return json.loads(text, parse_constant=_reject_constant)


def test_dumps_strict_round_trip():
    obj = {"f": np.float64(0.1), "g": np.float32(1.5), "tiny": 1e-300,
           "seq": [np.int64(3), np.bool_(True), np.bool_(False), None, "x"]}
    back = strict_loads(ioutil.dumps(obj, indent=2))
    assert back == {"f": 0.1, "g": 1.5, "tiny": 1e-300,
                    "seq": [3, True, False, None, "x"]}
    assert back["seq"][1] is True and back["seq"][2] is False


@pytest.mark.parametrize("bad", [float("inf"), -np.inf, np.nan,
                                 np.float32("inf")])
def test_dumps_refuses_non_finite(bad):
    with pytest.raises(ValueError):
        ioutil.dumps({"x": [1.0, bad]})


@pytest.mark.parametrize("bad", [object(), np.array([1.0, 2.0]),
                                 np.array(1.0), {1, 2}],
                         ids=["object", "array", "0d_array", "set"])
def test_dumps_refuses_what_it_cannot_render(bad):
    # a str() fallback would write a memory address or a lossy array text
    with pytest.raises(TypeError, match="no JSON rendering"):
        ioutil.dumps({"a": bad, "b": 1.0})


def test_json_file_round_trip(tmp_path):
    obj = {"b": [1, 0.1, None], "a": {"x": True}}
    path = tmp_path / "obj.json"
    ioutil.write_json(path, obj)
    assert path.read_bytes() == ioutil.dumps(obj, indent=2).encode("utf-8")
    assert ioutil.read_json(path) == obj
    path.write_bytes(b'{"x": "\xff"}')
    with pytest.raises(ValueError):
        ioutil.read_json(path)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _reference_csv(header, rows, comment=None):
    """The csv.writer rendering of rows whose cells are already text, with
    the "# " comment line: the table format that write_csv keeps."""
    buf = io.StringIO()
    if comment:
        buf.write("# " + comment + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _g(x):
    return "%.17g" % x


# -0.0, subnormals, the extremes of a double and values that need all 17
# significant digits
_SPECIAL = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308,
                     2.225e-310, 1e-300, -1e-300, 0.1, 1 / 3, -2 / 3,
                     1.7976931348623157e308, -1.7976931348623157e308,
                     np.pi, 1e16, 123456789.0, -7.0])


def _special_values(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.choice(_SPECIAL, size=shape) * rng.choice([1.0, -1.0], size=shape)


def test_write_csv_bytes_match_the_csv_writer_rendering(tmp_path):
    # a field, a profile, mode.csv and the annulus radial_mean and solution
    # rows, each against the csv.writer and "%.17g" rendering of its rows
    from axisym import cli, fields
    from axisym.geometry import build_mesh, surface
    from axisym.solvers import (annulus_boundary_from_vector,
                                solve_annulus_example)

    mesh = build_mesh(surface("sphere"), 8, 6)
    values = _special_values((8, 6, 3), 0)
    field = fields.DiscreteField(mesh, surface("sphere"), values)
    path = tmp_path / "field.csv"
    fields.field_to_csv(field, path, "config_sha256=abc seed=3")
    rows = ((str(i), str(j), _g(mesh.phi[i]), _g(mesh.t[j]), _g(v[0]),
             _g(v[1]), _g(v[2]))
            for i in range(8) for j, v in enumerate(values[i]))
    assert path.read_bytes() == _reference_csv(
        ["phi_index", "t_index", "phi", "t", "mx", "my", "mz"], rows,
        "config_sha256=abc seed=3")

    t = _special_values(6, 1)
    profile = fields.ProfileField(t, _special_values((6, 3), 2), "symmetric")
    buf = io.StringIO()
    fields.profile_to_csv(profile, buf, "c")
    rows = ((str(j), _g(t[j]), *map(_g, profile.values[j])) for j in range(6))
    assert buf.getvalue().encode("utf-8") == _reference_csv(
        ["t_index", "t", "gx", "gy", "gz"], rows, "c")

    dec = fields.ModeDecomposition(
        _special_values((6, 2), 3) * 1e-160, _special_values((6, 2), 4) * 1e-160,
        _special_values((6, 2), 5) * 1e-160, _special_values(6, 6), 0.0,
        None, None)
    cli._write_mode_csv(tmp_path / "mode.csv", t, dec, "c")
    rows = ([_g(t[j]), _g(np.linalg.norm(dec.alpha_perp[j])),
             _g(np.linalg.norm(dec.beta_perp[j])),
             _g(float(np.dot(dec.alpha_perp[j], dec.beta_perp[j]))),
             _g(dec.eta[j]), _g(np.linalg.norm(dec.mean_perp[j]))]
            for j in range(6))
    assert (tmp_path / "mode.csv").read_bytes() == _reference_csv(
        ["t", "alpha_perp_norm", "beta_perp_norm", "alpha_dot_beta", "eta",
         "mean_perp_norm"], rows, "c")

    out = tmp_path / "ann"
    assert cli.main(["annulus", "--kappa", "2", "--n-t", "9", "--n-phi", "8",
                     "--inner", "0.3,-1,2", "--outer", "0,0,1",
                     "--out", str(out)]) == 0
    rep = solve_annulus_example(9, 8, 2.0,
                                annulus_boundary_from_vector(8, [0.3, -1, 2]),
                                annulus_boundary_from_vector(8, [0, 0, 1]))
    rows = ((_g(t), _g(np.linalg.norm(m)))
            for t, m in zip(rep.t_grid, rep.mean_perp))
    assert (out / "radial_mean.csv").read_bytes() == _reference_csv(
        ["t", "mean_perp_norm"], rows)
    rows = ((str(i), str(j), _g(rep.phi[i]), _g(rep.t_grid[j]), _g(v[0]),
             _g(v[1]), _g(v[2]))
            for i in range(len(rep.phi)) for j, v in enumerate(rep.solution[i]))
    assert (out / "solution.csv").read_bytes() == _reference_csv(
        ["phi_index", "t_index", "phi", "t", "mx", "my", "mz"], rows)


def test_csv_round_trip_is_bit_exact():
    values = _special_values(40, 7)
    buf = io.StringIO()
    ioutil.write_csv(buf, ["k", "v", "w"], [np.arange(40), values, -values])
    buf.seek(0)
    table = ioutil.read_csv(buf, ["w", "k", "v"])
    assert table.dtype == np.float64 and table.shape == (40, 3)
    assert table.tobytes() == np.stack([-values, np.arange(40.0), values],
                                       axis=-1).tobytes()


def test_write_csv_broadcasts_the_columns():
    buf = io.StringIO()
    ioutil.write_csv(buf, ["i", "j", "x"], [np.arange(2)[:, None],
                                            np.arange(3), np.full((2, 3), 0.5)])
    assert buf.getvalue() == ("i,j,x\n0,0,0.5\n0,1,0.5\n0,2,0.5\n"
                              "1,0,0.5\n1,1,0.5\n1,2,0.5\n")


def test_read_csv_layout(tmp_path):
    # comments anywhere, one holding U+FFFD, blank lines, CRLF endings,
    # spaces around numbers, quoted cells, rows longer than the header, and
    # columns that are not read, whatever they hold
    path = tmp_path / "t.csv"
    path.write_bytes("# a comment \ufffd\r\n\r\n\"x\",\"t\",extra\r\n"
                     "1, 2 ,a\r\n# more\r\n\r\n\"3\",4,\"b,\nc\",d\r\n"
                     .encode("utf-8"))
    np.testing.assert_array_equal(ioutil.read_csv(path, ["t", "x"]),
                                  [[2.0, 1.0], [4.0, 3.0]])
    path.write_text("# only a header\nt,x\n", encoding="utf-8")
    assert ioutil.read_csv(path, ["t", "x"]).shape == (0, 2)


@pytest.mark.parametrize("data, message", [
    (b"t,x\n1,\xff2\n", "line 2 is not UTF-8 text"),
    (b"# \xfe\nt,x\n", "line 1 is not UTF-8 text"),
    (b"t,y\n1,2\n", "no x column"),
    (b"t,x\n1,2\n3\n", "data row 2 has no x cell"),
    (b"t,x\n1,2\n\n3,word\n", "data row 2: x 'word' is not a number"),
    (b"t,x\n1,1e400\n", "data row 1: x '1e400' is not finite"),
    (b"t,x\nnan,1\n", "data row 1: t 'nan' is not finite"),
    (b"t,x\n1,-inf\n", "data row 1: x '-inf' is not finite"),
    (b't,x\n1,"2 3"\n', "data row 1: x '2 3' is not a number"),
    (b"t,x\n1,2\n3," + b"4" * 5000 + b"\n",
     "data row 2: x '" + "4" * 40 + "...' is not finite"),
    (b"t,x\n1,2\n3," + b"4" * 200_000 + b"\n",
     "line 3: field larger than field limit (131072)"),
    (b"t,x\n1,2\n3," + b"7" * 5000 + b"e\n",
     "data row 2: x '" + "7" * 40 + "...' is not a number"),
    (b"t,\"\n\n" + b"x" * 200_000 + b"\"\n1,2\n",
     "line 3: field larger than field limit (131072)"),
], ids=["not_utf8", "comment_not_utf8", "missing_column", "short_row", "word",
        "overflow", "nan", "inf", "quoted", "long_cell", "huge_cell",
        "long_word", "huge_quoted_header"])
def test_read_csv_error_names_the_line_column_or_cell(tmp_path, data, message):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError) as err:
        ioutil.read_csv(path, ["t", "x"])
    assert str(err.value) == message


def test_read_csv_nul_byte_is_not_a_number(tmp_path):
    # the csv module refuses NUL before Python 3.11, and reads it as text
    # from 3.11 on
    path = tmp_path / "t.csv"
    path.write_bytes(b"t,x\n1,2\x00\n")
    with pytest.raises(ValueError) as err:
        ioutil.read_csv(path, ["t", "x"])
    assert str(err.value) in ("line 2: line contains NUL",
                              "data row 1: x '2\\x00' is not a number")


def test_read_csv_not_utf8_names_its_line(tmp_path):
    # past the decoder's first chunk, the line is still the one with the byte
    path = tmp_path / "t.csv"
    path.write_bytes(b"t,x\n" + b"1,2\n" * 5000 + b"3,\xc3\n" + b"1,2\n" * 10)
    with pytest.raises(ValueError, match="^line 5002 is not UTF-8 text$"):
        ioutil.read_csv(path, ["t", "x"])


def test_read_csv_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        ioutil.read_csv(tmp_path / "missing.csv", ["t"])
