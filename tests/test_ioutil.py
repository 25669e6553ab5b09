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
