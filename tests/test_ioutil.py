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
