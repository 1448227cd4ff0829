import json
import math

import numpy as np
import pytest

from cbflab.runio import write_json


@pytest.mark.parametrize(
    "value, plain",
    [
        (np.float32(0.1), float(np.float32(0.1))),
        (np.float64(0.1), 0.1),
        (np.int64(7), 7),
        (np.bool_(True), True),
        (np.array(2.5), 2.5),
        (
            np.array([[1.0, math.nan], [math.inf, -math.inf]]),
            [[1.0, math.nan], [math.inf, -math.inf]],
        ),
        ((np.int64(1), (np.float64(2.5), np.arange(2))), [1, [2.5, [0, 1]]]),
    ],
    ids=["float32", "float64", "int64", "bool", "0-d-array", "array-nan-inf", "nested-tuples"],
)
def test_write_json_writes_numpy_values_as_python_values(tmp_path, value, plain):
    # the bytes are those of the same payload built from Python values
    path = tmp_path / "v.json"
    write_json(path, {"v": value})
    assert path.read_text() == json.dumps({"v": plain}, indent=2, sort_keys=True) + "\n"


def test_write_json_rejects_other_objects(tmp_path):
    with pytest.raises(TypeError, match="complex is not JSON serializable"):
        write_json(tmp_path / "v.json", {"v": 1j})
