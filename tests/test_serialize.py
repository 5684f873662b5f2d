import json

import numpy as np
import pytest

from tpskit import god_given, observable_pair, tps_new
from tpskit.algebra import span_equal, tps_to_tpp
from tpskit.errors import InputError
from tpskit.serialize import (
    algebra_from_json,
    algebra_to_json,
    matrix_from_json,
    matrix_to_json,
    observable_pair_from_json,
    observable_pair_to_json,
    tps_from_json,
    tps_to_json,
    vector_from_json,
)

from util import random_invertible, random_standard_pair


def _through_json(obj):
    """Round-trip through an actual JSON byte string."""
    return json.loads(json.dumps(obj))


def test_matrix_round_trip_bit_exact():
    rng = np.random.default_rng(70)
    m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    back = matrix_from_json(_through_json(matrix_to_json(m)))
    assert np.array_equal(back, m)


def test_tps_round_trip_bit_exact():
    rng = np.random.default_rng(71)
    t = tps_new(2, 3, random_invertible(rng, 6))
    back = tps_from_json(_through_json(tps_to_json(t)))
    assert (back.dim, back.k, back.l) == (t.dim, t.k, t.l)
    assert np.array_equal(back.basis, t.basis)


def test_observable_pair_round_trip_bit_exact():
    rng = np.random.default_rng(72)
    r, t = random_standard_pair(rng, 2, 2)
    p = observable_pair(r, t)
    back = observable_pair_from_json(_through_json(observable_pair_to_json(p)))
    assert np.array_equal(back.r, p.r) and np.array_equal(back.t, p.t)
    assert back.hermitian == p.hermitian


def test_algebra_round_trip_preserves_span():
    a1, _ = tps_to_tpp(god_given(2, 2))
    back = algebra_from_json(_through_json(algebra_to_json(a1)))
    assert back.dim == a1.dim
    assert span_equal(back, a1)


def test_algebra_from_json_reads_the_span_scale_free():
    a1, _ = tps_to_tpp(god_given(2, 3))
    obj = algebra_to_json(a1)
    scales = np.geomspace(1e-200, 1e200, a1.dim)
    obj["span"] = [matrix_to_json(c * m) for c, m in zip(scales, a1.span_basis)]
    back = algebra_from_json(_through_json(obj))
    assert back.dim == a1.dim and back.unital
    assert span_equal(back, a1)


def test_vector_from_json_rejects_wide_matrix():
    obj = matrix_to_json(np.eye(2))
    with pytest.raises(InputError):
        vector_from_json(obj)


def test_matrix_from_json_errors_name_the_field():
    with pytest.raises(InputError, match="basis"):
        matrix_from_json({"rows": 2, "cols": 2}, "basis")
    with pytest.raises(InputError, match="data"):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(InputError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1], [0], [0], [1]]})
    with pytest.raises(InputError):
        matrix_from_json({"rows": -1, "cols": 2, "data": []})
    # each entry is a list of exactly two numbers, nothing of it dropped
    for entry in ([1, 2, 3], [4, 5, "x"], ["1", 0], (1, 0), 1, None):
        with pytest.raises(InputError, match="data"):
            matrix_from_json({"rows": 1, "cols": 1, "data": [entry]}, "basis")
    with pytest.raises(InputError, match="finite"):
        matrix_from_json({"rows": 1, "cols": 1, "data": [[10 ** 400, 0]]})


def test_tps_from_json_validation():
    with pytest.raises(InputError):
        tps_from_json([1, 2, 3])
    good = tps_to_json(god_given(2, 2))
    bad = dict(good)
    bad["dim"] = 5
    with pytest.raises(InputError):
        tps_from_json(bad)


def test_booleans_are_not_integers():
    # each record below is accepted with 1 in place of true
    one = matrix_to_json(np.eye(1))
    grid = {"dim": 4, "k": 2, "l": 2, "basis": matrix_to_json(np.eye(4))}
    bad = [(matrix_from_json, dict(one, rows=True)),
           (matrix_from_json, dict(one, cols=True)),
           (tps_from_json, dict(grid, k=True, l=4)),
           (tps_from_json, dict(grid, k=4, l=True)),
           (tps_from_json, {"dim": True, "k": 1, "l": 1, "basis": one}),
           (algebra_from_json, {"n": True, "span": [one]}),
           (matrix_from_json, dict(one, data=[[True, False]])),
           (matrix_from_json, dict(one, data=[[1.0, False]]))]
    for parse, obj in bad:
        with pytest.raises(InputError):
            parse(_through_json(obj))


def test_algebra_from_json_validation():
    with pytest.raises(InputError):
        algebra_from_json({"n": 2})
    with pytest.raises(InputError):
        algebra_from_json({"n": 2, "span": []})
