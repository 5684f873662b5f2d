import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np

from tpskit.cli import build_parser, cli_main
from tpskit.examples import bell_states, rotation_x_pi, total_sz_squared
from tpskit.serialize import matrix_to_json, observable_pair_to_json, tps_to_json
from tpskit import coefficient_matrix, god_given, observable_pair, tps_new
from tpskit.algebra import tps_to_tpp
from tpskit.serialize import algebra_to_json

from util import count_calls, random_invertible, random_standard_pair


def run_cli(args):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(args)
    return code, out.getvalue(), err.getvalue()


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def state_file(tmp_path, name, vec):
    return write_json(tmp_path / name, matrix_to_json(np.asarray(vec).reshape(-1, 1)))


def test_analyze_bell_state(tmp_path):
    psi = bell_states()["psi_plus"]
    state = state_file(tmp_path, "state.json", psi)
    tps = write_json(tmp_path / "tps.json", tps_to_json(god_given(2, 2)))
    code, out, _ = run_cli(["analyze", "--state", state, "--tps", tps])
    assert code == 0
    report = json.loads(out)
    assert report["schmidt"]["rank"] == 2
    assert report["product"] is False
    assert report["tps_shape"] == [2, 2]
    assert report["compatibility"] is True


def test_analyze_overflowing_solve_exits_2(tmp_path):
    # the coefficients 1e310 overflow: an input error, not a failed certificate
    state = state_file(tmp_path, "state.json", 1e10 * np.ones(4))
    tiny = tps_new(2, 2, 1e-300 * np.eye(4))
    tps = write_json(tmp_path / "tps.json", tps_to_json(tiny))
    code, out, err = run_cli(["analyze", "--state", state, "--tps", tps])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("InputError: ")


def test_analyze_overflowing_singular_values_exits_2(tmp_path):
    # the coefficients 1e308 are finite, their singular value 2e308 is not:
    # an input error, not the zero state
    state = state_file(tmp_path, "state.json", 1e308 * np.ones(4))
    tps = write_json(tmp_path / "tps.json", tps_to_json(god_given(2, 2)))
    code, out, err = run_cli(["analyze", "--state", state, "--tps", tps])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("NumericOverflow: ")


def test_analyze_solves_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(82)
    b, w = random_invertible(rng, 6), rng.normal(size=6) + 1j * rng.normal(size=6)
    state = state_file(tmp_path, "state.json", w)
    tps = write_json(tmp_path / "tps.json", tps_to_json(tps_new(2, 3, b)))
    inverses = count_calls(monkeypatch, np.linalg, "inv")
    solves = count_calls(monkeypatch, np.linalg, "solve")
    code, out, _ = run_cli(["analyze", "--state", state, "--tps", tps])
    assert code == 0 and len(inverses) == 1 and len(solves) == 0
    # the residual is that of the coefficients a fresh grid gives
    t = tps_new(2, 3, b)
    want = np.linalg.norm(t.basis @ coefficient_matrix(w, t).reshape(-1) - w)
    assert json.loads(out)["residuals"]["coefficient_solve"] == float(want)


def test_build_tps_then_analyze(tmp_path):
    pair = observable_pair(rotation_x_pi(), total_sz_squared())
    obs = write_json(tmp_path / "pair.json", observable_pair_to_json(pair))
    code, out, _ = run_cli(["build-tps", "--observables", obs])
    assert code == 0
    tps_path = write_json(tmp_path / "built.json", json.loads(out))
    state = state_file(tmp_path, "state.json", bell_states()["phi_minus"])
    code, out, _ = run_cli(["analyze", "--state", state, "--tps", tps_path])
    assert code == 0
    assert json.loads(out)["schmidt"]["rank"] == 1


def test_build_tps_empty_operators_exit_2(tmp_path):
    empty = {"rows": 0, "cols": 0, "data": []}
    obs = write_json(tmp_path / "pair.json", {"r": empty, "t": empty})
    code, out, err = run_cli(["build-tps", "--observables", obs])
    assert code == 2 and out == "" and err.startswith("DimensionMismatch: ")


def test_refactor_dual(tmp_path):
    rng = np.random.default_rng(80)
    w = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = state_file(tmp_path, "state.json", w)
    code, out, _ = run_cli(["refactor", "--state", state, "--shape", "2x2",
                            "--mode", "dual"])
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["product_in_product_tps"] is True
    assert report["verdicts"]["product_in_entangled_tps"] is False


def test_refactor_modes(tmp_path):
    rng = np.random.default_rng(81)
    w = rng.normal(size=6) + 1j * rng.normal(size=6)
    state = state_file(tmp_path, "state.json", w)
    code, out, _ = run_cli(["refactor", "--state", state, "--shape", "2x3",
                            "--mode", "product"])
    assert code == 0 and json.loads(out)["verdict"]["product"] is True
    code, out, _ = run_cli(["refactor", "--state", state, "--shape", "2x3",
                            "--mode", "entangled"])
    assert code == 0 and json.loads(out)["verdict"]["schmidt_rank"] == 2


def test_verify_tpp_exit_codes(tmp_path):
    a1, a2 = tps_to_tpp(god_given(2, 2))
    f1 = write_json(tmp_path / "a1.json", algebra_to_json(a1))
    f2 = write_json(tmp_path / "a2.json", algebra_to_json(a2))
    code, out, _ = run_cli(["verify-tpp", "--a1", f1, "--a2", f2])
    assert code == 0 and json.loads(out)["is_tpp"] is True
    # a factor against itself fails certification and exits 1
    code, out, _ = run_cli(["verify-tpp", "--a1", f1, "--a2", f1])
    assert code == 1 and json.loads(out)["is_tpp"] is False


def test_verify_tpp_reads_spans_scale_free(tmp_path):
    # one span matrix a trillion times larger than the others spans the
    # same algebra, identity included
    a1, a2 = tps_to_tpp(god_given(2, 3))
    scaled = algebra_to_json(a1)
    scaled["span"][0] = matrix_to_json(1e12 * a1.span_basis[0])
    f1 = write_json(tmp_path / "a1.json", scaled)
    f2 = write_json(tmp_path / "a2.json", algebra_to_json(a2))
    code, out, err = run_cli(["verify-tpp", "--a1", f1, "--a2", f2])
    assert code == 0 and err == ""
    verdict = json.loads(out)
    assert verdict["is_tpp"] and (verdict["k"], verdict["l"]) == (2, 3)


def test_verify_tpp_zero_span_exits_2(tmp_path):
    # a zero matrix spans nothing, so the span lacks the identity and is
    # refused as input, not as a failed certificate
    a2 = write_json(tmp_path / "a2.json", algebra_to_json(tps_to_tpp(god_given(2, 2))[1]))
    zero = write_json(tmp_path / "zero.json", {"n": 4, "span": [matrix_to_json(np.zeros((4, 4)))]})
    code, out, err = run_cli(["verify-tpp", "--a1", zero, "--a2", a2])
    assert code == 2 and out == "" and err.startswith("NonUnital: ")


def test_input_errors_exit_2(tmp_path):
    code, _, err = run_cli(["analyze", "--state", "missing.json",
                            "--tps", "missing.json"])
    assert code == 2 and "not found" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    tps = write_json(tmp_path / "tps.json", tps_to_json(god_given(2, 2)))
    code, _, err = run_cli(["analyze", "--state", str(bad), "--tps", tps])
    assert code == 2 and "malformed" in err


def test_verify_tpp_span_of_unequal_shapes_exits_2(tmp_path):
    a2 = write_json(tmp_path / "a2.json", algebra_to_json(tps_to_tpp(god_given(2, 2))[1]))
    mixed = {"n": 2, "span": [matrix_to_json(np.eye(2)), matrix_to_json(np.eye(3))]}
    a1 = write_json(tmp_path / "a1.json", mixed)
    code, out, err = run_cli(["verify-tpp", "--a1", a1, "--a2", a2])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("InputError: ") and "span[1]" in err


def test_boolean_integer_fields_exit_2(tmp_path):
    # JSON true is not the integer 1
    state = matrix_to_json(np.ones((4, 1)))
    tps = tps_to_json(god_given(2, 2))
    for bad_state, bad_tps in ((dict(state, cols=True), tps),
                               (state, dict(tps, k=True, l=4))):
        code, out, err = run_cli(["analyze",
                                  "--state", write_json(tmp_path / "s.json", bad_state),
                                  "--tps", write_json(tmp_path / "t.json", bad_tps)])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("InputError: ")


def test_bad_tol_and_shape_exit_2(tmp_path):
    state = state_file(tmp_path, "state.json", np.ones(4))
    code, _, err = run_cli(["--tol", "eig=zero", "example", "bell"])
    assert code == 2
    code, _, err = run_cli(["refactor", "--state", state, "--shape", "two",
                            "--mode", "dual"])
    assert code == 2
    code, _, err = run_cli(["--tol", "foo=1", "example", "bell"])
    assert code == 2 and "foo" in err
    # a component without '=' is refused before its name is looked up
    code, _, err = run_cli(["--tol", "rank", "example", "bell"])
    assert code == 2 and "name=value" in err
    # an infinite bound is refused like a non-positive one
    for tol in ("res=inf", "eig=inf"):
        code, _, err = run_cli(["--tol", tol, "example", "bell"])
        assert code == 2 and "finite" in err, tol


def test_example_degree_too_small_exits_2():
    # 0 is not replaced by the default: it is refused like any degree < 3
    for which in ("bargmann", "com"):
        for degree in ("2", "0"):
            code, out, err = run_cli(["example", which, "--degree", degree])
            assert code == 2 and out == "", (which, degree)
            assert err.count("\n") == 1 and "at least 3" in err, (which, degree)


def test_example_bell_refuses_a_degree():
    for degree in ("-3", "0", "4"):
        code, out, err = run_cli(["example", "bell", "--degree", degree])
        assert code == 2 and out == "", degree
        assert err == "InputError: example bell takes no --degree\n", degree


def test_example_outputs_deterministic():
    for which in ("bell", "bargmann", "com"):
        code1, out1, _ = run_cli(["example", which])
        code2, out2, _ = run_cli(["example", which])
        assert code1 == code2 == 0
        assert out1 == out2
        json.loads(out1)


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tpskit.cli", "example", "com", "--degree", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["grid_shape"] == [3, 3]


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def assert_same_json(got, want, path="$"):
    """Same structure, keys, ints, bools and strings; floats within 1e-12."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_same_json(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_json(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12, (path, got, want)
    else:
        assert got == want, path


def test_examples_match_golden_outputs():
    for name, argv in (("example_bell", ["example", "bell"]),
                       ("example_com_degree4", ["example", "com", "--degree", "4"]),
                       ("example_bargmann_degree3",
                        ["example", "bargmann", "--degree", "3"])):
        code, out, err = run_cli(argv)
        assert code == 0 and err == "", name
        with open(os.path.join(GOLDEN, name + ".json")) as fh:
            assert_same_json(json.loads(out), json.load(fh), name)


def test_build_tps_matches_golden_outputs(tmp_path):
    # fixed 2x3 pairs: a self-adjoint one (unitary grid) and a general one
    for name, seed, unitary in (("build_tps_hermitian", 90, True),
                                ("build_tps_general", 91, False)):
        r, t = random_standard_pair(np.random.default_rng(seed), 2, 3, unitary)
        obs = write_json(tmp_path / f"{name}.json",
                         observable_pair_to_json(observable_pair(r, t)))
        code, out, err = run_cli(["build-tps", "--observables", obs])
        assert code == 0 and err == "", name
        with open(os.path.join(GOLDEN, name + ".json")) as fh:
            assert_same_json(json.loads(out), json.load(fh), name)


def test_readme_cli_lines_parse():
    # a flag removed from the parser cannot stay in the docs
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        block = re.search(r"## CLI\n.*?```sh\n(.*?)```", fh.read(), re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("tpskit ")]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except SystemExit:
                raise AssertionError(f"{line}: {err.getvalue()}")
