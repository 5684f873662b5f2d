"""The three benchmark workloads: one op per call, each checked against the
ground truth its inputs were built with.

An op returns None when its verdict matches and a short reason when it does
not; an exception it did not expect propagates and counts as a failure too.
Library calls go through module attributes (``tk.schmidt``), so the traced
run sees them once its wrappers are installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs
import tpskit as tk
import tpskit.cli

RANK_REL = 1e-8  # the benchmark's own rank cutoff for grids it checks itself


def _ranks(states, t):
    """Reason for the first state whose Schmidt rank relative to t is wrong."""
    for w, rank in states:
        got = tk.schmidt(w, t).rank
        if got != rank:
            return f"schmidt rank {got}, expected {rank}"
    return None


def _own_rank(w, basis, k, l):
    s = np.linalg.svd(np.linalg.solve(basis, w).reshape(k, l), compute_uv=False)
    return int(np.count_nonzero(s > RANK_REL * s[0]))


# -- verdict_stream -----------------------------------------------------------

def verdict_op(op):
    kind, k, l = op["kind"], op["k"], op["l"]
    if kind == "tps_new":
        return _ranks(op["states"], tk.tps_new(k, l, op["basis"]))
    if kind in ("observables_unitary", "observables_general"):
        t = tk.tps_from_observables(tk.observable_pair(op["r"], op["t"]))
        if t.shape != (k, l):
            return f"observable grid shape {t.shape}"
        return _ranks(op["states"], t)
    if kind == "complementary":
        p1 = tk.observable_pair(op["r"], op["t"])
        p2 = tk.complementary_pair(p1, tk.verify_standard_complete(p1))
        if not tk.verify_complementary(p1, p2):
            return "complementary pair refused"
        _, _, t = tk.tpp_from_complementary(p1, p2)
        # the pair fixes the algebra pair of op["basis"]: same Schmidt ranks
        return _ranks(op["states"], t)
    if kind == "state_product":
        t = tk.tps_making_state_product(op["w"], k, l)
        return _ranks([(op["w"], 1)] + inputs.states_in(t.basis, op["batch"]), t)
    if kind == "state_entangled":
        t = tk.tps_making_state_entangled(op["w"], k, l)
        return _ranks([(op["w"], 2)] + inputs.states_in(t.basis, op["batch"]), t)
    if kind == "dual_verdict":
        tp, te = tk.dual_verdict(op["w"], k, l)
        return (_ranks([(op["w"], 1)] + inputs.states_in(tp.basis, op["batch"]), tp)
                or _ranks([(op["w"], 2)], te))
    if kind == "poly_deformed":
        return _ranks(op["states"], tk.deformed_poly_tps(op["alpha"], k))
    if kind == "poly_com":
        grid = tk.poly_tps(("X", "x"), k)
        for p, c, rank in op["polys"]:
            q = tk.change_of_variables(tk.poly_state(("x1", "x2"), k, p), k)
            if np.max(np.abs(q.coeffs - c)) > 1e-9:
                return "change of variables changed the coefficients"
            reason = _ranks([(q.vector(), rank)], grid)
            if reason:
                return reason
        return None
    raise ValueError(f"unknown op kind {kind}")


# -- tpp_certify --------------------------------------------------------------

def certify_op(op):
    k, l = op["k"], op["l"]
    t = tk.tps_new(k, l, op["basis"])
    a1, a2 = tk.tps_to_tpp(t)
    verdict = tk.is_tpp(a1, a2)
    if not verdict.is_tpp or (verdict.k, verdict.l) != (k, l):
        return f"factor pair not certified: {verdict}"
    back = tk.tpp_to_tps(a1, a2, seed=op["seed"])
    eq = tk.tps_equivalent(t, back)
    if back.shape != (k, l) or not eq.equivalent or eq.swapped:
        return f"round trip not equivalent: {eq}"
    return None


# -- cli_calls ----------------------------------------------------------------

def cli_answer(op, code, out):
    """Reason the exit code or JSON output of one CLI call is wrong, or None."""
    sub = op["sub"]
    want = 1 if sub == "verify-tpp" and not op["accept"] else 0
    if code != want:
        return f"{sub} exited {code}, expected {want}"
    doc = json.loads(out)
    if sub == "analyze":
        if doc["schmidt"]["rank"] != op["rank"] or doc["product"] != (op["rank"] == 1):
            return f"analyze rank {doc['schmidt']['rank']}, expected {op['rank']}"
    elif sub == "build-tps":
        got = np.array([complex(*z) for z in doc["basis"]["data"]])
        if (doc["k"], doc["l"]) != (4, 4) or np.max(np.abs(got - op["basis"].reshape(-1))) > 1e-8:
            return "build-tps did not return the joint eigenvector grid"
    elif sub == "refactor":
        ranks = []
        for key in ("product_tps", "entangled_tps"):
            m = doc[key]["basis"]
            basis = np.array([complex(*z) for z in m["data"]]).reshape(m["rows"], m["cols"])
            ranks.append(_own_rank(op["w"], basis, 3, 4))
        verdicts = doc["verdicts"]
        if ranks != [1, 2] or not verdicts["product_in_product_tps"] \
                or verdicts["product_in_entangled_tps"]:
            return f"refactor ranks {ranks}, verdicts {verdicts}"
    elif sub == "verify-tpp":
        expected = ({name: True for name in inputs.INCOMPLETE_CHECKS} if op["accept"]
                    else inputs.INCOMPLETE_CHECKS)
        if doc["is_tpp"] != op["accept"] or doc["checks"] != expected:
            return f"verify-tpp checks {doc['checks']}"
    elif op["argv"][1] == "bell":
        if (set(doc["constructed_ranks"].values()) != {1}
                or set(doc["god_given_ranks"].values()) != {2}
                or not all(doc["tpp_checks"].values())
                or not doc["alternative_pair_equivalent"]):
            return "example bell verdicts changed"
    else:
        coeffs = doc["com_schmidt"]["coefficients"]
        if doc["plain_schmidt"]["rank"] != 1 or doc["com_schmidt"]["rank"] != 2 \
                or not np.allclose(coeffs, [1.0, 0.25], rtol=0, atol=1e-12):
            return "example com verdicts changed"
    return None


def cli_subprocess_op(op, env, cwd):
    proc = subprocess.run([sys.executable, "-m", "tpskit.cli", *op["argv"]],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=120)
    return cli_answer(op, proc.returncode, proc.stdout)


def cli_in_process_op(op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tpskit.cli.cli_main(op["argv"])
    return cli_answer(op, code, out.getvalue())


@dataclass(frozen=True)
class Workload:
    name: str
    plan: Callable          # rng -> ops of one pass (cli_calls: rng, files dir)
    run: Callable           # op -> None or a failure reason
    tail_percentile: float  # >= 15 samples beyond it in 60 runs of 30 s (2 GHz Xeon vCPU)
    in_process: Callable | None = None  # cli_calls: the op without a subprocess


WORKLOADS = {
    w.name: w for w in [
        Workload("verdict_stream", inputs.verdict_stream_plan, verdict_op, 99.6),
        Workload("tpp_certify", inputs.tpp_certify_plan, certify_op, 88.0),
        Workload("cli_calls", inputs.cli_plan, cli_subprocess_op, 64.0,
                 in_process=cli_in_process_op),
    ]
}
