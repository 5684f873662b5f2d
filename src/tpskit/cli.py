"""Command-line front end.

Exit codes: 0 success, 1 verification failure (a requested certificate does
not hold), 2 malformed or invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .algebra import is_tpp
from .core import DEFAULT_TOL, Tolerance
from .errors import InputError, TpskitError
from .examples import example_bargmann, example_bell, example_center_of_mass
from .refactor import (
    dual_verdict,
    tps_making_state_entangled,
    tps_making_state_product,
)
from .serialize import (
    algebra_from_json,
    observable_pair_from_json,
    schmidt_to_json,
    tps_from_json,
    tps_to_json,
    vector_from_json,
)
from .tps import (
    coefficient_matrix,
    coefficient_schmidt,
    is_inner_product_compatible,
    is_product,
    schmidt,
)
from .observables import tps_from_observables


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"file not found: {path}")
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON in {path}: {e}")


def _parse_tol(text: str | None) -> Tolerance:
    if not text:
        return DEFAULT_TOL
    values = {"eig": DEFAULT_TOL.eig_cluster, "rank": DEFAULT_TOL.rank_rel,
              "res": DEFAULT_TOL.residual}
    for part in text.split(","):
        if "=" not in part:
            raise InputError(f"bad --tol component '{part}', expected name=value")
        name, _, raw = part.partition("=")
        name = name.strip()
        if name not in values:
            raise InputError(f"unknown --tol field '{name}' (use eig, rank, res)")
        try:
            values[name] = float(raw)
        except ValueError:
            raise InputError(f"--tol field '{name}' is not a number")
    try:
        return Tolerance(eig_cluster=values["eig"], rank_rel=values["rank"],
                         residual=values["res"])
    except ValueError as e:
        raise InputError(str(e))


def _parse_shape(text: str) -> tuple[int, int]:
    try:
        k, _, l = text.lower().partition("x")
        return int(k), int(l)
    except ValueError:
        raise InputError(f"bad --shape '{text}', expected KxL")


def _emit(payload):
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_analyze(args, tol: Tolerance) -> int:
    w = vector_from_json(_load_json(args.state), "state")
    t = tps_from_json(_load_json(args.tps), tol)
    try:
        c = coefficient_matrix(w, t)
    except ValueError as e:  # the solve overflows
        raise InputError(str(e))
    report = coefficient_schmidt(c, tol)
    roundtrip = t.basis @ c.reshape(-1)
    _emit({
        "schmidt": schmidt_to_json(report),
        "product": report.rank == 1,
        "tps_shape": [t.k, t.l],
        "compatibility": is_inner_product_compatible(t, tol),
        "residuals": {
            "coefficient_solve": float(np.linalg.norm(roundtrip - w)),
        },
    })
    return 0


def _cmd_build_tps(args, tol: Tolerance) -> int:
    pair = observable_pair_from_json(_load_json(args.observables), tol)
    t = tps_from_observables(pair, tol)
    _emit(tps_to_json(t))
    return 0


def _cmd_refactor(args, tol: Tolerance) -> int:
    w = vector_from_json(_load_json(args.state), "state")
    k, l = _parse_shape(args.shape)
    if args.mode == "product":
        t = tps_making_state_product(w, k, l)
        _emit({"tps": tps_to_json(t),
               "verdict": {"product": is_product(w, t, tol)}})
    elif args.mode == "entangled":
        t = tps_making_state_entangled(w, k, l)
        _emit({"tps": tps_to_json(t),
               "verdict": {"schmidt_rank": schmidt(w, t, tol).rank}})
    else:
        tp, te = dual_verdict(w, k, l)
        _emit({
            "product_tps": tps_to_json(tp),
            "entangled_tps": tps_to_json(te),
            "verdicts": {
                "product_in_product_tps": is_product(w, tp, tol),
                "product_in_entangled_tps": is_product(w, te, tol),
            },
        })
    return 0


def _cmd_verify_tpp(args, tol: Tolerance) -> int:
    a1 = algebra_from_json(_load_json(args.a1), tol)
    a2 = algebra_from_json(_load_json(args.a2), tol)
    verdict = is_tpp(a1, a2, tol)
    _emit({
        "is_tpp": verdict.is_tpp,
        "k": verdict.k,
        "l": verdict.l,
        "checks": verdict.checks,
    })
    return 0 if verdict.is_tpp else 1


def _cmd_example(args, tol: Tolerance) -> int:
    if args.which == "bell":
        if args.degree is not None:
            raise InputError("example bell takes no --degree")
        _emit(example_bell(tol))
        return 0
    run = example_bargmann if args.which == "bargmann" else example_center_of_mass
    degree = {} if args.degree is None else {"d": args.degree}
    try:
        report = run(tol=tol, **degree)
    except ValueError as e:  # a degree the example cannot use
        raise InputError(f"--degree {args.degree}: {e}")
    _emit(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpskit",
        description="Tensor product structures and observable-relative "
                    "separability on finite-dimensional complex spaces.")
    parser.add_argument("--tol", default=None,
                        help="override tolerances: eig=..,rank=..,res=..")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="Schmidt analysis of a state in a TPS")
    p.add_argument("--state", required=True)
    p.add_argument("--tps", required=True)

    p = sub.add_parser("build-tps",
                       help="TPS from a standard complete observable pair")
    p.add_argument("--observables", required=True)

    p = sub.add_parser("refactor", help="man-made TPS for a prescribed state")
    p.add_argument("--state", required=True)
    p.add_argument("--shape", required=True, help="grid shape KxL")
    p.add_argument("--mode", required=True,
                   choices=["product", "entangled", "dual"])

    p = sub.add_parser("verify-tpp", help="certify an algebra pair")
    p.add_argument("--a1", required=True)
    p.add_argument("--a2", required=True)

    p = sub.add_parser("example", help="run a worked scenario")
    p.add_argument("which", choices=["bell", "bargmann", "com"])
    p.add_argument("--degree", type=int, default=None)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = _parse_tol(args.tol)
        handler = {
            "analyze": _cmd_analyze,
            "build-tps": _cmd_build_tps,
            "refactor": _cmd_refactor,
            "verify-tpp": _cmd_verify_tpp,
            "example": _cmd_example,
        }[args.command]
        return handler(args, tol)
    except TpskitError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
