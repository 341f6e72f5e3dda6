"""Command-line front end.

Subcommands: apply (kernel actions on grid functions), opnorm (weighted
operator norms), bmo (BMO-type norms), squarefn (Hardy norms via square
functions), harness (experiment runner with JSON/CSV reports).  A toolkit
error, a file that cannot be read and a file that is not JSON each end a
command with one line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from . import bmo as bmo_mod
from . import harness as harness_mod
from .dyadic import build_lattice, lattice_family
from .errors import WharmError
from .grid import load, save_csv
from .operators import OperatorHandle, apply as op_apply, commutator, riesz, weighted_operator_norm
from .squarefn import TimeGrid, hardy_norm
from .weights import weight_from_spec

KERNEL_CHOICES = [
    "heat-free", "heat-neumann", "heat-dirichlet",
    "riesz-free-1", "riesz-free-2", "riesz-neumann-1", "riesz-neumann-2",
    "riesz-dirichlet-1", "riesz-dirichlet-2", "qt", "psi",
]


def _load_weight(path: str, grid):
    with open(path) as fh:
        spec = json.load(fh)
    return weight_from_spec(spec, grid)


def _handle_from_kernel(name: str, t, backend: str) -> OperatorHandle:
    if name.startswith("riesz"):
        parts = name.split("-")
        family, j = parts[1], int(parts[2])
        return riesz(family, j, backend=backend)
    if name.startswith("heat"):
        family = name.split("-", 1)[1]
        return OperatorHandle("semigroup", family, t=t, backend=backend)
    if name == "qt":
        return OperatorHandle("qt", "free", t=t, backend=backend)
    if name == "psi":
        return OperatorHandle("psi", t=t, backend=backend)
    raise SystemExit(f"unknown kernel {name}")


def cmd_apply(args) -> int:
    f = load(args.input)
    handle = _handle_from_kernel(args.kernel, args.t, args.backend)
    out = op_apply(handle, f)
    save_csv(out, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_opnorm(args) -> int:
    b = load(args.b)
    handle = riesz(args.family, args.j, backend=args.backend)
    if args.op == "commutator":
        handle = commutator(b, handle)
    mu = _load_weight(args.mu, b.grid) if args.mu else None
    lam = _load_weight(getattr(args, "lambda"), b.grid) if getattr(args, "lambda") else None
    value, cert = weighted_operator_norm(handle, b.grid, mu, lam, p=args.p, seed=args.seed)
    print(json.dumps({"norm": value, "certificate": cert}, sort_keys=True))
    return 0


def cmd_bmo(args) -> int:
    f = load(args.input)
    base = f.grid.with_domain("full")
    # generation 0 is a depth of its own, not the default
    lattices = lattice_family(base, args.max_generation)
    w = _load_weight(args.weight, f.grid) if args.weight else None
    flavor = args.flavor
    if flavor == "odd-ext":
        flavor = "odd-ext-half"
    value = bmo_mod.bmo_norm(f, w, flavor, lattices, r=args.r)
    print(json.dumps({"flavor": flavor, "norm": value}, sort_keys=True))
    return 0


def cmd_squarefn(args) -> int:
    f = load(args.input)
    w = _load_weight(args.weight, f.grid)
    flavor = args.flavor if not args.flavor.startswith("classical") else ("classical", int(args.flavor[-1]))
    if args.flavor == "haar":
        # the Haar square function reads no time grid, so --tmin/--tmax are not checked
        lat = build_lattice(f.grid, int(np.log2(f.grid.points_per_axis)))
        value = hardy_norm(f, "haar", w, lattice=lat)
    else:
        value = hardy_norm(f, flavor, w, tg=TimeGrid.geometric(f.grid, t_min=args.tmin, t_max=args.tmax))
    print(json.dumps({"flavor": args.flavor, "hardy_norm": value}, sort_keys=True))
    return 0


def cmd_harness(args) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    report = harness_mod.run(args.experiment, cfg)
    harness_mod.write_report(report, args.out, args.csv)
    print(f"wrote {args.out}" + (f" and {args.csv}" if args.csv else ""))
    return 0 if report.get("pass", True) else 1


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(name)s: %(message)s")
    ap = argparse.ArgumentParser(prog="wharm", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("apply", help="apply a kernel/operator to a grid function")
    p.add_argument("--kernel", required=True, choices=KERNEL_CHOICES)
    p.add_argument("--backend", default="fourier", choices=["fourier", "quadrature"])
    p.add_argument("--input", required=True)
    p.add_argument("--t", type=float, default=0.01)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("opnorm", help="weighted operator norm with certificate")
    p.add_argument("--op", required=True, choices=["riesz", "commutator"])
    p.add_argument("--family", default="neumann", choices=["free", "neumann", "dirichlet"])
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--backend", default="fourier", choices=["fourier", "quadrature"])
    # both ops need b: it fixes the grid, and it is the commutator's symbol
    p.add_argument("--b", required=True)
    p.add_argument("--mu")
    p.add_argument("--lambda", dest="lambda")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_opnorm)

    p = sub.add_parser("bmo", help="BMO-type norms")
    p.add_argument(
        "--flavor",
        required=True,
        choices=[
            "classical-w", "classical-wr", "carleson-haar",
            "carleson-heat-free", "carleson-heat-neumann",
            "unweighted-half", "odd-ext", "even-ext-half",
        ],
    )
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--input", required=True)
    p.add_argument("--weight")
    p.add_argument("--max-generation", type=int, default=None)
    p.set_defaults(fn=cmd_bmo)

    p = sub.add_parser("squarefn", help="Hardy norms via square functions")
    p.add_argument("--flavor", required=True,
                   choices=["heat-free", "heat-neumann", "classical-0", "classical-1", "haar"])
    p.add_argument("--input", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--tmin", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.set_defaults(fn=cmd_squarefn)

    p = sub.add_parser("harness", help="run a reproducible experiment")
    hsub = p.add_subparsers(dest="hcmd", required=True)
    pr = hsub.add_parser("run")
    pr.add_argument("experiment", choices=sorted(harness_mod.EXPERIMENTS))
    pr.add_argument("--config", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("--csv", default=None)
    pr.set_defaults(fn=cmd_harness)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (WharmError, OSError, json.JSONDecodeError) as exc:
        print(f"wharm: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
