"""Command-line front end.

Every run writes CSV (fixed column order, %.12g) and/or JSON artifacts; the
JSON carries a manifest with the command line, parameter record, seed, tool
version, wall time and a digest of the CSV body, so identical invocations
are verifiable byte for byte.  Exit status: 0 success, 1 solver failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import lru_cache, partial
from itertools import combinations
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__, bethe, fss, liebwu, models, reference_tables, spectra, ybx
from .fock import Sector
from .models import ModelParams


def _fmt(x) -> str:
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def _csv_body(rows: List[Dict]) -> str:
    if not rows:
        return ""
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in header))
    return "\n".join(lines) + "\n"


def emit(args, rows: List[Dict], deviations: Optional[List[Dict]] = None) -> None:
    body = _csv_body(rows)
    manifest = {
        "command": args._command_line,
        "parameters": {k: v for k, v in vars(args).items()
                       if not k.startswith("_") and k != "func" and v is not None},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_time_s": round(time.time() - args._t0, 6),
        "csv_sha256": hashlib.sha256(body.encode()).hexdigest(),
    }
    payload = {
        "manifest": manifest,
        "parameters": manifest["parameters"],
        "rows": rows,
        "deviations": deviations or [],
    }
    fmt = args.format
    if args.out:
        if fmt in ("csv", "both"):
            with open(args.out + ".csv", "w") as f:
                f.write(body)
        if fmt in ("json", "both"):
            with open(args.out + ".json", "w") as f:
                json.dump(payload, f, indent=1)
                f.write("\n")
    else:
        if fmt == "json":
            json.dump(payload, sys.stdout, indent=1)
            sys.stdout.write("\n")
        else:
            sys.stdout.write(body)


def _parse_sizes(text: str) -> List[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _parse_sector(text: str) -> Sector:
    try:
        a, b = text.split(",")
        return Sector(int(a), int(b))
    except ValueError:
        raise ValueError(f"--sector takes n_up,n_down, got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args) -> List[Dict]:
    params = ModelParams(L=args.L, U=args.U)
    sector = _parse_sector(args.sector) if args.sector else None
    h = models.build_model(args.model, params, sector=sector)
    rep = spectra.spectrum(h, k=args.k, sector=sector)
    rows = []
    i = 0
    for g in rep.degeneracies:
        rows.append({"eigenvalue": float(rep.eigenvalues[i]), "degeneracy": int(g)})
        i += g
    return rows


def cmd_compare(args) -> List[Dict]:
    spectra.check_tolerance(args.tol)
    params = ModelParams(L=args.L, U=args.U)
    ra = spectra.spectrum(models.build_model(args.model_a, params))
    rb = spectra.spectrum(models.build_model(args.model_b, params))
    rep = spectra.compare_spectra(ra, rb, args.tol)
    return [{"model_a": args.model_a, "model_b": args.model_b, "L": args.L,
             "U": args.U, "match": rep.match, "deviation": rep.deviation,
             "tol": rep.tol}]


def cmd_bethe(args) -> List[Dict]:
    roots = bethe.state_roots(args.state, args.L, args.U)
    e = bethe.energy(roots)
    rows = [{"quantity": "energy", "index": 0, "value": e},
            {"quantity": "residual_norm", "index": 0, "value": roots.residual_norm},
            {"quantity": "iterations", "index": 0, "value": float(roots.iterations)}]
    rows += [{"quantity": "k", "index": i, "value": float(v)} for i, v in enumerate(roots.k)]
    rows += [{"quantity": "mu", "index": i, "value": float(v)} for i, v in enumerate(roots.mu)]
    return rows


def cmd_gap(args) -> List[Dict]:
    value = bethe.charge_gap(args.L, args.U)
    return [{"L": args.L, "U": args.U, "parity": bethe.parity(args.L), "gap": value}]


def cmd_central_charge(args) -> List[Dict]:
    return [{"L": args.L, "U": args.U, "central_charge": fss.central_charge_estimator(args.L, args.U)}]


def cmd_scaling_dim(args) -> List[Dict]:
    sizes = _parse_sizes(args.sizes)
    series = fss.scaling_dimension_series(args.j, sizes, args.U)
    return [{"L": L, "U": args.U, "j": args.j, "X": v} for L, v in series.points]


def cmd_liebwu(args) -> List[Dict]:
    value_of = {"gap": liebwu.gap_infinite, "energy": liebwu.ground_energy_density,
                "xi": liebwu.spin_velocity}[args.quantity]
    return [{"quantity": args.quantity, "U": args.U, "value": value_of(args.U)}]


def cmd_extrapolate(args) -> List[Dict]:
    sizes = _parse_sizes(args.sizes)
    values = [float(t) for t in args.values.split(",") if t.strip()]
    if len(sizes) != len(values):
        raise ValueError(f"{len(sizes)} sizes but {len(values)} values")
    series = fss.FssSeries(tuple(zip(sizes, values)))
    result = fss.extrapolate(series, mode=args.mode)
    return [{"mode": args.mode, "limit": result.limit, "uncertainty": result.uncertainty,
             **{f"param_{k}": v for k, v in result.method_params.items()}}]


def cmd_ybe(args) -> List[Dict]:
    if args.pairs < 1:
        raise ValueError(f"--pairs needs at least one pair, got {args.pairs}")
    rng = np.random.default_rng(args.seed)
    if args.variant == "spin":
        pairs = rng.uniform(0.0, 2.0 * np.pi, size=(args.pairs, 2))
        res = [ybx.ybe_residual_spin(l1, l2, args.U) for l1, l2 in pairs]
    elif args.variant == "graded":
        pts = ybx.random_curve_points(args.U, 2 * args.pairs, args.seed)
        res = [ybx.ybe_residual_graded(pts[i], pts[args.pairs + i]) for i in range(args.pairs)]
    else:
        lams = rng.uniform(0.0, 2.0 * np.pi, size=args.pairs)
        res = [ybx.curve_point(lam, args.U).residual for lam in lams]
    return [{"variant": args.variant, "U": args.U, "pairs": args.pairs,
             "max_residual": max(res), "mean_residual": float(np.mean(res))}]


def cmd_transfer(args) -> List[Dict]:
    if args.grid < 2:
        raise ValueError("--grid needs at least two spectral parameters")
    v = ybx.random_unit_vector(args.L)
    ts = [partial(ybx.apply_transfer, lam, args.U, args.L) for lam in np.linspace(0.1, 1.1, args.grid)]
    tv = [(t, t(v)) for t in ts]
    worst = max(float(np.linalg.norm(a(bv) - b(av))) for (a, av), (b, bv) in combinations(tv, 2))
    resid, const = ybx.spin_chain_constant_fit(args.U, args.L)
    return [{"L": args.L, "U": args.U, "grid": args.grid,
             "max_commutator": worst, "log_derivative_residual": resid,
             "additive_constant": const}]


# --- reproduce -------------------------------------------------------------


def _column(table: str, U: float, sizes: List[int]) -> Dict[int, float]:
    """One coupling column of a table as {L: value}, in the order of
    ``sizes``.  Every energy comes from ``bethe.state_energy`` and the sizes
    are solved in ascending order, so each is seeded from a smaller one of
    the column.  Tables 8/9 eliminate the log amplitude between consecutive
    sizes, so their column starts at the second size."""
    if table in ("table8", "table9"):
        return dict(fss.scaling_dimension_series(int(table == "table9"), sizes, U).points)
    value = fss.central_charge_estimator if table == "table5" else bethe.charge_gap
    column = {L: value(L, U) for L in sorted(sizes)}
    return {L: column[L] for L in sizes}


def cmd_reproduce(args) -> tuple:
    table = args.table
    ref = reference_tables.TABLES.get(table, {})  # table2, the closed forms at L=2, has none
    if args.U is not None and ref and args.U not in ref:
        raise ValueError(f"{table} has no column U={args.U:g}; its couplings are "
                         + ", ".join(f"{u:g}" for u in sorted(ref)))
    default_sizes = sorted(next(iter(ref.values())).keys()) if ref else [2]
    sizes = _parse_sizes(args.sizes) if args.sizes else default_sizes
    for L in sizes:
        if L not in default_sizes:
            raise ValueError(f"{table} has no size L={L}; its sizes are "
                             + ", ".join(map(str, default_sizes)))
    if table == "table2":
        return [{"n_up": row["sector"].n_up, "n_down": row["sector"].n_down,
                 "energy": row["energy"], "roots": row["description"]}
                for row in bethe.l2_closed_forms(args.U if args.U is not None else 2.0)], []

    us = [args.U] if args.U is not None else sorted(ref)
    rows, deviations = [], []
    for u in us:
        for L, value in _column(table, u, sizes).items():
            reference = ref[u][L]
            rows.append({"table": table, "U": u, "L": L, "computed": value,
                         "reference": reference})
            deviations.append(_deviation_row(table, u, L, value, reference,
                                             args.include_suspect))
    return rows, deviations


def _deviation_row(table, u, L, value, reference, include_suspect):
    suspect = reference_tables.is_suspect(table, u, L)
    return {"table": table, "U": u, "L": L,
            "deviation": abs(value - reference),
            "suspect": suspect,
            "scored": (not suspect) or include_suspect}


# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    ``main`` call in the process; parsing leaves no state in it."""
    p = argparse.ArgumentParser(prog="chargepair",
                                description="pairing-chain workbench: spectra, Bethe roots, "
                                            "scaling estimators and integrability checks")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output base path; writes <out>.csv / <out>.json")
    common.add_argument("--format", choices=("csv", "json", "both"), default="csv")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", parents=[common], help="eigenvalues of one model")
    sp.add_argument("--model", required=True, choices=models.MODEL_KINDS)
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--U", type=float, required=True)
    sp.add_argument("--sector", help="n_up,n_down block (transformed model)")
    sp.add_argument("--k", type=int, help="lowest-k only")
    sp.set_defaults(func=cmd_spectrum)

    cp = sub.add_parser("compare", parents=[common], help="multiset-compare two model spectra")
    cp.add_argument("--model-a", required=True, choices=models.MODEL_KINDS)
    cp.add_argument("--model-b", required=True, choices=models.MODEL_KINDS)
    cp.add_argument("--L", type=int, required=True)
    cp.add_argument("--U", type=float, required=True)
    cp.add_argument("--tol", type=float, default=1e-10)
    cp.set_defaults(func=cmd_compare)

    bp = sub.add_parser("bethe", parents=[common], help="solve one tabulated root class")
    bp.add_argument("--state", required=True,
                    choices=sorted(set(bethe.STATES_EVEN) | set(bethe.STATES_ODD)))
    bp.add_argument("--L", type=int, required=True)
    bp.add_argument("--U", type=float, required=True)
    bp.set_defaults(func=cmd_bethe)

    gp = sub.add_parser("gap", parents=[common], help="finite-size charge gap")
    gp.add_argument("--L", type=int, required=True)
    gp.add_argument("--U", type=float, required=True)
    gp.set_defaults(func=cmd_gap)

    ccp = sub.add_parser("central-charge", parents=[common], help="central-charge estimator C(L)")
    ccp.add_argument("--L", type=int, required=True)
    ccp.add_argument("--U", type=float, required=True)
    ccp.set_defaults(func=cmd_central_charge)

    sd = sub.add_parser("scaling-dim", parents=[common], help="two-step dimension estimators")
    sd.add_argument("--j", type=int, required=True, choices=(0, 1))
    sd.add_argument("--sizes", required=True, help="comma-separated odd sizes")
    sd.add_argument("--U", type=float, required=True)
    sd.set_defaults(func=cmd_scaling_dim)

    lw = sub.add_parser("liebwu", parents=[common], help="thermodynamic-limit values")
    lw.add_argument("quantity", choices=("gap", "energy", "xi"))
    lw.add_argument("--U", type=float, required=True)
    lw.set_defaults(func=cmd_liebwu)

    ex = sub.add_parser("extrapolate", parents=[common], help="sequence extrapolation")
    ex.add_argument("--sizes", required=True)
    ex.add_argument("--values", required=True)
    ex.add_argument("--mode", choices=("power-law", "log-corrected"), default="power-law")
    ex.set_defaults(func=cmd_extrapolate)

    yb = sub.add_parser("ybe", parents=[common], help="Yang-Baxter residual sweeps")
    yb.add_argument("variant", choices=("spin", "graded", "curve"))
    yb.add_argument("--U", type=float, required=True)
    yb.add_argument("--pairs", type=int, default=100)
    yb.add_argument("--seed", type=int, default=0)
    yb.set_defaults(func=cmd_ybe)

    tr = sub.add_parser("transfer", parents=[common], help="on a seeded random unit vector v, 2 <= L "
                        "<= 8: max ||[T(a), T(b)]v||, and log T'(0)v against the coupled chain")
    tr.add_argument("--L", type=int, default=3)
    tr.add_argument("--U", type=float, required=True)
    tr.add_argument("--grid", type=int, default=5, help="spectral parameters in [0.1, 1.1], at least 2")
    tr.set_defaults(func=cmd_transfer)

    rp = sub.add_parser("reproduce", parents=[common], help="recompute a published table with deviations")
    rp.add_argument("table", choices=("table2", "table4", "table5", "table7", "table8", "table9"))
    rp.add_argument("--U", type=float)
    rp.add_argument("--sizes", help="trim to these sizes")
    rp.add_argument("--jobs", type=int, choices=(1,), default=1,
                    help="only 1: the U columns are computed in this process; the option "
                         "goes once perfbench/workloads.py stops passing --jobs 1")
    rp.add_argument("--include-suspect", action="store_true",
                    help="score the known out-of-trend cells as well")
    rp.set_defaults(func=cmd_reproduce)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "both" and not args.out:
        parser.error("--format both writes two files and needs --out")
    args._t0 = time.time()
    args._command_line = " ".join(argv)
    try:
        result = args.func(args)
    except RuntimeError as exc:  # bethe.SolverError and the other numerical failures
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if isinstance(result, tuple):
        rows, deviations = result
    else:
        rows, deviations = result, []
    emit(args, rows, deviations)
    return 0


if __name__ == "__main__":
    sys.exit(main())
