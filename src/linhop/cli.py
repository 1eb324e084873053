"""Command-line entry point.

Subcommands cover polynomial fitting, retrieval, the three benchmark sweeps,
the capacity experiment, the nearest-neighbor reduction, and a deterministic
self-verification battery.  All output files are written atomically (temp
file in the target directory, then rename).  A JSON config file may supply
the optional flags of the chosen subcommand, each value of its flag's type
(a JSON list for a comma-separated flag); explicit command-line flags
override config values.  Required flags, such as ``--out``, must be given on
the command line, since the command line is parsed before the config file
is read.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from . import bench, capacity, reduction
from .errors import LinhopError
from .hopfield import (
    Normalization,
    PatternMatrix,
    RetrievalConfig,
    dense_normalizers,
    lowrank_error_bound,
    lowrank_normalizers,
    max_norm_error,
    retrieve_dense,
    retrieve_lowrank,
)
from .poly_approx import fit_exp_poly, sup_relative_error
from .feature_map import build_factor_matrices, build_feature_map


def _atomic_write(path: str, writer) -> None:
    """Write via ``writer(tmp_path)`` then rename onto ``path``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_text(path: str, text: str) -> None:
    def writer(tmp):
        with open(tmp, "w") as fh:
            fh.write(text)

    _atomic_write(path, writer)


def _parse_floats(text: str):
    return [float(v) for v in text.split(",") if v.strip()]


def _parse_ints(text: str):
    return [int(v) for v in text.split(",") if v.strip()]


def _beta(args) -> float:
    """--beta, or 1/d when it is not given; d below 1 is refused."""
    if args.d < 1:
        raise ValueError("d must be >= 1")
    return args.beta if args.beta is not None else 1.0 / args.d


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linhop",
        description="Hopfield memory retrieval: exact and almost-linear paths, "
        "with benchmark and verification drivers.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"linhop {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def subcommand(name, help):
        # flags must be spelled in full: an abbreviation would lose to the
        # config file, which tells explicit flags by their full names
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--config", help="JSON file supplying default flag values")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        return p

    p = subcommand("approx-exp", "fit the exp polynomial and save JSON")
    p.add_argument("--bound", type=float, required=True, help="interval half width")
    p.add_argument("--delta-a", type=float, default=1e-3, help="relative error target (default 1e-3)")
    p.add_argument("--max-degree", type=int, default=32, help="degree cap (default 32)")
    p.add_argument("--out", required=True, help="output JSON path")

    p = subcommand("retrieve", "run one retrieval step on CSV patterns")
    p.add_argument("--memory", required=True, help="memory pattern CSV")
    p.add_argument("--queries", required=True, help="query pattern CSV")
    p.add_argument("--beta", type=float, default=None, help="inverse temperature (default 1/d)")
    p.add_argument("--delta-a", type=float, default=1e-3, help="relative error target (default 1e-3)")
    p.add_argument("--mode", choices=["dense", "lowrank"], default="dense", help="solver path (default dense)")
    p.add_argument(
        "--normalization",
        choices=["query", "memory"],
        default="query",
        help="softmax convention (default query)",
    )
    p.add_argument("--out", required=True, help="output CSV path (sidecar: <out>.json)")

    p = subcommand("bench-scaling", "dense vs low-rank runtime sweep")
    p.add_argument("--tau", type=_parse_ints, required=True, help="comma-separated tau values")
    p.add_argument("--d", type=int, default=4, help="pattern dimension (default 4)")
    p.add_argument("--beta", type=float, default=None, help="inverse temperature (default 1/d)")
    p.add_argument("--B", type=float, default=1.0, help="entry bound (default 1)")
    p.add_argument("--delta-a", type=float, default=1e-3, help="relative error target (default 1e-3)")
    p.add_argument("--repeats", type=int, default=3, help="timing repeats (default 3)")
    p.add_argument("--out", required=True, help="records CSV path")
    p.add_argument("--summary", help="slope/metadata JSON path")

    p = subcommand("bench-error", "measured error vs the 2MB*delta_a line")
    p.add_argument("--delta-a-list", type=_parse_floats, required=True, help="comma-separated delta_a values")
    p.add_argument("--d", type=int, default=4, help="pattern dimension (default 4)")
    p.add_argument("--M", type=int, default=32, help="memory count (default 32)")
    p.add_argument("--L", type=int, default=32, help="query count (default 32)")
    p.add_argument("--B", type=float, default=1.0, help="entry bound (default 1)")
    p.add_argument("--beta", type=float, default=None, help="inverse temperature (default 1/d)")
    p.add_argument("--out", required=True, help="records CSV path")

    p = subcommand("bench-phase", "low-rank feasibility as B grows")
    p.add_argument("--B-list", type=_parse_floats, required=True, help="comma-separated increasing B values")
    p.add_argument("--tau", type=int, default=256, help="M = L = tau (default 256)")
    p.add_argument("--d", type=int, default=4, help="pattern dimension (default 4)")
    p.add_argument("--beta", type=float, default=None, help="inverse temperature (default 1/d)")
    p.add_argument("--delta-a", type=float, default=1e-3, help="relative error target (default 1e-3)")
    p.add_argument("--degree-cap", type=int, default=16, help="polynomial degree cap (default 16)")
    p.add_argument("--out", required=True, help="records CSV path")

    p = subcommand("capacity", "empirical storage/retrieval success rates")
    p.add_argument("--d", type=int, required=True, help="pattern dimension")
    p.add_argument("--m", type=float, default=None, help="sphere radius (default sqrt(d))")
    p.add_argument("--beta", type=float, default=None, help="inverse temperature (default 1/d)")
    p.add_argument("--M-list", type=_parse_ints, required=True, help="comma-separated memory counts")
    p.add_argument("--trials", type=int, default=200, help="trials per M (default 200)")
    p.add_argument("--perturbation", type=float, default=0.1, help="query offset fraction of R (default 0.1)")
    p.add_argument("--eps", type=float, default=None, help="success radius (default R/2 plus error margin)")
    p.add_argument("--delta-a", type=float, default=1e-3, help="relative error target (default 1e-3)")
    p.add_argument("--out", required=True, help="results CSV path")

    p = subcommand("reduction", "gap nearest-neighbor decision via retrieval")
    p.add_argument("--n", type=int, required=True, help="points per side")
    p.add_argument("--d", type=int, default=8, help="binary dimension (default 8)")
    p.add_argument("--t", type=float, default=3.0, help="distance threshold (default 3)")
    p.add_argument("--delta", type=float, default=0.09, help="promise gap (default 0.09)")
    p.add_argument("--trials", type=int, default=2, help="alternating planted trials (default 2)")
    p.add_argument(
        "--plant",
        choices=["case1", "case2"],
        default=None,
        help="single planted instance of this kind instead of the trial loop",
    )
    p.add_argument("--solver", choices=["dense", "lowrank"], default="dense", help="retrieval path (default dense)")
    p.add_argument("--out", required=True, help="report JSON path")

    p = subcommand("verify", "run the deterministic property battery")
    p.add_argument("--out", default="verify_report.json", help="report JSON path (default verify_report.json)")

    return parser


# the JSON types a config value may take, by its flag's argparse type; JSON
# writes a whole float such as 2.0 as 2, so float flags take ints too
_CONFIG_TYPES = {None: str, int: int, float: (int, float), _parse_ints: list, _parse_floats: list}


def _check_config_value(action: argparse.Action, key: str, value) -> None:
    """Refuse, with a ValueError naming ``key``, a config value that the flag
    behind ``action`` could not hold: one of another type, outside its
    choices, or null where the flag's default is not."""
    fits = isinstance(value, _CONFIG_TYPES[action.type]) and (
        action.choices is None or value in action.choices
    )
    if not (fits or value is None and action.default is None):
        raise ValueError(f"config key {key!r}: {value!r} is not a valid value")


def _apply_config(parser, args: argparse.Namespace, argv) -> argparse.Namespace:
    """Config-file values fill in flags of the chosen subcommand that the
    user did not pass explicitly, each checked against its flag; the
    subcommand itself and ``config`` are not flags a config file may set."""
    if not getattr(args, "config", None):
        return args
    with open(args.config) as fh:
        conf = json.load(fh)
    subcommands = next(a.choices for a in parser._actions if a.dest == "subcommand")
    actions = {a.dest: a for a in subcommands[args.subcommand]._actions}
    explicit = {a.split("=", 1)[0].lstrip("-").replace("-", "_") for a in argv if a.startswith("--")}
    for key, value in conf.items():
        attr = key.replace("-", "_")
        if attr in ("subcommand", "config") or not hasattr(args, attr):
            raise ValueError(f"unknown config key {key!r}")
        if attr not in explicit:
            _check_config_value(actions[attr], key, value)
            setattr(args, attr, value)
    return args


def _cmd_approx_exp(args) -> int:
    poly = fit_exp_poly(args.bound, args.delta_a, args.max_degree)
    _atomic_text(args.out, poly.to_json() + "\n")
    print(f"degree {poly.degree}, certified relative error {poly.certified_rel_error:.3e}")
    return 0


def _cmd_retrieve(args) -> int:
    memory = PatternMatrix.from_csv(args.memory, role="memory")
    queries = PatternMatrix.from_csv(args.queries, role="query")
    beta = args.beta if args.beta is not None else 1.0 / memory.d
    cfg = RetrievalConfig(
        beta=beta,
        delta_a=args.delta_a,
        normalization=Normalization(args.normalization),
    )
    solve = retrieve_lowrank if args.mode == "lowrank" else retrieve_dense
    result = solve(memory, queries, cfg)
    _atomic_write(args.out, result.to_csv)
    _atomic_text(args.out + ".json", result.sidecar_json() + "\n")
    print(f"wrote {result.Z.shape[0]}x{result.Z.shape[1]} output to {args.out}")
    return 0


def _cmd_bench_scaling(args) -> int:
    records, slopes = bench.runtime_scaling(
        args.tau, args.d, _beta(args), args.B, args.delta_a, args.repeats, args.seed
    )
    _atomic_write(args.out, lambda tmp: bench.records_to_csv(records, tmp))
    if args.summary:
        _atomic_text(args.summary, bench.summary_json(records, slopes) + "\n")
    for name, slope in sorted(slopes.items()):
        print(f"{name} slope {slope:.3f}")
    return 0


def _cmd_bench_error(args) -> int:
    records = bench.error_sweep(
        args.delta_a_list, args.d, args.M, args.L, args.B, _beta(args), args.seed
    )
    _atomic_write(args.out, lambda tmp: bench.records_to_csv(records, tmp))
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_bench_phase(args) -> int:
    records = bench.phase_sweep(
        args.B_list, args.tau, args.d, _beta(args), args.delta_a, args.degree_cap, args.seed
    )
    _atomic_write(args.out, lambda tmp: bench.records_to_csv(records, tmp))
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_capacity(args) -> int:
    beta = _beta(args)
    m = args.m if args.m is not None else math.sqrt(args.d)
    rows = capacity.run_capacity_experiment(
        args.d,
        m,
        beta,
        args.M_list,
        args.trials,
        perturbation=args.perturbation,
        eps=args.eps,
        rng_seed=args.seed,
        delta_a=args.delta_a,
    )
    _atomic_write(args.out, lambda tmp: capacity.capacity_experiment_csv(rows, tmp))
    for row in rows:
        print(f"M={row['M']}: success {row['success_rate']:.3f}")
    return 0


def _cmd_reduction(args) -> int:
    if args.plant is not None:
        inst = reduction.planted_instance(
            args.plant, args.n, args.d, args.t, args.delta, rng_seed=args.seed
        )
        oracle = reduction.classify_queries(inst)
        decision = reduction.solve_gap_anns_via_ahop(inst, solver=args.solver)
        promised = [j for j, v in enumerate(oracle) if v != "indeterminate"]
        agree = sum(1 for j in promised if decision.verdicts[j] == oracle[j])
        report = {
            "n": args.n,
            "d": args.d,
            "t": args.t,
            "delta": args.delta,
            "plant": args.plant,
            "solver": args.solver,
            "verdicts": decision.verdicts,
            "oracle": oracle,
            "threshold": decision.threshold_used,
            "statistic": [float(v) for v in decision.statistic],
            "promised_queries": len(promised),
            "agreements": agree,
        }
    else:
        report = reduction.verify_reduction(
            args.n, args.d, args.t, args.delta, args.trials,
            rng_seed=args.seed, solver=args.solver,
        )
    _atomic_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(
        f"agreement {report['agreements']}/{report['promised_queries']} "
        f"on promised queries"
    )
    return 0


def _verify_checks(seed: int):
    """The property battery.  Every recorded value is timing-free so the
    report is byte-identical across runs with the same seed."""
    checks = []

    def record(name, passed, **details):
        checks.append({"name": name, "passed": bool(passed), "details": details})

    # exp polynomial relative-error contract
    worst = {}
    for bound, da in [(1.0, 1e-2), (2.0, 1e-3), (4.0, 1e-3)]:
        p = fit_exp_poly(bound, da)
        worst[f"b={bound},da={da}"] = sup_relative_error(p, 20001)
    record(
        "poly-relative-error",
        all(v <= 1.05 * float(k.split("da=")[1]) for k, v in worst.items()),
        sup_errors=worst,
    )

    # exact factorization through the monomial feature map
    max_gap = 0.0
    for trial in range(5):
        rng = np.random.default_rng([seed, 1, trial])
        d = int(rng.integers(1, 5))
        p = fit_exp_poly(2.0, 1e-3)
        fmap = build_feature_map(p, d)
        x = rng.uniform(-1, 1, size=(6, d))
        y = rng.uniform(-1, 1, size=(7, d))
        u1, u2 = build_factor_matrices(fmap, x, y)
        target = p(x @ y.T)
        max_gap = max(max_gap, float(np.max(np.abs(u1 @ u2.T - target))))
    record("factorization-exact", max_gap <= 1e-9, max_abs_gap=max_gap)

    # low-rank error bound and row-normalizer contract
    worst_ratio = 0.0
    worst_norm_ratio = 0.0
    for trial in range(10):
        rng = np.random.default_rng([seed, 2, trial])
        memory = PatternMatrix(rng.uniform(-1, 1, size=(4, 16)))
        queries = PatternMatrix(rng.uniform(-1, 1, size=(4, 16)), role="query")
        cfg = RetrievalConfig(beta=0.25, delta_a=1e-3, normalization=Normalization.MEMORY)
        zt = retrieve_lowrank(memory, queries, cfg)
        zd = retrieve_dense(memory, queries, cfg)
        bound = lowrank_error_bound(memory.count, memory.max_norm, cfg.delta_a)
        worst_ratio = max(worst_ratio, max_norm_error(zt.Z, zd.Z) / bound)
        d_tilde = lowrank_normalizers(memory, queries, cfg)
        d_exact = dense_normalizers(memory, queries, cfg)
        worst_norm_ratio = max(
            worst_norm_ratio,
            float(np.max(np.abs(d_tilde - d_exact) / (cfg.delta_a * d_exact))),
        )
    record("error-bound-law", worst_ratio <= 1.0, worst_bound_ratio=worst_ratio)
    record(
        "normalizer-contract",
        worst_norm_ratio <= 1.0,
        worst_normalizer_ratio=worst_norm_ratio,
    )

    # Lambert W residual and reference value
    grid = np.concatenate(
        [
            np.array([-1.0 / math.e + 1e-9]),
            -np.logspace(-9, math.log10(1.0 / math.e - 1e-9), 200)[::-1],
            np.logspace(-9, 6, 200),
        ]
    )
    residual = max(
        abs(capacity.lambert_w0(x) * math.exp(capacity.lambert_w0(x)) - x)
        / max(1.0, abs(x))
        for x in grid
    )
    omega_gap = abs(capacity.lambert_w0(1.0) - 0.5671432904097838)
    record(
        "lambert-w",
        residual <= 1e-12 and omega_gap <= 1e-12,
        max_residual=residual,
        omega_gap=omega_gap,
    )

    # reduction pipeline vs the brute-force oracle
    rep = reduction.verify_reduction(8, 8, 3.0, 0.09, trials=4, rng_seed=seed)
    record(
        "reduction-agreement",
        rep["agreement_fraction"] == 1.0 and rep["promised_queries"] > 0,
        promised=rep["promised_queries"],
        agreements=rep["agreements"],
    )

    # single stored pattern retrieves exactly
    rows = capacity.run_capacity_experiment(
        8, math.sqrt(8), 1.0, [1], trials=10, rng_seed=seed
    )
    record(
        "single-memory-retrieval",
        rows[0]["success_rate"] == 1.0,
        success_rate=rows[0]["success_rate"],
        mean_error=rows[0]["mean_error"],
    )

    # well-separation threshold grows with memory count and with delta_a
    thresholds = [
        capacity.well_separation_threshold(
            capacity.CapacityParams(
                p=0.5, d=8, m=2.0, beta=1.0, R=1.0, M=m_count, B=1.0, delta_a=1e-3
            )
        )
        for m_count in (2, 4, 8, 16)
    ]
    record(
        "separation-monotonic",
        all(b > a for a, b in zip(thresholds, thresholds[1:])),
        thresholds=thresholds,
    )
    return checks


def _cmd_verify(args) -> int:
    checks = _verify_checks(args.seed)
    all_passed = all(c["passed"] for c in checks)
    report = {"seed": args.seed, "all_passed": all_passed, "checks": checks}
    _atomic_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'}: {c['name']}")
    print("all checks passed" if all_passed else "some checks FAILED")
    return 0 if all_passed else 1


_DISPATCH = {
    "approx-exp": _cmd_approx_exp,
    "retrieve": _cmd_retrieve,
    "bench-scaling": _cmd_bench_scaling,
    "bench-error": _cmd_bench_error,
    "bench-phase": _cmd_bench_phase,
    "capacity": _cmd_capacity,
    "reduction": _cmd_reduction,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args = _apply_config(parser, args, argv)
        return _DISPATCH[args.subcommand](args)
    except LinhopError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
