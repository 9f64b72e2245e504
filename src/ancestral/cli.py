"""Command-line front end.

Subcommands: ``test`` builds weighted (in)dependence statements from a
dataset, ``intervene`` builds weighted ancestral statements from an
observational/interventional dataset pair, ``solve`` scores every ordered
pair from fact files, ``simulate`` writes synthetic models and datasets,
and ``bench`` runs the timing and accuracy harness.

Exit codes: 0 success, 2 parse or configuration error, 3 the time limit
of the whole call ran out (partial results written), 4 contradictory hard
knowledge.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from ancestral.factfile import (
    FactFileError,
    parse_fact_file,
    parse_fact_files,
    write_fact_file,
)
from ancestral.scoring import (
    BothInfeasibleError,
    PairScorer,
    Prediction,
    format_score,
    pair_features,
    ranked,
)
from ancestral.solver import SolveOptions, SolveTimeoutError

# The data commands import numpy through ``stats``, ``simulate`` and
# ``evaluation``; ``solve`` needs none of them, so each command imports
# them itself. Their errors are ValueErrors.
_USAGE_ERRORS = (FactFileError, KeyError, ValueError, OSError)


def cmd_test(args) -> int:
    from ancestral.stats import CiTestConfig, ci_inputs_from_data, load_dataset

    config = CiTestConfig(alpha=args.alpha, max_order=args.max_order)
    data = load_dataset(args.data)
    inputs = ci_inputs_from_data(data, config)
    write_fact_file(data.names, inputs, args.out)
    return 0


def cmd_intervene(args) -> int:
    from ancestral.stats import CiTestConfig, ancestral_inputs_from_intervention, load_dataset

    config = CiTestConfig(alpha=args.alpha, max_order=0)
    obs = load_dataset(args.obs)
    interv = load_dataset(args.interv)
    target = obs.index_of(args.target)
    inputs = ancestral_inputs_from_intervention(obs, interv, target, config)
    if args.append and Path(args.out).exists():
        names, existing = parse_fact_file(args.out)
        if names != obs.names:
            raise FactFileError(f"{args.out}: existing vars header differs from the datasets")
        inputs = existing + inputs
    write_fact_file(obs.names, inputs, args.out)
    return 0


def cmd_solve(args) -> int:
    names, inputs = parse_fact_files(args.facts)
    n = len(names)
    if args.n is not None and args.n != n:
        raise ValueError(f"--n {args.n} does not match the {n} declared variables")
    options = SolveOptions(time_limit=args.time_limit)
    scorer = PairScorer(inputs, n, options)
    rows = []
    timed_out = False
    for feature in pair_features(n):
        try:
            score = scorer.confidence(feature)
        except SolveTimeoutError:
            score = None
            timed_out = True
        rows.append((feature.cause, feature.effect, score))
    done = ranked(Prediction(*r) for r in rows if r[2] is not None)
    pending = [r for r in rows if r[2] is None]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("cause,effect,score_milli\n")
        for p in done:
            fh.write(f"{names[p.cause]},{names[p.effect]},{format_score(p.score)}\n")
        for x, y, _ in pending:
            fh.write(f"{names[x]},{names[y]},na\n")
    return 3 if timed_out else 0


def cmd_simulate(args) -> int:
    from ancestral.simulate import (
        random_linear_model,
        sample_data,
        true_ancestral_structure,
        write_scm,
    )
    from ancestral.stats import write_dataset

    if args.models < 1:
        raise ValueError("models must be positive")
    out_dir = Path(args.out_dir)
    for m in range(args.models):
        scm = random_linear_model(
            args.n, args.latents, args.edge_prob, seed=[args.seed, m, 0]
        )
        data = sample_data(scm, args.samples, seed=[args.seed, m, 1])
        # created once model 0 has passed the size checks, so a rejected
        # call leaves no directory behind
        out_dir.mkdir(parents=True, exist_ok=True)
        write_scm(scm, out_dir / f"scm_{m}.txt")
        write_dataset(data, out_dir / f"data_{m}.csv")
        truth = true_ancestral_structure(scm)
        with open(out_dir / f"truth_{m}.csv", "w", encoding="utf-8") as fh:
            for x in range(truth.n):
                fh.write(",".join("1" if truth.reach(x, y) else "0" for y in range(truth.n)) + "\n")
    return 0


def cmd_bench(args) -> int:
    from ancestral.evaluation import (
        BenchConfig,
        PrTask,
        format_reference_comparison,
        pooled_pr_curve,
        run_benchmark,
        write_bench_csv,
        write_pr_csv,
    )

    config = BenchConfig(
        n_obs=args.n,
        models=args.models,
        samples=args.samples,
        n_latent=args.latents,
        edge_prob=args.edge_prob,
        max_order=args.max_order,
        alpha=args.alpha,
        seed=args.seed,
        use_oracle=args.oracle,
        time_limit=args.time_limit,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = run_benchmark(config)
    write_bench_csv(report, out_dir / "bench.csv")
    results = report.ok_results()
    write_pr_csv(pooled_pr_curve(results, PrTask.ANCESTRAL), out_dir / "pr_ancestral.csv")
    write_pr_csv(
        pooled_pr_curve(results, PrTask.NONANCESTRAL), out_dir / "pr_nonancestral.csv"
    )
    comparison = format_reference_comparison(report)
    with open(out_dir / "reference_comparison.txt", "w", encoding="utf-8") as fh:
        fh.write(comparison)
    sys.stdout.write(comparison)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ancestral",
        description="Exact scoring of ancestral causal relations from weighted constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="build weighted (in)dependence statements from a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--max-order", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("intervene", help="build weighted ancestral statements from an intervention")
    p.add_argument("--obs", required=True)
    p.add_argument("--int", dest="interv", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.add_argument("--append", action="store_true")
    p.set_defaults(func=cmd_intervene)

    p = sub.add_parser("solve", help="score every ordered pair from fact files")
    p.add_argument("--facts", nargs="+", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--time-limit", type=float, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="write synthetic models and datasets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--latents", type=int, default=1)
    p.add_argument("--edge-prob", type=float, default=0.3)
    p.add_argument("--models", type=int, default=1)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="run the timing and accuracy harness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--latents", type=int, default=1)
    p.add_argument("--edge-prob", type=float, default=0.3)
    p.add_argument("--models", type=int, required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--max-order", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BothInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SolveTimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as exc:
        # str() of a KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
