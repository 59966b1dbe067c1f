"""Command-line entry point.

Subcommands map one-to-one onto the harness experiments:

    parvqe benchmark-pairs --seed 7 --out results/bench
    parvqe heatmap         --seed 7 --pairs 25 --shots 10000 --out results/heat
    parvqe vqe             --seed 7 --optimizer mgd --pairs 12 --out results/vqe
    parvqe speedup-sweep   --seed 7 --pair-counts 2,4,8,12,16,20,25 --out results/speedup
    parvqe shots-sweep     --seed 7 --out results/shots
    parvqe optimizer-compare --seed 7 --out results/compare
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import (
    ExperimentConfig,
    InputError,
    cmd_benchmark_pairs,
    cmd_heatmap,
    cmd_optimizer_compare,
    cmd_shots_sweep,
    cmd_speedup_sweep,
    cmd_vqe,
    default_calibration_path,
    default_cost_model_path,
)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok)


# the flags of every command that runs circuits
_RUN_FLAGS = ("--calibration", "--workers", "--crosstalk")


def _add_flags(p: argparse.ArgumentParser, names: tuple[str, ...],
               overrides: dict[str, dict] | None = None) -> None:
    """The flags every subcommand reads (--seed, --out), then the named
    ones. `overrides` maps a named flag to settings that replace its
    defaults."""
    p.add_argument("--seed", type=int, required=True,
                   help="base seed; all randomness derives from it")
    p.add_argument("--out", dest="out_dir", metavar="OUT", required=True,
                   help="output directory")
    specs = {
        "--calibration": dict(default=str(default_calibration_path()),
                              help="device calibration JSON"),
        "--workers": dict(type=int, default=1,
                          help="accepted but has no effect: each batch runs as one "
                               "vectorized pass (values above 1 warn)"),
        "--crosstalk": dict(type=float, default=0.0, dest="crosstalk_p",
                            metavar="CROSSTALK",
                            help="extra depolarizing probability for adjacent active "
                                 "pairs"),
        "--cost-model": dict(default=str(default_cost_model_path()),
                             help="wall-clock cost model JSON"),
        "--pairs": dict(type=int, default=None, help="number of pairs to select"),
        "--select": dict(choices=["greedy", "matching"], default="greedy"),
        "--cap": dict(type=float, default=None,
                      help="exclude edges below this CZ fidelity"),
        "--shots": dict(type=int, default=1000),
        "--iterations": dict(type=int, default=None),
        "--mitigation": dict(choices=["none", "ni", "tflo", "ni+tflo"],
                             default="ni+tflo"),
        "--repeats": dict(type=int, default=1),
    }
    for name in names:
        p.add_argument(name, **{**specs[name], **(overrides or {}).get(name, {})})


def build_parser() -> argparse.ArgumentParser:
    """One parser per subcommand, holding only the flags it reads, so an
    unread flag is an error rather than silently ignored. Abbreviations are
    off: shots-sweep would otherwise read --shots as --shots-list."""
    parser = argparse.ArgumentParser(prog="parvqe",
                                     description="parallel two-qubit VQE testbed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("benchmark-pairs", allow_abbrev=False,
                       help="benchmark every pair and the greedy parallel sweep")
    _add_flags(p, _RUN_FLAGS + ("--shots",), {"--shots": dict(default=10_000)})

    p = sub.add_parser("heatmap", allow_abbrev=False, help="energy landscape heatmaps")
    _add_flags(p, _RUN_FLAGS + ("--cost-model", "--pairs", "--select", "--cap", "--shots",
                                "--mitigation"), {"--shots": dict(default=10_000)})
    p.add_argument("--grid", type=int, default=20, help="points per axis")

    p = sub.add_parser("vqe", allow_abbrev=False, help="full optimisation runs")
    _add_flags(p, _RUN_FLAGS + ("--cost-model", "--pairs", "--select", "--cap", "--shots",
                                "--iterations", "--mitigation", "--repeats"))
    p.add_argument("--optimizer", choices=["spsa", "mgd"], default="spsa")
    p.add_argument("--eta", type=float, default=2.0,
                   help="points-per-iteration metaparameter for single-pair mgd")
    p.add_argument("--start", type=float, nargs=2, default=(0.6, 0.8),
                   metavar=("PHI", "THETA"))

    p = sub.add_parser("speedup-sweep", allow_abbrev=False,
                       help="modelled speedup of both optimizers; runs nothing")
    _add_flags(p, ("--cost-model", "--shots"))
    p.add_argument("--pair-counts", type=_int_list, default=(2, 4, 8, 12, 16, 20, 25))

    p = sub.add_parser("shots-sweep", allow_abbrev=False,
                       help="SPSA at several shot counts")
    _add_flags(p, _RUN_FLAGS + ("--pairs", "--cap", "--iterations", "--mitigation"),
               {"--mitigation": dict(choices=["none", "ni"], default="ni")})
    p.add_argument("--shots-list", type=_int_list, default=(100, 1000, 10_000))

    p = sub.add_parser("optimizer-compare", allow_abbrev=False,
                       help="SPSA vs surrogate descent across pair counts")
    _add_flags(p, _RUN_FLAGS + ("--shots",))
    p.add_argument("--pair-counts", type=_int_list, default=(2, 4, 6, 9, 12, 25))

    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config from the parsed flags; fields without a flag keep their
    ExperimentConfig defaults."""
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    return ExperimentConfig(**{k: v for k, v in vars(args).items() if k in fields})


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "benchmark-pairs": cmd_benchmark_pairs,
        "heatmap": cmd_heatmap,
        "vqe": cmd_vqe,
        "speedup-sweep": cmd_speedup_sweep,
        "shots-sweep": cmd_shots_sweep,
        "optimizer-compare": cmd_optimizer_compare,
    }
    try:
        cfg = config_from_args(args)
        record = handlers[args.command](cfg)
    except (InputError, FileNotFoundError) as exc:
        parser.error(str(exc))
    print(f"wrote {cfg.out_dir}/record.json ({len(record.artifacts)} artifacts)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
