"""Command-line entry point.

Subcommands map one-to-one onto the harness experiments:

    parvqe benchmark-pairs --seed 7 --out results/bench
    parvqe heatmap         --seed 7 --pairs 25 --shots 10000 --out results/heat
    parvqe vqe             --seed 7 --optimizer mgd --pairs 12 --out results/vqe
    parvqe speedup-sweep   --seed 7 --pair-counts 2,4,8,12,16,20,25 --out results/speedup
    parvqe shots-sweep     --seed 7 --out results/shots
    parvqe optimizer-compare --seed 7 --out results/compare

`harness.COMMANDS` defines each subcommand: its handler, the settings it
reads and its default overrides, which `harness.config_for` applies. This
module only spells a setting as a flag (FLAGS).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import CHOICES, COMMANDS, ExperimentConfig, InputError, config_for


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok)


# ExperimentConfig field -> its flag and argparse settings (no defaults);
# confusion_shots has no flag
FLAGS = {
    "seed": ("--seed", dict(type=int, required=True,
                            help="base seed; all randomness derives from it")),
    "out_dir": ("--out", dict(metavar="OUT", required=True, help="output directory")),
    "calibration": ("--calibration", dict(help="device calibration JSON")),
    "workers": ("--workers", dict(type=int, help="accepted but has no effect: each batch "
                                  "runs as one vectorized pass (values above 1 warn)")),
    "crosstalk_p": ("--crosstalk", dict(type=float, metavar="CROSSTALK",
                                        help="extra depolarizing probability for adjacent "
                                             "active pairs")),
    "cost_model": ("--cost-model", dict(help="wall-clock cost model JSON")),
    "pairs": ("--pairs", dict(type=int, help="number of pairs to select")),
    "select": ("--select", {}),
    "cap": ("--cap", dict(type=float, help="exclude edges below this CZ fidelity")),
    "shots": ("--shots", dict(type=int)),
    "iterations": ("--iterations", dict(type=int)),
    "mitigation": ("--mitigation", {}),
    "repeats": ("--repeats", dict(type=int)),
    "optimizer": ("--optimizer", {}),
    "eta": ("--eta", dict(type=float,
                          help="points-per-iteration metaparameter for single-pair mgd")),
    "start": ("--start", dict(type=float, nargs=2, metavar=("PHI", "THETA"))),
    "grid": ("--grid", dict(type=int, help="points per axis")),
    "shots_list": ("--shots-list", dict(type=_int_list)),
    "pair_counts": ("--pair-counts", dict(type=_int_list)),
}


def build_parser() -> argparse.ArgumentParser:
    """One parser per subcommand, holding only the flags it reads, so an
    unread flag is an error rather than silently ignored. Unset flags are
    absent from the namespace. Abbreviations are off: shots-sweep would
    otherwise read --shots as --shots-list."""
    parser = argparse.ArgumentParser(prog="parvqe",
                                     description="parallel two-qubit VQE testbed")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        for setting in ("seed", "out_dir", *command.reads):
            if setting not in FLAGS:
                continue
            flag, spec = FLAGS[setting]
            choices = command.choices.get(setting, CHOICES.get(setting))
            p.add_argument(flag, dest=setting, **spec,
                           **({"choices": choices} if choices else {}))
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config of the parsed command and flags; settings without a flag
    keep the command's defaults (harness.config_for)."""
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    return config_for(args.command, **{k: v for k, v in vars(args).items() if k in fields})


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        record = COMMANDS[args.command].handler(cfg)
    except (InputError, FileNotFoundError) as exc:
        parser.error(str(exc))
    print(f"wrote {cfg.out_dir}/record.json ({len(record.artifacts)} artifacts)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
