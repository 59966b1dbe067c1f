"""Command-line entry point.

Subcommands map one-to-one onto the harness experiments:

    parvqe benchmark-pairs --seed 7 --out results/bench
    parvqe heatmap         --seed 7 --pairs 25 --shots 10000 --out results/heat
    parvqe vqe             --seed 7 --optimizer mgd --pairs 12 --out results/vqe
    parvqe speedup-sweep   --seed 7 --pair-counts 2,4,8,12,16,20,25 --out results/speedup
    parvqe shots-sweep     --seed 7 --out results/shots
    parvqe optimizer-compare --seed 7 --out results/compare

`harness.COMMANDS` defines each subcommand: its handler, the settings it
reads, its defaults (`harness.config_for`) and its choices (enforced by
the handler). This module spells a setting as a flag (FLAGS). `read_plain`
reads a plain command line straight from that table; every other one,
help and every error go through argparse (`build_parser`), so their text
and exit status are argparse's own.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .harness import CHOICES, COMMANDS, ExperimentConfig, InputError, config_for
from .mitigation import IllConditionedConfusion
from .optimizers import UnderDeterminedFit

if TYPE_CHECKING:
    import argparse     # imported by build_parser only: a plain run never needs it


def int_list(text: str) -> tuple[int, ...]:
    """Comma-separated ints. A value of empty entries only (",") is () for
    the config's "must not be empty" check; any other empty entry is a
    ValueError, which argparse reports as a usage error under this
    function's name ("invalid int_list value")."""
    tokens = text.split(",")
    return tuple(map(int, tokens)) if any(tokens) else ()


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
                          help="points-per-iteration metaparameter for mgd")),
    "start": ("--start", dict(type=float, nargs=2, metavar=("PHI", "THETA"))),
    "grid": ("--grid", dict(type=int, help="points per axis")),
    "shots_list": ("--shots-list", dict(type=int_list)),
    "pair_counts": ("--pair-counts", dict(type=int_list)),
}


def _command_flags(name: str) -> dict[str, tuple[str, dict]]:
    """Flag -> (setting, argparse settings with its choices) for every flag
    that command `name` reads, in help order."""
    command = COMMANDS[name]
    flags = {}
    for setting in ("seed", "out_dir", *command.reads):
        if setting in FLAGS:
            flag, spec = FLAGS[setting]
            choices = command.choices.get(setting, CHOICES.get(setting))
            flags[flag] = (setting, {**spec, "choices": choices} if choices else spec)
    return flags


def build_parser() -> argparse.ArgumentParser:
    """One parser per subcommand, holding only the flags it reads, so an
    unread flag is an error rather than silently ignored. Unset flags are
    absent from the namespace. Abbreviations are off: shots-sweep would
    otherwise read --shots as --shots-list."""
    import argparse

    parser = argparse.ArgumentParser(prog="parvqe",
                                     description="parallel two-qubit VQE testbed")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        for flag, (setting, spec) in _command_flags(name).items():
            p.add_argument(flag, dest=setting, **spec)
    return parser


def read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace build_parser would parse from a plain command line: a
    command, then flags it reads, each at most once, every value free of a
    leading '-', converted by its flag's type and among its choices, and
    every required flag given. None for any other command line."""
    if not argv or argv[0] not in COMMANDS:
        return None
    flags = _command_flags(argv[0])
    settings = {}
    i = 1
    while i < len(argv):
        if argv[i] not in flags:
            return None
        setting, spec = flags[argv[i]]
        n = spec.get("nargs", 1)
        values = argv[i + 1:i + 1 + n]
        if setting in settings or len(values) < n or any(v.startswith("-") for v in values):
            return None
        try:
            values = [spec.get("type", str)(value) for value in values]
        except (TypeError, ValueError):
            return None
        if "choices" in spec and any(value not in spec["choices"] for value in values):
            return None
        settings[setting] = values if "nargs" in spec else values[0]
        i += 1 + n
    if any(spec.get("required") and setting not in settings
           for setting, spec in flags.values()):
        return None
    return SimpleNamespace(command=argv[0], **settings)


def parse(argv: list[str]) -> SimpleNamespace | argparse.Namespace:
    """The command and flags of argv: read_plain's namespace, else
    argparse's, which prints help or a usage error and exits."""
    return read_plain(argv) or build_parser().parse_args(argv)


def config_from_args(args: SimpleNamespace | argparse.Namespace) -> ExperimentConfig:
    """The config of a parsed command and flags; settings without a flag
    keep the command's defaults (harness.config_for)."""
    return config_for(args.command, **{k: v for k, v in vars(args).items()
                                       if k in ExperimentConfig.field_names})


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse(argv)
    try:
        cfg = config_from_args(args)
        record = COMMANDS[args.command].handler(cfg)
    except (InputError, IllConditionedConfusion, UnderDeterminedFit, FileNotFoundError) as exc:
        build_parser().error(str(exc))
    print(f"wrote {cfg.out_dir}/record.json ({len(record.artifacts)} artifacts)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
