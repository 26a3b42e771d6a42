"""Command-line surface: train-teacher, distill, refine, sample, eval,
diagnose-isc. Every subcommand takes --config, --seed, and --dry-run; the
stage commands also take --force."""

import argparse
import functools
import os
import sys

import numpy as np

from .checkpoint import CheckpointFormatError, load_checkpoint
from .config import ConfigError, ExperimentConfig, load_config
from .data import KEY_LIMIT, make_rng
from .distill import (isc_residual, multi_step_sample, isc_residual_scan,
                      Interval)
from .pipeline import (STAGE_TABLE, STAGES, PipelineError, _eval_data, _input_path, emit_report,
                       run_pipeline)

STAGE_FOR_COMMAND = {
    **{"train-teacher" if stage == "teacher" else stage: [stage] for stage in STAGES},
    "pipeline": list(STAGES),
}


def _add_common(parser):
    parser.add_argument("--config", type=str, default=None,
                        help="path to a key = value config file")
    parser.add_argument("--seed", type=master_seed, default=None,
                        help="override the master seed")
    parser.add_argument("--dry-run", action="store_true",
                        help="validate the configuration and touch nothing")


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def master_seed(text):
    """A master seed keys Philox generators, whose keys lie in [0, 2**128)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    if value >= KEY_LIMIT:
        raise argparse.ArgumentTypeError(f"expected an integer below 2**128, got {text}")
    return value


def _load(args):
    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        config.seed = args.seed
    return config


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="splitflow",
        description="Desk-scale one-step generative distillation laboratory.")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, stages in STAGE_FOR_COMMAND.items():
        p = sub.add_parser(command, help="run " + " -> ".join(stages))
        _add_common(p)
        p.add_argument("--force", action="store_true",
                       help="re-run stages whose outputs already exist")

    p = sub.add_parser("sample", help="draw samples from a student checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", type=str, default=None,
                   help="student checkpoint (defaults to stage-2 then stage-1 in output_dir)")
    p.add_argument("--num", type=positive_int, default=16)
    p.add_argument("--steps", type=positive_int, default=1,
                   help="student jumps per sample (1 is one-step generation)")
    p.add_argument("--output", type=str, default=None)

    p = sub.add_parser("diagnose-isc", help="splitting-identity residuals")
    _add_common(p)
    p.add_argument("--trials", type=positive_int, default=1000)
    return parser


def cmd_stage(args, stages):
    config = _load(args)
    if args.dry_run:
        print(f"config ok (fingerprint {config.fingerprint()}); stages: {stages}")
        return 0
    # a diverging stage raises at a finiteness check; numpy's warnings would precede that line
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        paths = run_pipeline(config, stages, force=args.force)
    for p in paths:
        print(p)
    return 0


def cmd_sample(args):
    config = _load(args)
    ckpt = args.checkpoint
    if ckpt is None:
        # the student checkpoints the eval stage reads, in its order
        ckpt = _input_path(config, STAGE_TABLE[STAGES.index("eval")].needs[0])
    if args.dry_run:
        print(f"config ok (fingerprint {config.fingerprint()}); would sample from {ckpt}")
        return 0
    student, meta = load_checkpoint(ckpt)
    if meta["kind"] != "student":
        raise PipelineError(f"{ckpt} is a {meta['kind']} checkpoint, not a student one")
    # The eval set is rebuilt on every request: its seed follows `--seed`, and
    # a serving client sends a fresh seed with each request, so a memo would
    # never hit; Philox normal draws consume a variable number of outputs, so
    # the requested rows cannot be drawn without the rows before them.
    x_ref, cond_ref = _eval_data(config)
    if (student.state_dim, student.cond_dim) != (x_ref.shape[1], cond_ref.shape[1]):
        raise PipelineError(f"{ckpt}: the student takes state_dim {student.state_dim} and "
                            f"cond_dim {student.cond_dim}, but {config.dataset_name} has "
                            f"state_dim {x_ref.shape[1]} and cond_dim {cond_ref.shape[1]}")
    rng = make_rng(config.seed)
    idx = rng.integers(0, cond_ref.shape[0], size=args.num)
    cond = cond_ref[idx]
    eps = rng.standard_normal((args.num, student.state_dim)).astype(np.float32)
    samples = multi_step_sample(student, eps, cond, args.steps)
    out = args.output or os.path.join(config.output_dir, "samples.csv")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    emit_report(samples, out, columns=[f"x{j}" for j in range(samples.shape[1])])
    print(out)
    return 0


def cmd_diagnose(args):
    config = _load(args)
    if args.dry_run:
        print(f"config ok (fingerprint {config.fingerprint()})")
        return 0
    rng = make_rng(config.seed)

    exact = lambda z, r, t: np.full_like(np.asarray(z), t + r)   # average of v = 2*tau
    wrong = lambda z, r, t: np.full_like(np.asarray(z), t * t)
    exact_max = isc_residual_scan(exact, args.trials, rng)
    wrong_probe = isc_residual(wrong, np.zeros((1, 1)), Interval(0.0, 0.5, 1.0, 0.5))
    print(f"splitting-identity residual, exact average field (max over "
          f"{args.trials} trials): {exact_max:.3e}")
    print(f"splitting-identity residual, deliberately wrong field at "
          f"(r,s,t)=(0,0.5,1): {wrong_probe:.3f}")
    return 0


def main(argv=None):
    """Run one command; a bad config file, a missing stage input, a missing or
    unreadable file, a malformed checkpoint or a diverging stage exits 2 with a
    one-line message."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in STAGE_FOR_COMMAND:
            return cmd_stage(args, STAGE_FOR_COMMAND[args.command])
        if args.command == "sample":
            return cmd_sample(args)
        return cmd_diagnose(args)
    except (ConfigError, PipelineError, CheckpointFormatError, OSError, FloatingPointError) as exc:
        print(f"splitflow: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
