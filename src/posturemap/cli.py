"""Command-line front end.

Subcommands cover the full pipeline: ``babble`` (synthetic dataset),
``encode`` / ``decode`` (population coding), ``train`` / ``eval`` (map
training and metrics), ``experiment`` (the full matrix), plus
``demo-inconsistency``, ``plot-curves``, and ``plot-map`` figures.

Bad input (a malformed or missing file, a value out of range, a rejected
flag value, an undecodable row, a map without a codec) ends a command with
one line ``posturemap <command>: <reason>`` on stderr and exit status 1,
and so does an experiment process that exits without sending its cells.
A flag value that its type cannot parse reads ``posturemap <command>:
argument --<flag>: invalid <type> value: '<text>'``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .babble import SAMPLE_RATE_HZ, BabbleConfig, generate_babble
from .codec import FAMILIES, CodecSpec, build_codec, encode_dataset, load_codec, save_codec
from .dataset import JointSpec, load_dataset, read_json, read_matrix_csv, save_dataset, write_matrix_csv
from .decode import KdeConfig, decode_matrix, undecodable_dof_error
from .errors import WorkerExitError
from .experiment import ExperimentConfig, demo_inconsistency, run_experiment
from .metrics import evaluate_map
from .plots import plot_posture_grid, plot_tuning_curves
from .som import (
    TrainConfig,
    data_ranges,
    init_consistent,
    init_naive,
    load_map,
    save_map,
    train,
)


class _BadFlagValue(Exception):
    """A flag value that its type cannot parse.  It is no ``ValueError``, so
    argparse lets it through to :func:`main`, which reports it in one line."""


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: a flag value that its type cannot parse raises
    :class:`_BadFlagValue` with argparse's own message, after the command,
    in place of argparse's usage block and exit status 2."""

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.type is not None:
            action.type = self._reporting(action, action.type)
        return action

    def _reporting(self, action, convert):
        def parse(text):
            try:
                return convert(text)
            except argparse.ArgumentTypeError as exc:
                reason = str(exc)
            except (TypeError, ValueError):
                reason = f"invalid {convert.__name__} value: {text!r}"
            raise _BadFlagValue(f"{self.prog}: argument {'/'.join(action.option_strings)}: {reason}")
        return parse


def _comma_list(item):
    """A flag type: comma-separated values, each parsed by ``item``."""
    def parse(text: str) -> tuple:
        values = []
        for part in text.split(","):
            try:
                values.append(item(part))
            except ValueError:
                raise argparse.ArgumentTypeError(f"invalid {item.__name__} value: {part!r}") from None
        return tuple(values)
    return parse


def _kde_from_args(args) -> KdeConfig:
    # KdeConfig holds the validity rule; checking the bandwidth alone first
    # tells which flag a rejected value came from.
    flag = "--bandwidth"
    try:
        bw = args.bandwidth if args.bandwidth == "auto" else float(args.bandwidth)
        KdeConfig(bandwidth_h=bw)
        flag = "--grid"
        return KdeConfig(bandwidth_h=bw, grid_resolution=args.grid)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _add_kde_args(p) -> None:
    p.add_argument("--bandwidth", default=KdeConfig.bandwidth_h, help='KDE bandwidth in degrees or "auto"')
    p.add_argument("--grid", type=float, default=KdeConfig.grid_resolution,
                   help="decode grid resolution in degrees")


def _codec_spec_from_args(args) -> CodecSpec:
    if args.offset is not None:
        return CodecSpec(args.family, "fixed_offset", args.offset)
    return CodecSpec(args.family, "fixed_count", args.count)


def _add_codec_args(p) -> None:
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--count", type=int, default=CodecSpec.n_or_offset,
                   help="curves per DoF (fixed-count setup)")
    p.add_argument("--offset", type=float, default=None,
                   help="degrees between curves (switches to the fixed-offset setup)")


def cmd_babble(args) -> int:
    cfg = BabbleConfig(seed=args.seed, duration_s=args.duration)
    ds = generate_babble(cfg)
    save_dataset(ds, args.out, joint_spec_path=args.spec_out)
    print(f"wrote {ds.n_samples} samples x {ds.n_joints} joints to {args.out}")
    return 0


def cmd_encode(args) -> int:
    ds = load_dataset(args.data, args.spec)
    codec = build_codec(_codec_spec_from_args(args), ds.joints)
    encoded = encode_dataset(codec, ds)
    header = [f"ch{c}" for c in range(encoded.shape[1])]
    write_matrix_csv(args.out, header, encoded)
    if args.codec_out:
        save_codec(codec, args.codec_out)
    print(f"encoded {encoded.shape[0]} samples to width {encoded.shape[1]} in {args.out}")
    return 0


def cmd_decode(args) -> int:
    codec = load_codec(args.codec)
    _, matrix = read_matrix_csv(args.data)
    cfg = _kde_from_args(args)
    decoded = decode_matrix(codec, matrix, cfg)
    failed = np.flatnonzero(np.isnan(decoded).any(axis=1))
    if failed.size:
        t = int(failed[0])
        raise ValueError(f"row {t}: {undecodable_dof_error(codec, decoded[t], cfg)}")
    write_matrix_csv(args.out, [j.name for j in codec.joints], decoded)
    print(f"decoded {decoded.shape[0]} rows to {args.out}")
    return 0


def cmd_train(args) -> int:
    codec = load_codec(args.codec)
    _, encoded = read_matrix_csv(args.data)
    if args.init == "consistent":
        som = init_consistent(args.rows, args.cols, codec, seed=args.seed)
    else:
        som = init_naive(args.rows, args.cols, data_ranges(encoded), seed=args.seed, codec=codec)
    cfg = TrainConfig(cycles=args.cycles, shuffle=args.shuffle, seed=args.seed)
    trained, trace = train(som, encoded, cfg)
    save_map(trained, args.out, train_config=cfg)
    print(f"trained {args.rows}x{args.cols} map: QE {trace[0]:.4f} -> {trace[-1]:.4f}; wrote {args.out}")
    return 0


def _load_map_with_codec(path):
    som = load_map(path)
    if som.codec is None:
        raise ValueError(f"{path}: the map carries no codec to decode its units with")
    return som


def cmd_eval(args) -> int:
    som = _load_map_with_codec(args.map)
    ds = load_dataset(args.data, args.spec)
    encoded = encode_dataset(som.codec, ds)
    report = evaluate_map(som, som.codec, ds, encoded, _kde_from_args(args),
                          cycles=som.trained_cycles)
    Path(args.out).write_text(json.dumps(report.to_json(), indent=2) + "\n")
    print(json.dumps(report.to_json(), indent=2))
    return 0


def _experiment_config_from_json(doc) -> ExperimentConfig:
    # Lists and other values pass through, so that ExperimentConfig names
    # the field of any it rejects.
    if isinstance(doc, dict) and isinstance(doc.get("kde"), dict):
        doc["kde"] = KdeConfig(**doc["kde"])
    return ExperimentConfig(**doc)


def cmd_experiment(args) -> int:
    if args.config:
        cfg = read_json(args.config, _experiment_config_from_json)
    else:
        # Each flag's dest is the ExperimentConfig field it sets.
        cfg = ExperimentConfig(**{f.name: getattr(args, f.name)
                                  for f in dataclasses.fields(ExperimentConfig) if f.name in args})
    results = run_experiment(cfg)
    n_fail = sum(1 for c in results if c.error is not None)
    for cell in results:
        status = "ok" if cell.error is None else f"FAILED: {cell.error}"
        print(f"{cell.label}: {status}")
    print(f"{len(results) - n_fail}/{len(results)} cells succeeded; artifacts in {cfg.out_dir}")
    if n_fail and cfg.strict:
        return 1
    return 0


def cmd_demo_inconsistency(args) -> int:
    # Flags not given are absent, so that demo_inconsistency's defaults apply.
    given = {name: getattr(args, name) for name in ("out_dir", "count", "alpha") if name in args}
    if "range" in args:
        given["joint"] = JointSpec("demo_joint", *args.range)
    report = demo_inconsistency(args.family, *args.angles, **given)
    print(json.dumps(report, indent=2))
    return 0


def cmd_plot_curves(args) -> int:
    if args.data:
        if not args.spec:
            raise ValueError("--spec is required when --data is given")
        ds = load_dataset(args.data, args.spec)
    else:
        ds = generate_babble(BabbleConfig(seed=args.seed, duration_s=30.0))
    codec = build_codec(_codec_spec_from_args(args), ds.joints)
    plot_tuning_curves(codec, ds, dof=args.dof).save(args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_plot_map(args) -> int:
    som = _load_map_with_codec(args.map)
    plot_posture_grid(som, cfg=_kde_from_args(args)).save(args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posturemap",
        description="Population-coded posture datasets, SOM training, and decoding experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p = sub.add_parser("babble", help="generate a synthetic reach-and-gaze dataset")
    p.add_argument("--seed", type=int, default=BabbleConfig.seed)
    p.add_argument("--duration", type=float, default=BabbleConfig.duration_s,
                   help=f"seconds at SAMPLE_RATE_HZ ({SAMPLE_RATE_HZ:g} Hz)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--spec-out", default=None, help="joint-spec sidecar JSON path")
    p.set_defaults(func=cmd_babble)

    p = sub.add_parser("encode", help="encode a dataset with a tuning-curve codec")
    _add_codec_args(p)
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--spec", required=True, help="joint-spec sidecar JSON")
    p.add_argument("--out", required=True, help="encoded CSV path")
    p.add_argument("--codec-out", default=None, help="write the codec JSON here")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode encoded vectors back to angles")
    p.add_argument("--codec", required=True, help="codec JSON")
    p.add_argument("--data", required=True, help="encoded CSV")
    p.add_argument("--out", required=True, help="decoded dataset CSV path")
    _add_kde_args(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("train", help="train a map on encoded data")
    p.add_argument("--codec", required=True)
    p.add_argument("--data", required=True, help="encoded CSV")
    p.add_argument("--rows", type=int, default=ExperimentConfig.rows)
    p.add_argument("--cols", type=int, default=ExperimentConfig.cols)
    p.add_argument("--cycles", type=int, default=TrainConfig.cycles)
    p.add_argument("--shuffle", action=argparse.BooleanOptionalAction, default=TrainConfig.shuffle)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--init", choices=("consistent", "naive"), default="consistent")
    p.add_argument("--out", required=True, help="map JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="compute metrics of a trained map")
    p.add_argument("--map", required=True)
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--spec", required=True, help="joint-spec sidecar JSON")
    p.add_argument("--out", required=True, help="metrics JSON path")
    _add_kde_args(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="run the family x count x seed matrix")
    p.add_argument("--config", default=None, help="JSON config file (overrides flags)")
    p.add_argument("--out", dest="out_dir", metavar="OUT", default=ExperimentConfig.out_dir)
    p.add_argument("--babble-seed", type=int, default=ExperimentConfig.babble_seed)
    p.add_argument("--duration", dest="duration_s", metavar="DURATION", type=float,
                   default=ExperimentConfig.duration_s)
    p.add_argument("--families", type=_comma_list(str), default=ExperimentConfig.families)
    p.add_argument("--counts", type=_comma_list(int), default=ExperimentConfig.counts)
    p.add_argument("--rows", type=int, default=ExperimentConfig.rows)
    p.add_argument("--cols", type=int, default=ExperimentConfig.cols)
    p.add_argument("--cycles", type=int, default=ExperimentConfig.cycles)
    p.add_argument("--shuffle", action=argparse.BooleanOptionalAction, default=ExperimentConfig.shuffle)
    p.add_argument("--seeds", type=_comma_list(int), default=ExperimentConfig.seeds)
    p.add_argument("--strict", action="store_true", default=ExperimentConfig.strict,
                   help="exit nonzero if any cell fails")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("demo-inconsistency", help="one-update drift demonstration")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--angles", type=float, nargs=2, default=(-20.0, 10.0),
                   metavar=("INPUT", "INIT"), help="the two angles in degrees")
    p.add_argument("--range", type=float, nargs=2, default=argparse.SUPPRESS,
                   metavar=("MIN", "MAX"), help="joint range in degrees")
    p.add_argument("--count", type=int, default=argparse.SUPPRESS)
    p.add_argument("--alpha", type=float, default=argparse.SUPPRESS)
    p.add_argument("--out", dest="out_dir", metavar="OUT", default=argparse.SUPPRESS,
                   help="output directory for SVG + JSON")
    p.set_defaults(func=cmd_demo_inconsistency)

    p = sub.add_parser("plot-curves", help="render tuning curves for one DoF")
    _add_codec_args(p)
    p.add_argument("--data", default=None, help="dataset CSV (default: fresh babble)")
    p.add_argument("--spec", default=None, help="joint-spec sidecar JSON")
    p.add_argument("--seed", type=int, default=BabbleConfig.seed, help="babble seed when no data given")
    p.add_argument("--dof", type=int, default=0)
    p.add_argument("--out", required=True, help="SVG path")
    p.set_defaults(func=cmd_plot_curves)

    p = sub.add_parser("plot-map", help="render the decoded posture grid of a map")
    p.add_argument("--map", required=True)
    p.add_argument("--out", required=True, help="SVG path")
    _add_kde_args(p)
    p.set_defaults(func=cmd_plot_map)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _BadFlagValue as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError, WorkerExitError) as exc:
        print(f"posturemap {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
