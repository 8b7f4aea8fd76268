"""Command-line front end: sweeps, optimizer training, and table inspection.

All run configuration comes from JSON documents carrying ``"schema": 1``
so batch experiments stay reproducible; flags only select files, seeds,
and worker counts.  Exit codes: 0 success, 2 usage/configuration error,
3 runtime failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from .epdetect import load_damping_table, save_damping_table, sigmoid
from .harness import ExperimentConfig, run_sweep, write_records
from .metaopt import (
    ChannelStats,
    LstmOptimizerParams,
    meta_train_recipe,
    online_train,
)
from .channel import SnrSpec
from .epdetect import EpConfig, JddReceiver
from .modem import Constellation
from .turbocode import TurboCodec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    pass


def _load_json(path):
    if not os.path.exists(path):
        raise ConfigError(f"file not found: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def _require_schema(doc, path):
    if doc.get("schema") != 1:
        raise ConfigError(f"{path}: expected \"schema\": 1")


def _experiment_from_doc(doc, seed=None, workers=None):
    system = doc.get("system", {})
    snr = doc.get("snr", {})
    channel = doc.get("channel", {})
    stopping = doc.get("stopping", {})
    damping = doc.get("damping", {"source": "fixed", "value": 0.1})
    training = doc.get("training", {})
    table = None
    if damping.get("source") == "table":
        if not os.path.exists(damping.get("path", "")):
            raise ConfigError(f"damping table not found: {damping.get('path')}")
        table = load_damping_table(damping["path"])
    try:
        config = ExperimentConfig(
            nt=int(system["nt"]),
            nr=int(system["nr"]),
            mod_order=int(system["mod_order"]),
            snr_grid_db=tuple(float(v) for v in snr["grid_db"]),
            snr_mode=snr.get("mode", "eb-uncoded"),
            variants=tuple(doc.get("variants", ("mmse", "ep"))),
            channel_kind=channel.get("kind", "rayleigh"),
            rho=float(channel.get("rho", 0.0)),
            message_len=system.get("message_len"),
            decoder=system.get("decoder", "max-log"),
            decoder_iters=int(system.get("decoder_iters", 5)),
            jdd_stages=int(system.get("jdd_stages", 4)),
            ep_layers=int(system.get("ep_layers", 5)),
            fixed_damping=float(damping.get("value", 0.1)),
            damping_source=damping.get("source", "fixed"),
            damping_table=table,
            train_epochs=int(training.get("epochs", 100)),
            train_samples=int(training.get("samples", 5000)),
            min_bit_errors=int(stopping.get("min_bit_errors", 200)),
            max_bits=int(stopping.get("max_bits", 10_000_000)),
            master_seed=int(doc.get("seed", 1) if seed is None else seed),
            workers=int(workers or 1),
        )
        config.validate()
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid sweep configuration: {exc}") from exc
    return config


def cmd_sweep(args):
    doc = _load_json(args.config)
    _require_schema(doc, args.config)
    config = _experiment_from_doc(doc, seed=args.seed, workers=args.workers)
    theta = None
    if args.theta:
        theta_doc = _load_json(args.theta)
        theta = LstmOptimizerParams.from_doc(theta_doc)
    elif config.damping_source == "trained":
        raise ConfigError("trained damping requires --theta")
    os.makedirs(args.out, exist_ok=True)
    records = run_sweep(config, theta=theta)
    out_csv = os.path.join(args.out, "results.csv")
    write_records(out_csv, records)
    for r in records:
        print(f"{r.variant} @ {r.snr_db:g} dB: BER={r.ber:.4e} "
              f"({r.bit_errors}/{r.bits} bits)")
    print(f"wrote {out_csv}")
    return EXIT_OK


def cmd_meta_train(args):
    rng = np.random.default_rng(args.seed)
    theta, curve = meta_train_recipe(total_epochs=args.epochs, rng=rng)
    theta.save(args.out)
    curve_path = args.curve or args.out + ".curve.csv"
    with open(curve_path, "w") as fh:
        fh.write("epoch,loss\n")
        for i, v in enumerate(curve):
            fh.write(f"{i},{v:.8e}\n")
    print(f"wrote {args.out} and {curve_path} "
          f"(final loss {np.mean(curve[-50:]):.4f})")
    return EXIT_OK


def cmd_online_train(args):
    theta = LstmOptimizerParams.from_doc(_load_json(args.theta))
    doc = _load_json(args.config)
    _require_schema(doc, args.config)
    system = doc.get("system", {})
    snr = doc.get("snr", {})
    channel = doc.get("channel", {})
    training = doc.get("training", {})
    try:
        # --seed overrides the document's seed for the code's interleaver
        # and the dataset alike, as `sweep --seed` does
        seed = int(doc.get("seed", 1) if args.seed is None else args.seed)
        mod_order = int(system["mod_order"])
        message_len = system.get("message_len")
        codec = None
        code_rate = 1.0
        stages = int(system.get("jdd_stages", 1))
        if message_len is not None:
            codec = TurboCodec(k=int(message_len),
                               decoder=system.get("decoder", "max-log"),
                               n_iter=int(system.get("decoder_iters", 5)),
                               seed=seed)
            code_rate = codec.rate
        elif stages != 1:
            raise ConfigError("multi-stage training requires message_len")
        spec = SnrSpec(snr.get("mode", "eb-uncoded"), float(snr["value_db"]),
                       mod_order, code_rate=code_rate)
        stats = ChannelStats(
            nt=int(system["nt"]), nr=int(system["nr"]), mod_order=mod_order,
            snr=spec, kind=channel.get("kind", "rayleigh"),
            rho=float(channel.get("rho", 0.0)),
            n_samples=int(training.get("samples", 5000)),
            seed=seed,
        )
        if stats.n_samples < 1:
            raise ConfigError("channel statistics dataset is empty")
        layers = int(system.get("ep_layers", 5))
        receiver = JddReceiver(
            codec=codec, constellation=Constellation(mod_order),
            schedules=np.ones((stages, layers)),
            config=EpConfig(layers=layers),
            decoder_iters=int(system.get("decoder_iters", 5)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid training configuration: {exc}") from exc

    trained, curves = online_train(
        receiver, stats, theta,
        epochs=int(training.get("epochs", 100)),
        rng=np.random.default_rng(stats.seed),
    )
    save_damping_table(args.out, sigmoid(trained.schedules))
    for i, curve in enumerate(curves):
        print(f"stage {i + 1}: loss {curve[0]:.4f} -> {curve[-1]:.4f} "
              f"({curve.size - 1} epochs)")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_show_table(args):
    if not os.path.exists(args.table):
        raise ConfigError(f"file not found: {args.table}")
    raw = load_damping_table(args.table)
    eff = sigmoid(raw)
    print(f"damping table: {eff.shape[0]} stage(s) x {eff.shape[1]} layer(s)")
    header = "stage " + " ".join(f"   L={l + 1}" for l in range(eff.shape[1]))
    print(header)
    for i, row in enumerate(eff):
        print(f"{i + 1:5d} " + " ".join(f"{v:.4f}" for v in row))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="epturbo",
        description="Unfolded MIMO turbo receiver experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a BER sweep from a JSON config")
    p.add_argument("config", help="sweep configuration JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the master seed")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel chunk workers")
    p.add_argument("--theta", default=None,
                   help="optimizer weights JSON (for trained damping)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("meta-train",
                       help="meta-train the LSTM optimizer offline")
    p.add_argument("--out", required=True, help="output weights JSON")
    p.add_argument("--seed", type=int, default=2)
    p.add_argument("--epochs", type=int, default=14000,
                   help="epochs run over the three staged phases (4:2:1, "
                        "remainder to the first); 1 or 2 run 3")
    p.add_argument("--curve", default=None, help="training-curve CSV path")
    p.set_defaults(func=cmd_meta_train)

    p = sub.add_parser("online-train",
                       help="train damping schedules for one operating point")
    p.add_argument("--theta", required=True, help="optimizer weights JSON")
    p.add_argument("--config", required=True, help="channel/system JSON")
    p.add_argument("--out", required=True, help="output damping-table JSON")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_online_train)

    p = sub.add_parser("show-table", help="pretty-print a damping table")
    p.add_argument("table", help="damping-table JSON")
    p.set_defaults(func=cmd_show_table)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
