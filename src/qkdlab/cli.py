"""Command-line front end.

Subcommands: keyrate, simulate, stability, optimize, scan.  All outputs
are pure functions of (config, flags, seed); numeric output uses 6
significant digits and every JSON report embeds the fully resolved
configuration.  Exit codes: 0 success, 1 error, 2 zero secure length.
The QKD_THREADS environment variable sets how many worker processes a
simulation uses (default 1): `simulate` splits its gates into contiguous
shards, `stability` its windows into contiguous blocks, and results are
the same for any value.  A value that is not an integer >= 1 is an error,
and so is one above 1 where the "fork" start method is unavailable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from . import finitekey, mcsim, optimizer, rates
from .core import (
    Basis,
    ConfigError,
    ParamError,
    load_config,
    resolved_config_dict,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ZERO_KEY = 2


def _sig6(x):
    """Round floats to 6 significant digits, recursively."""
    if isinstance(x, float):
        return float(f"{x:.6g}")
    if isinstance(x, dict):
        return {k: _sig6(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig6(v) for v in x]
    return x


def _emit_json(payload: dict) -> None:
    print(json.dumps(_sig6(payload), indent=2, sort_keys=True))


def _load(args):
    try:
        return load_config(args.config)
    except (ConfigError, ParamError) as exc:
        raise CliError(str(exc)) from exc


class CliError(Exception):
    pass


def _apply_loss(link, args):
    if args.loss_db is not None and args.distance_km is not None:
        raise CliError("give only one of --loss-db / --distance-km")
    try:
        if args.loss_db is not None:
            return link.with_channel_loss(args.loss_db)
        if args.distance_km is not None:
            return link.with_channel_loss(args.distance_km * optimizer.DB_PER_KM)
    except ParamError as exc:
        raise CliError(str(exc)) from exc
    return link


def cmd_keyrate(args) -> int:
    p, link, sim = _load(args)
    link = _apply_loss(link, args)
    stats = rates.expected_statistics(p, link)
    try:
        report = finitekey.key_length(stats.counts, p)
    except (finitekey.EmptyKeyBasis, finitekey.IntensityDegenerate) as exc:
        raise CliError(str(exc)) from exc
    payload = {
        "report": asdict(report),
        "expected": {
            "q_mu": stats.q_mu,
            "q_nu": stats.q_nu,
            "e_z": stats.pooled_qber(Basis.Z),
            "e_x": stats.pooled_qber(Basis.X),
        },
        "config": resolved_config_dict(p, link, sim),
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"{'channel loss':<30}{link.channel_loss_db:.6g} dB")
        for key, value in sorted(asdict(report).items()):
            print(f"{key:<30}{value:.6g}" if isinstance(value, float) else f"{key:<30}{value}")
    return EXIT_OK if report.l_bits > 0 else EXIT_ZERO_KEY


def cmd_simulate(args) -> int:
    p, link, sim = _load(args)
    link = _apply_loss(link, args)
    seed = sim.seed if args.seed is None else args.seed
    n_pulses = args.pulses
    if n_pulses is not None and n_pulses < 1:
        raise CliError(f"--pulses {n_pulses} must be >= 1")
    try:
        res = mcsim.run_session(
            p,
            link,
            seed,
            n_pulses=n_pulses,
            keep_records=args.records is not None,
            record_cap=sim.record_cap,
        )
    except (mcsim.BudgetExceeded, ValueError) as exc:
        raise CliError(str(exc)) from exc
    if args.records is not None:
        mcsim.write_records(res.records, args.records)
    payload = {
        "seed": seed,
        "n_pulses": res.n_pulses,
        "counts": res.counts.as_dict(),
        "detection_gates": res.detection_gates,
        "multi_click_gates": res.multi_click_gates,
        "ground_truth": asdict(res.ground_truth),
        "config": resolved_config_dict(p, link, sim),
    }
    _emit_json(payload)
    return EXIT_OK


def cmd_stability(args) -> int:
    p, link, sim = _load(args)
    if args.hours <= 0:
        raise CliError(f"--hours {args.hours} must be positive")
    seed = sim.seed if args.seed is None else args.seed
    drift = mcsim.DriftModel(sigma=sim.sigma, theta0=sim.theta0)
    try:
        schedule = mcsim.Schedule(duration_h=args.hours)
        windows = mcsim.run_stability(
            p, link, drift, schedule, seed, pulses_per_window=args.pulses_per_window
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    lines = ["window_start_s,q_mu,q_nu,e_z,e_x"]
    for w in windows:
        lines.append(
            f"{w.window_start_s:.6g},{w.q_mu:.6g},{w.q_nu:.6g},{w.e_z:.6g},{w.e_x:.6g}"
        )
    out = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


def _grid(p, free_p_z: bool) -> optimizer.GridSpec:
    """The default grid at the config's p_z, or with p_z free in 0.5..0.95."""
    return optimizer.GridSpec(
        p_z_values=optimizer._steps(0.5, 0.95, 0.05) if free_p_z else (p.p_z_bob,)
    )


def cmd_optimize(args) -> int:
    p, link, sim = _load(args)
    link = _apply_loss(link, args)
    try:
        result = optimizer.optimize(link, p0=p, grid=_grid(p, args.free_p_z))
    except optimizer.EmptyFeasibleSet:
        print("no feasible parameters (secure length zero everywhere)", file=sys.stderr)
        return EXIT_ZERO_KEY
    row = optimizer.ScanRow.at(
        link.channel_loss_db, result.best, result.l_bits, result.skr_bps, result.stats
    )
    sys.stdout.write(optimizer.format_scan_csv([row]))
    return EXIT_OK


def _parse_losses(text: str) -> list:
    try:
        if ":" in text:
            a, b, step = (float(x) for x in text.split(":"))
            # an infinite bound or step would never end the range
            if not all(map(math.isfinite, (a, b, step))) or step <= 0 or b < a:
                raise ValueError
            out = []
            v = a
            while v <= b + 1e-9:
                out.append(round(v, 10))
                v += step
            return out
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise CliError(f"malformed loss range {text!r}; expected a:b:step or comma list") from None


def cmd_scan(args) -> int:
    p, link, sim = _load(args)
    losses = _parse_losses(args.losses)
    if not losses:
        raise CliError("loss list is empty")
    try:
        if args.optimize:
            rows = optimizer.scan(link, losses, p="optimize", grid=_grid(p, args.free_p_z), p0=p)
        else:
            rows = optimizer.scan(link, losses, p=p)
    except ParamError as exc:
        raise CliError(str(exc)) from exc
    out = optimizer.format_scan_csv(rows)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qkdlab", description=__doc__)
    ap.add_argument("--config", default="./qkd.conf", help="configuration file path")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_loss_flags(sp):
        sp.add_argument("--loss-db", type=float, default=None)
        sp.add_argument("--distance-km", type=float, default=None)

    sp = sub.add_parser("keyrate", help="analytic finite-key rate for one link")
    add_loss_flags(sp)
    sp.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    sp.set_defaults(func=cmd_keyrate)

    sp = sub.add_parser("simulate", help="Monte Carlo session")
    add_loss_flags(sp)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--pulses", type=int, default=None)
    sp.add_argument("--records", default=None, help="write detection records to CSV")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("stability", help="long-run drift experiment")
    sp.add_argument("--hours", type=float, default=48.0)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--pulses-per-window", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_stability)

    sp = sub.add_parser("optimize", help="search protocol parameters for one link")
    add_loss_flags(sp)
    sp.add_argument("--free-p-z", action="store_true", help="include p_z in the search grid")
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("scan", help="key rate versus channel loss")
    sp.add_argument("--losses", required=True, help="a:b:step range or comma list, in dB")
    sp.add_argument("--optimize", action="store_true", help="re-optimize parameters per loss")
    sp.add_argument("--free-p-z", action="store_true", help="include p_z in the search grid")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_scan)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (mcsim.FormatError, mcsim.IoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
