"""Command-line front end: design | bound | simulate | predict.

Exit codes: 0 success, 1 usage/config error, 2 runtime failure.
"""

import argparse
import csv
import json
import math
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import analysis, harness
from .codes import FAMILIES, CodeError, compute_iowef, parse_code_spec

SCHEMA_VERSION = 1
# the most points parse_grid accepts: a bound curve finer than this shows
# nothing more, and a typo in the step would otherwise run for hours
MAX_GRID_POINTS = 10_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_rate(text):
    try:
        fr = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"bad rate {text!r}: {e}")
    if not 0 < fr < 1:
        raise UsageError("rate must be in (0, 1)")
    return fr


def parse_grid(text):
    """"start:step:end" in dB, end inclusive up to rounding. Points are
    rounded to 9 decimals, and a grid must keep them distinct and have at
    most MAX_GRID_POINTS of them."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError('grid must be "start:step:end"')
    try:
        start, step, end = (float(p) for p in parts)
    except ValueError as e:
        raise UsageError(f"bad grid: {e}")
    if not all(map(math.isfinite, (start, step, end))):
        raise UsageError("grid needs finite start, step and end")
    if step <= 0 or end < start:
        raise UsageError("grid needs step > 0 and end >= start")
    grid = []
    g = start
    while g <= end + min(1e-9, step / 2):
        if len(grid) == MAX_GRID_POINTS:
            raise UsageError(f"grid has more than {MAX_GRID_POINTS} points")
        grid.append(round(g, 9))
        g += step
    if len(set(grid)) < len(grid):
        raise UsageError("grid repeats a point once rounded to 9 decimals")
    return grid


def short_code_for(family, rate):
    """The short code of a family at a rate: parse_code_spec's, of
    "family[denominator,numerator]^1"."""
    try:
        return parse_code_spec(f"{family}[{rate.denominator},{rate.numerator}]^1").short
    except CodeError:
        raise UsageError(f"no {family.upper()} code of rate {rate}") from None


def cmd_design(args):
    rate = parse_rate(args.rate)
    code = short_code_for(args.family, rate)
    spec = analysis.design_memory(float(rate), args.target, compute_iowef(code))
    doc = {
        "family": args.family,
        "code": f"{args.family.upper()}[{code.N},{code.K}]",
        "rate": float(rate),
        "p_target": spec.p_target,
        "gamma_target_db": round(spec.gamma_target_db, 4),
        "gamma_lim_db": round(spec.gamma_lim_db, 4),
        "gap_db": round(spec.gap_db, 4),
        "m": spec.m,
    }
    print(f"code           {doc['code']}")
    print(f"rate           {float(rate):.6g}")
    print(f"target BER     {spec.p_target:.3g}")
    print(f"gamma_target   {spec.gamma_target_db:.2f} dB")
    print(f"gamma_lim      {spec.gamma_lim_db:.2f} dB")
    print(f"gap            {spec.gap_db:.2f} dB")
    print(f"memory m       {spec.m}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
    return 0


def cmd_bound(args):
    # --kind -> the CSV kind and its bound of (iowef, m, p_genie, ebn0_db)
    kind, bound = {
        "basic": ("basic_union", lambda iowef, m, p, g: analysis.union_bound(iowef, g)),
        "lower": ("lower_bound", lambda iowef, m, p, g: analysis.lower_bound(iowef, m, g)),
        "genie": ("genie_bound", analysis.genie_bound),
    }[args.kind]
    if (args.kind == "genie") != bool(args.p_genie):
        raise UsageError("kind=genie requires at least one --p-genie" if args.kind == "genie"
                         else f"kind={args.kind} takes no --p-genie")
    if args.kind == "basic" and args.m is not None:
        raise UsageError("kind=basic takes no --m: the basic code has no memory")
    cart = parse_code_spec(args.spec)
    iowef = compute_iowef(cart.short)
    grid = parse_grid(args.grid)
    m = 0 if args.m is None else args.m
    rows = [[f"{g:.6g}", f"{bound(iowef, m, p, g):.6e}", kind,
             "" if p is None else f"{p:.6g}", m, args.spec.upper()]
            for p in args.p_genie or [None] for g in grid]
    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as fh:
        w = csv.writer(fh)
        w.writerow(["ebn0_db", "ber", "kind", "p_genie", "m", "code"])
        w.writerows(rows)
    return 0


def load_config(path, overrides=None):
    """The SimConfig of a JSON config file. SimConfig itself refuses unknown
    and missing fields, and values it cannot run."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise UsageError(f"bad config: need a JSON object, got {raw!r}")
    version = raw.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise UsageError(f"unsupported schema_version {version}")
    for k, v in (overrides or {}).items():
        if v is not None:
            raw[k] = v
    try:
        return harness.SimConfig(**raw)
    except (ValueError, TypeError) as e:
        raise UsageError(f"bad config: {e}")


def cmd_simulate(args):
    cfg = load_config(args.config, {"seed": args.seed, "workers": args.workers})
    results = harness.run_sweep(cfg, out_csv=args.out)
    cart = parse_code_spec(cfg.code)
    iowef = compute_iowef(cart.short)
    print(f"{'Eb/N0':>7} {'BER':>11} {'lower_bound':>12} {'p_I':>11} {'p_II':>11} {'iters':>6}")
    for r in results:
        lb = analysis.lower_bound(iowef, cfg.m, r.ebn0_db)
        p1 = r.p1_errors / r.p1_bits if r.p1_bits else float("nan")
        p2 = r.p2_errors / r.bits if cfg.decoder == "tpd" else float("nan")
        print(f"{r.ebn0_db:7.2f} {r.ber:11.4e} {lb:12.4e} {p1:11.4e} {p2:11.4e} "
              f"{r.mean_iters:6.2f}{'  (truncated)' if r.truncated else ''}")
    return 0


def cmd_predict(args):
    # the phase-II prediction: the noisy-genie bound with the genie wrong at p_I
    iowef = compute_iowef(parse_code_spec(args.spec).short)
    pred = analysis.genie_bound(iowef, args.m, args.p1, args.ebn0)
    lb = analysis.lower_bound(iowef, args.m, args.ebn0)
    print(f"predicted p_II  {pred:.3e}")
    print(f"lower bound     {lb:.3e}")
    return 0


def build_parser():
    p = _Parser(prog="bmst", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="pick the encoding memory for a rate and target BER")
    d.add_argument("--rate", required=True, help="code rate as a fraction, e.g. 1/2")
    d.add_argument("--target", required=True, type=float, help="target BER, e.g. 1e-15")
    d.add_argument("--family", required=True, choices=sorted(FAMILIES))
    d.add_argument("--out", help="write the design as JSON")
    d.set_defaults(func=cmd_design)

    b = sub.add_parser("bound", help="emit analytic bound curves as CSV")
    b.add_argument("--spec", required=True, help='code spec, e.g. "RC[2,1]^5000"')
    b.add_argument("--kind", required=True, choices=["basic", "lower", "genie"])
    b.add_argument("--m", type=int, help="encoding memory (lower, genie; default 0)")
    b.add_argument("--grid", required=True,
                   help='Eb/N0 grid "start:step:end" in dB; a negative start needs '
                        'the = form, e.g. --grid=-1:0.5:0')
    b.add_argument("--p-genie", type=float, action="append", default=[],
                   help="genie flip probability (repeatable)")
    b.add_argument("--out", help="output CSV path (default stdout)")
    b.set_defaults(func=cmd_bound)

    s = sub.add_parser("simulate", help="run a Monte Carlo sweep from a JSON config")
    s.add_argument("config", help="experiment config JSON")
    s.add_argument("--out", help="results CSV path (enables resume)")
    s.add_argument("--seed", type=int, help="override the config seed")
    s.add_argument("--workers", type=int, help="override the worker count")
    s.set_defaults(func=cmd_simulate)

    pr = sub.add_parser("predict", help="predict phase-II BER from a measured p_I")
    pr.add_argument("--spec", required=True)
    pr.add_argument("--m", type=int, required=True)
    pr.add_argument("--p1", type=float, required=True, help="measured phase-I BER, in [0, 0.5]")
    pr.add_argument("--ebn0", type=float, required=True, help="Eb/N0 in dB")
    pr.set_defaults(func=cmd_predict)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
