"""Monte Carlo BER experiment engine.

Frame f of grid point p draws its RNG from SeedSequence(seed,
spawn_key=(p, f)), so error counts depend only on (config, seed) and never
on scheduling or worker count. Stop rules are evaluated frame-by-frame in
index order; surplus frames computed by a pool are discarded.
"""

import csv
import hashlib
import itertools
import json
import math
import operator
import os
import time
from collections import deque
from contextlib import closing, nullcontext
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache

import numpy as np

from . import analysis
from .channel import channel_llr, ebn0_to_sigma, transmit
from .codes import compute_iowef, parse_code_spec
from .coupling import bpsk_map, encode_frame, make_system, true_branch_words
from .swd import STOP_THRESHOLD, decode_frame_swd
from .tpd import decode_frame_gad, decode_frame_tpd, flipped_side_info

# Names the decoders' seeded results. Every change that alters a result
# of run_sweep for some config and seed bumps it, so that a resume never
# mixes rows of two versions; tests/test_harness.py pins it to a digest
# of seeded sweeps.
RESULTS_VERSION = 6

# the decoder parameters of SimConfig that each decoder reads; the results
# identity leaves out those that cfg.decoder does not
DECODER_PARAMS = {
    "swd": ("d", "i_max", "stop_threshold"),
    "tpd": ("d", "i_max", "stop_threshold"),
    "gad_perfect": (),
    "gad_flipped": ("p_genie",),
}
DECODERS = tuple(DECODER_PARAMS)

class ConfigError(ValueError):
    pass


# what a value of each declared field type must be; the least of each int field
_KINDS = {int: "an integer", float: "a real number", str: "a string",
          tuple: "a non-empty list of finite, distinct values"}
_INT_LEAST = {"m": 0, "L": 1, "d": -1, "i_max": 1, "min_bit_errors": 1, "max_bits": 1,
              "seed": 0, "workers": 1}


@dataclass(frozen=True)
class SimConfig:
    """One seeded experiment, each field checked by its declared type. d = -1 is
    stored as 3m, so dataclasses.replace(cfg, m=...) keeps the old d."""

    code: str
    m: int
    L: int
    decoder: str
    ebn0_grid_db: tuple
    d: int = -1                  # -1 -> 3m
    i_max: int = 18
    p_genie: float = -1.0        # required for gad_flipped
    min_bit_errors: int = 100
    max_bits: int = 1_000_000_000
    max_seconds: float = -1.0    # <= 0 -> no wall-clock cap
    seed: int = 0
    workers: int = 1
    stop_threshold: float = STOP_THRESHOLD

    def __post_init__(self):
        # An integer-valued numpy scalar becomes an int and a number a float, so
        # that the content hash serializes them and 0 and 0.0 name the same
        # results. A bool, or a str where no str is due, would run as something
        # else: a string grid one point per character. Resume keys rows by Eb/N0
        # alone, so a repeated value would be skipped with its twin.
        for f in fields(self):
            raw = getattr(self, f.name)
            if f.type not in _KINDS:  # a string annotation lands here too
                raise TypeError(f"SimConfig.{f.name} has type {f.type!r}, which no check knows")
            try:
                if isinstance(raw, bool) or isinstance(raw, str) != (f.type is str):
                    raise TypeError
                if f.type is int:
                    value = operator.index(raw)
                elif f.type is tuple:  # ebn0_grid_db
                    value = tuple(float(g) for g in raw)
                    if not all(map(math.isfinite, value)) or not 0 < len(set(value)) == len(value):
                        raise ValueError
                else:
                    value = f.type(raw)
            except (TypeError, ValueError):
                raise ConfigError(f"need {f.name} {_KINDS[f.type]}, got {raw!r}") from None
            if f.type is int and value < _INT_LEAST[f.name]:
                raise ConfigError(f"need {f.name} >= {_INT_LEAST[f.name]}, got {value}")
            object.__setattr__(self, f.name, value)
        if self.decoder not in DECODERS:
            raise ConfigError(f"decoder must be one of {DECODERS}")
        if self.decoder == "gad_flipped" and not 0.0 <= self.p_genie <= 0.5:
            raise ConfigError("gad_flipped needs p_genie in [0, 0.5]")
        # a NaN threshold would never stop the iterations early
        if not math.isfinite(self.stop_threshold):
            raise ConfigError(f"need stop_threshold finite, got {self.stop_threshold!r}")
        if self.d == -1:
            object.__setattr__(self, "d", 3 * self.m)
        if self.decoder == "tpd" and self.d < self.m:
            raise ConfigError("TPD needs d >= m")
        rate = parse_code_spec(self.code).rate  # validates the spec early
        for g in self.ebn0_grid_db:
            try:  # sigma overflows below about -3200 dB
                sigma = ebn0_to_sigma(g, rate)
            except ValueError as e:
                raise ConfigError(f"ebn0_grid_db: {e}") from None
            if sigma == 0.0:  # above about 3083 dB
                raise ConfigError(f"ebn0_grid_db: {g} dB gives sigma = 0, a channel without noise")

    def to_dict(self):
        d = asdict(self)
        d["ebn0_grid_db"] = list(d["ebn0_grid_db"])
        return d

    def content_hash(self):
        """Identity of the results: every field that affects them, plus the
        results version of the code. The worker count changes no result,
        and nor does a decoder parameter that cfg.decoder does not read.
        d = -1 is stored as 3m, so the two name the same results."""
        unread = {p for params in DECODER_PARAMS.values() for p in params}
        unread = unread.difference(DECODER_PARAMS[self.decoder]) | {"workers"}
        d = {k: v for k, v in self.to_dict().items() if k not in unread}
        d["results_version"] = RESULTS_VERSION
        blob = json.dumps(d, sort_keys=False).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class PointResult:
    ebn0_db: float
    decoder: str
    bits: int
    errors: int
    ber: float
    ci_low: float
    ci_high: float
    p1_bits: int
    p1_errors: int
    p2_errors: int
    mean_iters: float
    seed: int
    truncated: bool

    def csv_row(self):
        # repr round-trips the float, so resume matches grid points exactly
        return [repr(float(self.ebn0_db)), self.decoder, self.bits, self.errors,
                f"{self.ber:.6e}", f"{self.ci_low:.6e}", f"{self.ci_high:.6e}",
                self.p1_bits, self.p1_errors, self.p2_errors,
                f"{self.mean_iters:.4f}", self.seed, int(self.truncated)]


RESULT_CSV_HEADER = [f.name for f in fields(PointResult)]


def clopper_pearson(errors, bits):
    """Exact binomial 95% confidence interval."""
    if not 0 <= errors <= bits:
        raise ValueError(f"need 0 <= errors <= bits, got {errors} errors in {bits} bits")
    if bits == 0:
        return 0.0, 1.0
    lo = 0.0 if errors == 0 else analysis.beta_ppf(errors, bits - errors + 1, 0.025)
    hi = 1.0 if errors == bits else analysis.beta_ppf(errors + 1, bits - errors, 0.975)
    return lo, hi


# the frames of a config share its system: (code, m, L, seed) -> BmstSystem
_system = lru_cache(maxsize=None)(make_system)


@dataclass
class FrameCounts:
    bits: int = 0
    errors: int = 0
    p1_bits: int = 0
    p1_errors: int = 0
    p2_errors: int = 0
    iters: int = 0
    layers: int = 0

    def add(self, other):
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def simulate_frame(cfg, ebn0_db, point_idx, frame_idx):
    """Encode, transmit and decode one frame of a SimConfig; returns
    bit/error counts. Module-level so process pools can pickle it."""
    sys = _system(cfg.code, cfg.m, cfg.L, cfg.seed)
    sigma = ebn0_to_sigma(ebn0_db, sys.basic.rate)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(point_idx, frame_idx)))
    msgs = rng.integers(0, 2, size=(sys.L, sys.k), dtype=np.uint8)
    c, v = encode_frame(sys, msgs, return_intermediate=True)
    y = transmit(bpsk_map(c), sigma, rng)

    out = FrameCounts(bits=sys.L * sys.k)
    if cfg.decoder == "swd":
        res = decode_frame_swd(sys, channel_llr(y, sigma), cfg.d, cfg.i_max,
                               cfg.stop_threshold)
        u_hat = res.u_hat
        out.iters = int(res.iterations.sum())
        out.layers = sys.L
    elif cfg.decoder == "tpd":
        u_hat, phase1 = decode_frame_tpd(sys, y, sigma, cfg.d, cfg.i_max,
                                         cfg.stop_threshold)
        out.p1_bits = phase1.w_tilde.size
        out.p1_errors = int(np.count_nonzero(phase1.w_tilde != v[:, None]))
        out.iters = int(phase1.iterations.sum())
        out.layers = sys.L
    elif cfg.decoder == "gad_perfect":
        u_hat = decode_frame_gad(sys, y, true_branch_words(sys, v))
    else:  # gad_flipped
        genie = flipped_side_info(true_branch_words(sys, v), cfg.p_genie, rng)
        u_hat = decode_frame_gad(sys, y, genie)
    out.errors = int(np.sum(u_hat != msgs))
    if cfg.decoder == "tpd":
        out.p2_errors = out.errors
    return out


def _pool(workers):
    """A process pool for the frames of workers > 1 workers; for one worker,
    a null context, and the frames run in this process."""
    if workers <= 1:
        return nullcontext()
    from concurrent.futures import ProcessPoolExecutor  # only pools pay for it
    return ProcessPoolExecutor(max_workers=workers)


def _frames(cfg, ebn0_db, point_idx, pool):
    """FrameCounts of frames 0, 1, 2, ... of a grid point, in index order.
    With a pool (from _pool) the frames run there, up to 2 * workers ahead;
    closing the generator cancels the ones not yet started."""
    if pool is None:
        for f in itertools.count():
            yield simulate_frame(cfg, ebn0_db, point_idx, f)
    pending = deque()
    try:
        for f in itertools.count():
            pending.append(pool.submit(simulate_frame, cfg, ebn0_db, point_idx, f))
            if len(pending) == 2 * cfg.workers:
                yield pending.popleft().result()
    finally:
        for fut in pending:
            fut.cancel()


def run_point(cfg, ebn0_db, point_idx=0, pool=None):
    """Simulate frames at one grid point until a stop rule fires. The frames
    run in pool, run_sweep's one pool for all its points; without it, a
    point with more than one worker opens and closes its own."""
    start = time.monotonic()
    total = FrameCounts()
    truncated = False

    def stopped():
        return (total.errors >= cfg.min_bit_errors or total.bits >= cfg.max_bits)

    with (nullcontext(pool) if pool is not None else _pool(cfg.workers)) as pool, \
            closing(_frames(cfg, ebn0_db, point_idx, pool)) as frames:
        while not stopped():
            total.add(next(frames))
            if cfg.max_seconds > 0 and time.monotonic() - start > cfg.max_seconds:
                truncated = not stopped()
                break

    lo, hi = clopper_pearson(total.errors, total.bits)
    return PointResult(
        ebn0_db=float(ebn0_db), decoder=cfg.decoder, bits=total.bits,
        errors=total.errors, ber=total.errors / total.bits if total.bits else 0.0,
        ci_low=lo, ci_high=hi, p1_bits=total.p1_bits, p1_errors=total.p1_errors,
        p2_errors=total.p2_errors,
        mean_iters=total.iters / total.layers if total.layers else 0.0,
        seed=cfg.seed, truncated=truncated)


def config_sidecar_path(out_csv):
    base, _ = os.path.splitext(str(out_csv))
    return base + ".config.json"


def _load_completed(out_csv):
    """Grid values of the complete rows of a results CSV.

    A last row that a crash cut short (too few fields, or no line end) is
    removed from the file, so that its point runs again. Any other bad row
    raises ConfigError."""
    with open(out_csv, "rb") as fh:
        data = fh.read()
    lines = data.decode().splitlines(keepends=True)
    rows = list(csv.reader(lines))
    if not rows or rows[0] != RESULT_CSV_HEADER:
        raise ConfigError(f"{out_csv} does not start with the results header")
    if len(rows) > 1 and (len(rows[-1]) < len(RESULT_CSV_HEADER)
                          or not lines[-1].endswith("\n")):
        with open(out_csv, "r+b") as fh:
            fh.truncate(len(data) - len(lines[-1].encode()))
        rows.pop()
    done = set()
    for n, row in enumerate(rows[1:], start=2):
        if len(row) != len(RESULT_CSV_HEADER):
            raise ConfigError(f"{out_csv} line {n} has {len(row)} fields, "
                              f"expected {len(RESULT_CSV_HEADER)}")
        try:
            done.add(float(row[0]))
        except ValueError:
            raise ConfigError(f"{out_csv} line {n}: bad ebn0_db {row[0]!r}") from None
    return done


def run_sweep(cfg, out_csv=None):
    """run_point over the grid, in one process pool for all its points when
    cfg.workers > 1; with out_csv, rows are appended as they finish and a
    rerun resumes, skipping completed points (the adjacent config JSON must
    hash-match)."""
    done = set()
    writer = None
    fh = None
    if out_csv is not None:
        sidecar = config_sidecar_path(out_csv)
        if os.path.exists(out_csv):
            if not os.path.exists(sidecar):
                raise ConfigError(f"results exist but config sidecar {sidecar} is missing")
            with open(sidecar) as f:
                stored = json.load(f)
            if stored.get("content_hash") != cfg.content_hash():
                raise ConfigError("existing results were produced by a different "
                                  "config or results version (this version: "
                                  f"{RESULTS_VERSION})")
            done = _load_completed(out_csv)
        else:
            with open(sidecar, "w") as f:
                json.dump({"config": cfg.to_dict(),
                           "content_hash": cfg.content_hash(),
                           "rng": "numpy PCG64 via SeedSequence(seed, spawn_key=(point, frame))",
                           "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")},
                          f, indent=2)
            with open(out_csv, "w", newline="") as f:
                csv.writer(f).writerow(RESULT_CSV_HEADER)
        fh = open(out_csv, "a", newline="")
        writer = csv.writer(fh)

    results = []
    try:
        with _pool(cfg.workers) as pool:
            for idx, g in enumerate(cfg.ebn0_grid_db):
                if g in done:
                    continue
                res = run_point(cfg, g, point_idx=idx, pool=pool)
                results.append(res)
                if writer is not None:
                    writer.writerow(res.csv_row())
                    fh.flush()
    finally:
        if fh is not None:
            fh.close()
    return results


def predict_floor(code_spec, m, measured_p_i, ebn0_db):
    """Phase-II BER prediction: the genie bound evaluated at
    p_genie = measured p_I."""
    if not 0.0 <= measured_p_i < 0.5:
        raise ValueError("p_I must be in [0, 0.5)")
    cart = parse_code_spec(code_spec)
    iowef = compute_iowef(cart.short)
    return analysis.genie_bound(iowef, m, measured_p_i, ebn0_db)
