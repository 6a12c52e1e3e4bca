"""Time one set-up in a fresh interpreter: import bmst, make_system and the
gate's iowef/bound evaluation. Prints the seconds taken.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import spec  # noqa: E402

sys.path.insert(1, spec.SRC)

import bmst  # noqa: E402,F401

import gate  # noqa: E402
from bmst.coupling import make_system  # noqa: E402


def main():
    cfg = gate.make_config(sys.argv[1], int(sys.argv[2]))
    make_system(cfg.code, cfg.m, cfg.L, cfg.seed)
    gate.prepare(cfg)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
