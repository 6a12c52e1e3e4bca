"""What the benchmark measures: workloads, metrics and the layer map.

Pure data with no bmst import, so the orchestrator can read it without
loading numpy. Workload names and reasons, and metric names, units,
directions and bounds, are read from BENCHMARK.json at the repository root;
this module adds what the program runs with.

Every workload is closed-loop: one frame at a time through
bmst.harness.simulate_frame at grid point 0, each frame waiting for the
previous one. Configs come from the acceptance suite with the frame length
L cut to 50, so that a frame takes 1 to 2.5 s on a 2-vCPU x86 VM.
"""

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")          # the bmst package is built from here
OUT = os.path.join(ROOT, "perfbench", "out")  # run records and spans

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

# Unit of every metric, as BENCHMARK.json declares it. Per-frame figures
# divide by the frames traced; per-layer figures divide by the calls, one
# call per decoded layer.
UNITS = {m["name"]: m["unit"]
         for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

# The SimConfig, default seed and frames per set of every workload that
# BENCHMARK.json names; its "why" gives the reason for each.
CONFIGS = {
    "swd-rc2-m2": {
        "config": dict(code="RC[2,1]^1000", m=2, L=50, decoder="swd",
                       ebn0_grid_db=(2.0,), d=6, i_max=18, stop_threshold=1e-5),
        "seed": 3,
        "frames": 4,
    },
    "tpd-rc2-m8": {
        "config": dict(code="RC[2,1]^500", m=8, L=50, decoder="tpd",
                       ebn0_grid_db=(1.5,), d=8, i_max=18, stop_threshold=3e-3),
        "seed": 0,
        "frames": 14,
    },
}
WORKLOADS = {w["name"]: CONFIGS[w["name"]] for w in BENCHMARK["workloads"]}

# Public functions wrapped at their import sites in the traced run only:
# module -> attribute names. A span is named "<module>.<attribute>" with
# the "bmst." prefix dropped.
TRACE_SITES = {
    "bmst.harness": ["encode_frame", "transmit", "channel_llr",
                     "decode_frame_swd", "decode_frame_tpd", "decode_frame_gad",
                     "flipped_side_info", "true_branch_words"],
    "bmst.swd": ["leave_one_out_boxplus", "code_extrinsic_llr"],
    "bmst.tpd": ["decode_frame_swd", "decode_frame_gad", "gad_cancel",
                 "gad_minimize", "channel_llr"],
}

# The benchmark's own span around each bmst.harness.simulate_frame call.
FRAME_SPAN = "harness.simulate_frame"

# Which end-to-end metric each layer's metrics should move, and where.
# Later changes cite layers, metrics and workloads by these names.
LAYER_MAP = {
    "kernels": "info_bits_per_s on swd-rc2-m2 and tpd-rc2-m8, where the "
               "plus-node leave-one-out boxplus is about 82% of a frame",
    "codes": "info_bits_per_s on swd-rc2-m2, where the repetition-code "
             "extrinsic update (a blockwise sum) is about 5% of a frame; "
             "about 2% on tpd-rc2-m8",
    "swd": "info_bits_per_s on tpd-rc2-m8 (eq-node loops over 9 branches, "
           "about 14% of a frame) more than on swd-rc2-m2 (3 branches, about "
           "12%); swd.iters_per_layer is a count that no pure speed change "
           "may move",
    "tpd": "info_bits_per_s on tpd-rc2-m8, where phase II is about 0.9% of "
           "a frame (gad_cancel 0.6%, gad_minimize 0.2%): within the bound, "
           "so only the per-layer figures resolve a change",
    "coupling": "setup_s everywhere; info_bits_per_s on tpd-rc2-m8, where "
                "encoding is about 0.15% of a frame",
    "channel": "info_bits_per_s on tpd-rc2-m8, about 0.1% of a frame",
    "harness": "info_bits_per_s on tpd-rc2-m8, about 0.1% of a frame",
    "analysis": "setup_s",
}
