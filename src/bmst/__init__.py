"""Block Markov superposition transmission (BMST): spatially coupled
encoding of short block codes, sliding-window and two-phase decoding, and
the analytic bound chain used to design codes at a target BER."""

from .codes import (CartesianCode, Iowef, ShortCode, compute_iowef,
                    encode_cartesian, make_repetition, make_spc,
                    parse_code_spec, siso_map_decode)
from .coupling import (BmstSystem, InterleaverSet, bpsk_map, encode_frame,
                       generate_interleavers, make_system, superpose)
from .channel import channel_llr, ebn0_to_sigma, transmit
from .kernels import LLR_MAX
from .swd import decode_frame_swd
from .tpd import decode_frame_gad, decode_frame_tpd, gad_cancel, gad_minimize
from .analysis import (DesignSpec, design_memory, find_gamma_target,
                       flip_probability, genie_bound, lower_bound, pep,
                       q_function, shannon_limit_biawgn, union_bound)
from .harness import SimConfig, run_point, run_sweep

__version__ = "0.1.0"
