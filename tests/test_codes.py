import itertools
import re
from math import comb

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmst.codes import (FAMILIES, MAX_K, CartesianCode, CodeError, ShortCode,
                        code_extrinsic_llr, compute_iowef, encode_cartesian, make_code,
                        make_repetition, make_spc, parse_code_spec, siso_map_decode)
from bmst.kernels import LLR_MAX

HAMMING74 = [[1, 0, 0, 0, 1, 1, 0],
             [0, 1, 0, 0, 1, 0, 1],
             [0, 0, 1, 0, 0, 1, 1],
             [0, 0, 0, 1, 1, 1, 1]]


def test_repetition_construction():
    rc = make_repetition(3)
    assert (rc.N, rc.K, rc.kind) == (3, 1, "rc")
    assert rc.codebook.tolist() == [[0, 0, 0], [1, 1, 1]]


def test_spc_construction_parity_last():
    spc = make_spc(4)
    assert (spc.N, spc.K, spc.kind) == (4, 3, "spc")
    for msg, cw in zip(spc.codebook_msgs, spc.codebook):
        assert cw[:3].tolist() == msg.tolist()
        assert cw[3] == msg.sum() % 2


def test_make_code_rejects_rank_deficient():
    with pytest.raises(CodeError):
        make_code([[1, 1], [1, 1]])


@pytest.mark.parametrize("generator", [[[1, 1, 0], [0, 1, 1]], [[0, 1, 1], [1, 0, 1]],
                                       [[0, 1]], [[1, 0, 1], [1, 1, 0]]])
def test_make_code_refuses_non_systematic_generators(generator):
    # the window decoder reads the message as the first K bits of a block;
    # with [[1,1,0],[0,1,1]] it decoded 7 of 24 message bits of a noiseless
    # frame wrong, where the genie-aided decoders got all right
    with pytest.raises(CodeError, match="not systematic"):
        make_code(generator)


def test_make_code_is_generic_and_builders_set_kind():
    # make_code always enumerates, even for a family's generator
    spc3 = [[1, 0, 1], [0, 1, 1]]
    assert make_code([[1, 1, 1]]).kind == "generic"
    assert make_code(spc3).kind == "generic"
    with pytest.raises(TypeError):
        make_code([[1, 1, 1]], kind="rc")
    # RC[2,1] and SPC[2,1] share the generator [[1, 1]], not the closed form
    assert make_repetition(2).kind == "rc"
    assert make_spc(2).kind == "spc"
    assert np.array_equal(make_repetition(2).generator, make_spc(2).generator)


def test_make_code_rejects_large_k():
    with pytest.raises(CodeError):
        make_code(np.eye(25, dtype=np.uint8))


def test_code_constructors_reject_bad_dimensions():
    rc2 = make_repetition(2)
    with pytest.raises(CodeError, match=f"K={MAX_K + 1} exceeds enumeration cap {MAX_K}"):
        ShortCode(np.hstack([np.eye(MAX_K + 1), np.ones((MAX_K + 1, 1))]))
    with pytest.raises(CodeError, match="not systematic"):  # K = 3 > N = 2
        ShortCode(np.eye(3, 2))
    with pytest.raises(CodeError, match="repetition code needs N >= 1"):
        make_repetition(0)
    with pytest.raises(CodeError, match="B must be >= 1"):
        CartesianCode(short=rc2, B=0)
    cart = parse_code_spec("SPC[4,3]^2")
    with pytest.raises(CodeError, match=re.escape("message shape (2, 5) does not end in k=6")):
        encode_cartesian(cart, np.zeros((2, 5), dtype=np.uint8))


@pytest.mark.parametrize("generator, kind, iowef", [
    ([[1, 1, 1]], "rc", {(0, 0): 1, (1, 3): 1}),
    ([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]], "spc",
     {(0, 0): 1, (1, 2): 3, (2, 2): 3, (3, 4): 1}),
    (HAMMING74, "generic", {(0, 0): 1, (1, 3): 3, (1, 4): 1, (2, 3): 3, (2, 4): 3,
                            (3, 3): 1, (3, 4): 3, (4, 7): 1}),
], ids=["rc3", "spc4", "hamming74"])
def test_short_code_is_derived_from_its_generator(generator, kind, iowef):
    code = ShortCode(generator, kind)
    k, n = np.shape(generator)
    assert (code.N, code.K, code.kind, code.rate) == (n, k, kind, k / n)
    msgs = list(itertools.product((0, 1), repeat=k))  # lexicographic, bit 0 first
    assert code.codebook_msgs.tolist() == [list(u) for u in msgs]
    assert code.codebook.tolist() == [(np.array(u) @ generator % 2).tolist() for u in msgs]
    assert code.codebook.dtype == code.generator.dtype == np.uint8
    assert compute_iowef(code).coefficients == iowef
    # the message posteriors are those of the first K code bits
    p1 = np.random.default_rng(3).uniform(0.05, 0.95, n)
    post, msg_post = siso_map_decode(code, np.stack([1.0 - p1, p1], axis=1))
    assert post.shape == (n, 2) and np.array_equal(msg_post, post[:k])


@pytest.mark.parametrize("bad", [[0.5, 1.0, 1.7], [256, 1, 0], [-1, 1, 0], [3, 1, 0],
                                 [0.0, np.nan, 1.0]])
def test_bit_inputs_must_be_exactly_0_or_1(bad):
    # a uint8 cast before the check wrapped 256 to 0, truncated 0.5 to 0 and
    # raised OverflowError on -1; make_code took its generator mod 2
    cart = parse_code_spec("RC[2,1]^3")
    with pytest.raises(CodeError, match="0 or 1"):
        encode_cartesian(cart, np.array(bad))
    with pytest.raises(CodeError, match="0 or 1"):
        make_code([[1] + bad])
    # exact 0 and 1 in any dtype encode as their uint8 bits
    for ok in ([1.0, 0.0, 1.0], [True, False, True], np.array([1, 0, 1], dtype=np.int64)):
        assert encode_cartesian(cart, ok).tolist() == [1, 1, 0, 0, 1, 1]


def test_iowef_rc2():
    # one zero codeword plus one (input weight 1, output weight 2) codeword
    iow = compute_iowef(make_repetition(2))
    assert iow.coefficients == {(0, 0): 1, (1, 2): 1}


def test_iowef_spc4():
    # codeword weight is g + (g mod 2) for a message of weight g
    iow = compute_iowef(make_spc(4))
    assert iow.coefficients == {(0, 0): 1, (1, 2): 3, (2, 2): 3, (3, 4): 1}


def iowef_row_sums_ok(iowef):
    """Check sum A_{g,h} = 2^K and per-g row sums = C(K, g)."""
    if sum(iowef.coefficients.values()) != 2 ** iowef.K:
        return False
    for g in range(iowef.K + 1):
        row = sum(c for (gi, _), c in iowef.coefficients.items() if gi == g)
        if row != comb(iowef.K, g):
            return False
    return True


@pytest.mark.parametrize("code", [make_repetition(2), make_repetition(8),
                                  make_spc(4), make_spc(8),
                                  make_code([[1, 0, 1, 1], [0, 1, 0, 1]])])
def test_iowef_row_sums(code):
    assert iowef_row_sums_ok(compute_iowef(code))


def test_siso_map_hand_computed():
    # RC[2,1], priors (.9,.1) and (.6,.4): joint weights .54 (00), .04 (11)
    rc = make_repetition(2)
    post, msg_post = siso_map_decode(rc, [[0.9, 0.1], [0.6, 0.4]])
    assert np.allclose(post[0], [0.54 / 0.58, 0.04 / 0.58])
    assert np.allclose(msg_post[0], [0.54 / 0.58, 0.04 / 0.58])
    # a constant bit has an infinite LLR and an exact posterior, no warning
    post, _ = siso_map_decode(make_code([[1, 0]]), [[0.9, 0.1], [0.6, 0.4]])
    assert post[1].tolist() == [1.0, 0.0]
    # the extrinsic LLR of bit 0 leaves out its own prior: log(.6 / .4)
    ext = code_extrinsic_llr(make_code([[1, 1]]), [np.log(9.0), np.log(1.5)])
    assert ext[0] == pytest.approx(np.log(1.5), abs=1e-12)


def test_siso_map_rejects_bad_priors():
    rc = make_repetition(2)
    with pytest.raises(CodeError):
        siso_map_decode(rc, [[0.9, 0.2], [0.6, 0.4]])
    with pytest.raises(CodeError):
        siso_map_decode(rc, [[0.9, 0.1]])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_closed_form_extrinsic_matches_bruteforce(N, seed):
    # oracle: the codebook enumeration on the same generator
    rng = np.random.default_rng(seed)
    llr = rng.normal(0.0, 3.0, size=2 * N)
    for code in (make_repetition(N), make_spc(N)):
        fast = code_extrinsic_llr(code, llr)
        slow = code_extrinsic_llr(make_code(code.generator), llr)
        assert np.allclose(fast, slow, rtol=0.0, atol=1e-12)


def extrinsic_oracle(code, block):
    """Extrinsic LLRs of one block by a loop over the codewords, in
    mpmath: the log of the summed weights of the words with c_j = 0, less
    that of the words with c_j = 1, each weight leaving out bit j; clamped."""
    out = []
    for j in range(code.N):
        sums = [mpmath.mpf(0), mpmath.mpf(0)]
        for cw in code.codebook:
            sums[cw[j]] += mpmath.exp(sum(mpmath.mpf(block[i]) * (0.5 - int(cw[i]))
                                          for i in range(code.N) if i != j))
        logs = [mpmath.log(x) if x else -mpmath.inf for x in sums]
        out.append(float(min(max(logs[0] - logs[1], -LLR_MAX), LLR_MAX)))
    return np.array(out)


@pytest.mark.parametrize("generator", [HAMMING74,
                                       [[1, 0, 1, 0], [0, 1, 1, 0]]],  # last column 0
                         ids=["hamming74", "zero-column"])
def test_generic_extrinsic_matches_codeword_loop(generator):
    code = make_code(generator)
    rng = np.random.default_rng(11)
    blocks = np.vstack([np.full(code.N, LLR_MAX), np.full(code.N, -LLR_MAX),
                        np.zeros(code.N),
                        rng.choice([-LLR_MAX, 0.0, LLR_MAX], size=(6, code.N)),
                        rng.normal(0.0, 6.0, size=(6, code.N))])
    ext = code_extrinsic_llr(code, blocks.reshape(-1)).reshape(blocks.shape)
    assert not np.any(np.isnan(ext))
    ref = np.vstack([extrinsic_oracle(code, b) for b in blocks])
    assert np.allclose(ext, ref, rtol=0.0, atol=1e-12)


def test_code_app_is_input_plus_extrinsic():
    # the enumerated APP, own prior included
    spc = make_spc(4)
    llr = np.array([1.0, -2.0, 0.5, 3.0])
    p1 = 1.0 / (1.0 + np.exp(llr))
    post, _ = siso_map_decode(spc, np.stack([1.0 - p1, p1], axis=1))
    assert np.allclose(np.log(post[:, 0] / post[:, 1]), llr + code_extrinsic_llr(spc, llr),
                       atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cartesian_encoding_linear(seed):
    cart = parse_code_spec("SPC[4,3]^5")
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, cart.k, dtype=np.uint8)
    b = rng.integers(0, 2, cart.k, dtype=np.uint8)
    assert np.array_equal(encode_cartesian(cart, a ^ b),
                          encode_cartesian(cart, a) ^ encode_cartesian(cart, b))


def test_parse_code_spec():
    cart = parse_code_spec("rc[2,1]^5000")
    assert (cart.short.N, cart.short.K, cart.B) == (2, 1, 5000)
    assert parse_code_spec("SPC[8,7]^1250").short.kind == "spc"
    for bad in ("RC[2,2]^10", "SPC[4,2]^10", "RC[2,1]", "XYZ[2,1]^3", "",
                "SPC[1000000000,5]^1"):  # refused before building its generator
        with pytest.raises(CodeError):
            parse_code_spec(bad)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_parse_code_spec_accepts_every_family_in_either_case(family):
    short = FAMILIES[family](4)
    for name in (family.lower(), family.upper()):
        cart = parse_code_spec(f"{name}[4,{short.K}]^3")
        assert (cart.short.kind, cart.short.K, cart.B) == (family, short.K, 3)
    spec = f"{family}[4,{short.K + 1}]^3"
    with pytest.raises(CodeError, match=rf"{re.escape(repr(spec))}.*\[4,{short.K}\]"):
        parse_code_spec(spec)


def test_cartesian_dimensions():
    cart = parse_code_spec("SPC[4,3]^2500")
    assert (cart.n, cart.k) == (10000, 7500)
    assert cart.rate == 0.75
