"""Primitive models vs independent truth-table / arithmetic oracles."""

import random

import pytest

from sketchmap.ir import BitVec, DomainError, check_well_formed, free_vars
from sketchmap.primitives import (
    PrimitiveModel, builtin_model, carry_model, lut_model, minidsp_model,
    mux_model,
)
from util_interp import Stream, interp, simulate
from util_progs import interface_of, output_slice


def _bv(v, w):
    return BitVec.of(v, w)


def _comb_eval(model: PrimitiveModel, assigns: dict[str, int]) -> int:
    env = {}
    for name, d, w in model.ports:
        if d == "in" and name != "clk":
            env[name] = Stream((_bv(assigns[name], w),))
    for name, w in model.internal_data:
        env[name] = Stream((_bv(assigns[name], w),))
    return interp(model.semantics, env, 0, model.semantics.root).value


class TestLut:
    def test_spec_examples(self):
        m = lut_model(2)
        # memory 0b0110 with (I1,I0)=(0,1): bit 1 of 0110 = 1 (xor)
        assert _comb_eval(m, {"sram": 0b0110, "I0": 1, "I1": 0}) == 1
        for i0 in (0, 1):
            for i1 in (0, 1):
                assert _comb_eval(
                    m, {"sram": 0, "I0": i0, "I1": i1}) == 0
        m4 = lut_model(4)
        for pat in range(16):
            bits = {f"I{i}": (pat >> i) & 1 for i in range(4)}
            want = 1 if pat == 15 else 0
            assert _comb_eval(m4, {"sram": 0x8000, **bits}) == want

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_against_truth_table(self, n):
        m = lut_model(n)
        for mem in range(2 ** (2 ** n)):
            for pat in range(2 ** n):
                bits = {f"I{i}": (pat >> i) & 1 for i in range(n)}
                got = _comb_eval(m, {"sram": mem, **bits})
                assert got == (mem >> pat) & 1

    def test_random_sampling_n4(self):
        m = lut_model(4)
        rng = random.Random(11)
        for _ in range(2000):
            mem = rng.getrandbits(16)
            pat = rng.getrandbits(4)
            bits = {f"I{i}": (pat >> i) & 1 for i in range(4)}
            assert _comb_eval(m, {"sram": mem, **bits}) == (mem >> pat) & 1

    def test_shape(self):
        for n in (1, 4, 6):
            m = lut_model(n)
            check_well_formed(m.semantics)
            assert m.internal_map == {"sram": 2 ** n}
            iface = interface_of(m)
            assert iface.name == "LUT"
            assert iface.param_map == {"num_inputs": n}
            assert free_vars(m.semantics) == \
                {"sram"} | {f"I{i}" for i in range(n)}
        with pytest.raises(DomainError):
            lut_model(0)
        with pytest.raises(DomainError):
            lut_model(7)


class TestCarry:
    @pytest.mark.parametrize("w", [1, 2, 3, 4, 5])
    def test_addition_exhaustive(self, w):
        m = carry_model(w)
        hi, lo = output_slice(m, "O")
        co_hi, co_lo = output_slice(m, "CO")
        assert (hi, lo) == (w - 1, 0) and (co_hi, co_lo) == (w, w)
        for a in range(2 ** w):
            for b in range(2 ** w):
                for ci in (0, 1):
                    packed = _comb_eval(
                        m, {"S": a ^ b, "DI": a, "CI": ci})
                    total = a + b + ci
                    assert packed & (2 ** w - 1) == total % 2 ** w
                    assert (packed >> w) & 1 == total // 2 ** w

    def test_spec_examples(self):
        m2 = carry_model(2)
        v = _comb_eval(m2, {"S": 0b01 ^ 0b01, "DI": 0b01, "CI": 0})
        assert v & 3 == 0b10 and (v >> 2) == 0
        m4 = carry_model(4)
        v = _comb_eval(m4, {"S": 0xF ^ 0x1, "DI": 0xF, "CI": 0})
        assert v & 0xF == 0 and (v >> 4) == 1
        m1 = carry_model(1)
        v = _comb_eval(m1, {"S": 1, "DI": 0, "CI": 1})
        assert v & 1 == 0 and (v >> 1) == 1

    def test_interface(self):
        m = carry_model(8)
        iface = interface_of(m)
        assert iface.name == "CARRY" and iface.param_map == {"width": 8}
        assert m.internal_data == ()
        with pytest.raises(DomainError):
            carry_model(0)
        with pytest.raises(DomainError):
            output_slice(m, "Q")


class TestMux:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_exhaustive_select(self, n):
        m = mux_model(n)
        k = n.bit_length() - 1
        rng = random.Random(5)
        for sel in range(n):
            for _ in range(8):
                data = [rng.getrandbits(1) for _ in range(n)]
                assigns = {f"I{i}": data[i] for i in range(n)}
                assigns.update(
                    {f"S{j}": (sel >> j) & 1 for j in range(k)})
                assert _comb_eval(m, assigns) == data[sel]

    def test_rejects_bad_sizes(self):
        for n in (1, 3, 5, 16):
            with pytest.raises(DomainError):
                mux_model(n)


def _dsp_reference(width, cfg, a, b, c, d):
    """Direct arithmetic oracle for the combinational datapath."""
    mask = 2 ** width - 1
    if cfg["PREADD_EN"]:
        pre = (a - d) if cfg["PREADD_SUB"] else (a + d)
    else:
        pre = a
    pre &= mask
    m = (pre * b) & mask
    mode = cfg["ALUMODE"]
    out = [m + c, m - c, m & c, m | c, m ^ c, m, c - m, c][mode]
    return out & mask


CFG0 = {"INREG": 0, "MREG": 0, "PREG": 0,
        "PREADD_EN": 0, "PREADD_SUB": 0, "ALUMODE": 0}


def _dsp_eval(m, cfg, a, b, c, d):
    return _comb_eval(m, {**cfg, "A": a, "B": b, "C": c, "D": d})


class TestMiniDsp:
    def test_spec_example_preadd_and(self):
        m = minidsp_model(8)
        cfg = dict(CFG0, PREADD_EN=1, ALUMODE=2)
        rng = random.Random(3)
        for _ in range(200):
            a, b, c, d = (rng.getrandbits(8) for _ in range(4))
            assert _dsp_eval(m, cfg, a, b, c, d) == \
                (((a + d) & 255) * b) & c & 255

    def test_spec_example_pass_m(self):
        m = minidsp_model(8)
        cfg = dict(CFG0, ALUMODE=5)
        for a, b in ((0, 0), (3, 7), (255, 255), (16, 16)):
            assert _dsp_eval(m, cfg, a, b, 99, 42) == (a * b) & 255

    def test_all_modes_width4_exhaustive(self):
        m = minidsp_model(4)
        for mode in range(8):
            for pre_en in (0, 1):
                for pre_sub in (0, 1):
                    cfg = dict(CFG0, ALUMODE=mode, PREADD_EN=pre_en,
                               PREADD_SUB=pre_sub)
                    for a in range(16):
                        for c in range(16):
                            b, d = (a * 5 + 3) % 16, (c * 7 + 1) % 16
                            assert _dsp_eval(m, cfg, a, b, c, d) == \
                                _dsp_reference(4, cfg, a, b, c, d)

    def test_combinational_when_disabled(self):
        # time-locality probe: changing inputs at other cycles never
        # changes the output at cycle 1
        m = minidsp_model(6)
        rng = random.Random(9)
        cfg = dict(CFG0, ALUMODE=1, PREADD_EN=1)
        for _ in range(40):
            rows = [[rng.getrandbits(6) for _ in range(3)]
                    for _ in range(4)]
            env = {}
            for name, vals in zip("ABCD", rows):
                env[name] = Stream(tuple(_bv(v, 6) for v in vals))
            for name, w in m.internal_data:
                env[name] = Stream(tuple(_bv(cfg[name], w)
                                         for _ in range(3)))
            base = simulate(m.semantics, env, 3)[1]
            env2 = dict(env)
            env2["A"] = Stream((
                _bv(rng.getrandbits(6), 6), env["A"].at(1),
                _bv(rng.getrandbits(6), 6)))
            assert simulate(m.semantics, env2, 3)[1] == base

    def test_three_stage_pipeline(self):
        m = minidsp_model(8)
        cfg = dict(CFG0, INREG=1, MREG=1, PREG=1, ALUMODE=4, PREADD_EN=1,
                   PREADD_SUB=1)
        rng = random.Random(17)
        horizon = 19
        rows = {n: [rng.getrandbits(8) for _ in range(horizon)]
                for n in "ABCD"}
        env = {n: Stream(tuple(_bv(v, 8) for v in rows[n])) for n in rows}
        for name, w in m.internal_data:
            env[name] = Stream(tuple(_bv(cfg[name], w)
                                     for _ in range(horizon)))
        out = simulate(m.semantics, env, horizon)
        for t in range(3, horizon):
            want = _dsp_reference(8, cfg, rows["A"][t - 3],
                                  rows["B"][t - 3], rows["C"][t - 3],
                                  rows["D"][t - 3])
            assert out[t].value == want, f"cycle {t}"

    def test_single_stage_positions(self):
        # each enable alone delays by exactly one cycle
        rng = random.Random(23)
        for stage in ("INREG", "MREG", "PREG"):
            m = minidsp_model(5)
            cfg = dict(CFG0, ALUMODE=0, **{stage: 1})
            horizon = 8
            rows = {n: [rng.getrandbits(5) for _ in range(horizon)]
                    for n in "ABCD"}
            env = {n: Stream(tuple(_bv(v, 5) for v in rows[n]))
                   for n in rows}
            for name, w in m.internal_data:
                env[name] = Stream(tuple(_bv(cfg[name], w)
                                         for _ in range(horizon)))
            out = simulate(m.semantics, env, horizon)
            for t in range(1, horizon):
                want = _dsp_reference(5, cfg, rows["A"][t - 1],
                                      rows["B"][t - 1], rows["C"][t - 1],
                                      rows["D"][t - 1])
                assert out[t].value == want, (stage, t)

    def test_interface_and_bounds(self):
        m = minidsp_model(16)
        iface = interface_of(m)
        assert iface.name == "DSP" and iface.param_map == {"width": 16}
        assert dict(m.internal_data) == {
            "INREG": 1, "MREG": 1, "PREG": 1, "PREADD_EN": 1,
            "PREADD_SUB": 1, "ALUMODE": 3}
        assert m.sequential
        assert ("clk", "in", 1) in m.ports
        for bad in (3, 19):
            with pytest.raises(DomainError):
                minidsp_model(bad)


class TestLookup:
    def test_builtin_model(self):
        assert builtin_model("lut", {"num_inputs": 3}).name == "lut3"
        assert builtin_model("carry", {"width": 4}).name == "carry4"
        assert builtin_model("minidsp", {"width": 9}).name == "minidsp9"
        with pytest.raises(DomainError):
            builtin_model("alu", {})
        with pytest.raises(DomainError):
            builtin_model("lut", {"width": 4})
