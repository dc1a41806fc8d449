"""PRNG conformance against a pre-built C reference oracle.

The traces below were produced by compiling the published reference
algorithms (splitmix64, xoshiro256+) as C and recording the first ten
outputs for three seeds; the xoshiro state is filled by splitmix64
expansion of the same seed.
"""

import pytest

from fpsat.rng import Xoshiro256Plus, derive_seed, splitmix64_next

SPLITMIX64_TRACES = {
    0: [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
        0xF88BB8A8724C81EC, 0x1B39896A51A8749B, 0x53CB9F0C747EA2EA,
        0x2C829ABE1F4532E1, 0xC584133AC916AB3C, 0x3EE5789041C98AC3,
        0xF3B8488C368CB0A6,
    ],
    42: [
        0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52,
        0x581CE1FF0E4AE394, 0x09BC585A244823F2, 0xDE4431FA3C80DB06,
        0x37E9671C45376D5D, 0xCCF635EE9E9E2FA4, 0x5705B8770B3D7DD5,
        0x9E54D738297F77AE,
    ],
    0xDEADBEEF: [
        0x4ADFB90F68C9EB9B, 0xDE586A3141A10922, 0x021FBC2F8E1CFC1D,
        0x7466CE737BE16790, 0x3BFA8764F685BD1C, 0xAB203E503CB55B3F,
        0x5A2FDC2BF68CEDB3, 0xB30A4CCF430B1B5A, 0x0A90415039BD5985,
        0x26AE50847745EB7E,
    ],
}

XOSHIRO256P_TRACES = {
    0: [
        0xDAAC60E1ED6A4F9B, 0x3156A1DA0DC08435, 0xF9BA3E3285D046AB,
        0x4FD194611DBA7B01, 0x40B78599C31791BF, 0x03B1DD310503D6F4,
        0xB238D3A721D5092B, 0x11017BBA8A0F8ADF, 0xA6A988BED1F59149,
        0xDB4000FB8D550622,
    ],
    42: [
        0x15F414253E365229, 0x4F771F08F4211387, 0x100492BD8828891E,
        0x4E743FCE495374AE, 0x0002D0BAE53F7541, 0x4D95B0309B62834A,
        0x166D954E9D491EF0, 0x3A1EE212EB52573B, 0xDCE029EA733F8136,
        0x85F3F89092A19882,
    ],
    0xDEADBEEF: [
        0xBF468782E4AB532B, 0xEEB772952711CC71, 0x06ECBA84E8C0AB44,
        0xE297CC89B43E9775, 0x486889FDE24C7308, 0xFA33934980BA8E48,
        0x895626D04063A989, 0x5E666010DAE14E38, 0x19226F5BDF28B9C0,
        0xFFCF5F35E20AD414,
    ],
}

XOSHIRO256P_DOUBLE_TRACES = {
    0: [
        0.85419278636747109, 0.19272815297677148, 0.9754980920168359,
        0.31179168101309951, 0.25280032161671628, 0.014432739703820419,
        0.69617960768103526, 0.06642888359243504, 0.65102438601203105,
        0.85644537106903229,
    ],
    42: [
        0.085755595295460951, 0.31041139572710486, 0.062569781563214133,
        0.30646132265367299, 4.295885923766285e-05, 0.30306531130498549,
        0.087609607403724588, 0.22703373872656951, 0.86279546712762389,
        0.52325395135506481,
    ],
    0xDEADBEEF: [
        0.74716994233737677, 0.93248668805524126, 0.027049691628010408,
        0.88512876855770117, 0.28284513901080444, 0.97734947723868448,
        0.53647081932321206, 0.36874962245463394, 0.098181686334245621,
        0.99925799432279949,
    ],
}


class TestSplitmix64:
    @pytest.mark.parametrize("seed", sorted(SPLITMIX64_TRACES))
    def test_reference_trace(self, seed):
        state = seed
        for expected in SPLITMIX64_TRACES[seed]:
            out, state = splitmix64_next(state)
            assert out == expected

    def test_pure(self):
        assert splitmix64_next(123) == splitmix64_next(123)

    def test_successive_outputs_distinct(self):
        o1, state = splitmix64_next(0)
        o2, _ = splitmix64_next(state)
        assert o1 != o2
        assert o1 == SPLITMIX64_TRACES[0][0]
        assert o2 == SPLITMIX64_TRACES[0][1]


class TestXoshiro256Plus:
    @pytest.mark.parametrize("seed", sorted(XOSHIRO256P_TRACES))
    def test_reference_trace_u64(self, seed):
        rng = Xoshiro256Plus(seed)
        for expected in XOSHIRO256P_TRACES[seed]:
            assert rng.next_u64() == expected

    @pytest.mark.parametrize("seed", sorted(XOSHIRO256P_DOUBLE_TRACES))
    def test_reference_trace_doubles(self, seed):
        rng = Xoshiro256Plus(seed)
        for expected in XOSHIRO256P_DOUBLE_TRACES[seed]:
            assert rng.next_double() == expected

    @pytest.mark.parametrize("seed", sorted(XOSHIRO256P_DOUBLE_TRACES))
    def test_doubles_batch_matches_trace(self, seed):
        rng = Xoshiro256Plus(seed)
        assert rng.doubles(len(XOSHIRO256P_DOUBLE_TRACES[seed])) == \
            XOSHIRO256P_DOUBLE_TRACES[seed]

    def test_doubles_is_next_double_repeated(self):
        # any split into batches gives the same stream and the same state
        a, b = Xoshiro256Plus(2024), Xoshiro256Plus(2024)
        for k in (0, 1, 2, 7, 64, 1000):
            assert a.doubles(k) == [b.next_double() for _ in range(k)]
            assert a.state() == b.state()

    def test_range_contract(self):
        rng = Xoshiro256Plus(7)
        for _ in range(10**6):
            d = rng.next_double()
            assert 0.0 <= d < 1.0

    def test_equal_seeds_identical_streams(self):
        a, b = Xoshiro256Plus(99), Xoshiro256Plus(99)
        for _ in range(1000):
            assert a.next_u64() == b.next_u64()

    def test_state_never_all_zero(self):
        for seed in (0, 1, 2**64 - 1):
            rng = Xoshiro256Plus(seed)
            assert any(rng.state())


class TestDeriveSeed:
    def test_distinct_instances_distinct_seeds(self):
        seeds = [derive_seed(42, i) for i in range(64)]
        assert len(set(seeds)) == 64

    def test_matches_splitmix_chain(self):
        # instance i gets the (i+1)-th splitmix64 output of the global seed
        state = 42
        for i in range(8):
            out, state = splitmix64_next(state)
            assert derive_seed(42, i) == out
