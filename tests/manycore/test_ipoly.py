"""IPOLY interleaving tests (balance, determinism, ablation contrast)."""

import pytest
from hypothesis import given, strategies as st

from property.settings import tiered_settings

from repro.errors import ConfigError
from repro.manycore.ipoly import (
    IRREDUCIBLE_POLYS,
    ipoly_bank_lookup,
    ipoly_hash,
    modulo_hash,
)


class TestIpolyBasics:
    @pytest.mark.parametrize("banks", [2, 4, 8, 16, 32, 64, 128])
    def test_result_in_range(self, banks):
        for addr in list(range(200)) + [10**6, 2**31 - 1]:
            assert 0 <= ipoly_hash(addr, banks) < banks

    def test_deterministic(self):
        assert ipoly_hash(123456, 32) == ipoly_hash(123456, 32)

    def test_single_bank(self):
        assert ipoly_hash(999, 1) == 0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            ipoly_hash(1, 24)

    def test_rejects_negative_address(self):
        with pytest.raises(ConfigError):
            ipoly_hash(-1, 8)
        with pytest.raises(ConfigError):
            modulo_hash(-1, 8)

    def test_gf2_linearity(self):
        """IPOLY is linear over GF(2): h(a ^ b) == h(a) ^ h(b)."""
        for a, b in [(5, 9), (100, 3000), (2**20, 77)]:
            assert ipoly_hash(a ^ b, 32) == (
                ipoly_hash(a, 32) ^ ipoly_hash(b, 32)
            )


class TestBankLookup:
    """The per-byte table fold ``Machine.llc_coord`` uses; the
    bit-serial ``ipoly_hash`` is the definition."""

    @given(
        st.integers(0, 2**64 - 1),
        st.sampled_from([1 << k for k in IRREDUCIBLE_POLYS]),
    )
    @tiered_settings(300)
    def test_fold_equals_bit_serial(self, addr, banks):
        assert ipoly_bank_lookup(banks)(addr) == ipoly_hash(addr, banks)

    @pytest.mark.parametrize("banks", [1, 2, 32, 256])
    def test_edges_of_the_tabulated_range(self, banks):
        lookup = ipoly_bank_lookup(banks)
        for addr in (0, 255, 256, 2**63, 2**64 - 1, 2**64, 2**100 + 12345):
            assert lookup(addr) == ipoly_hash(addr, banks)

    def test_rejects_what_the_definition_rejects(self):
        with pytest.raises(ConfigError):
            ipoly_bank_lookup(8)(-1)
        with pytest.raises(ConfigError):
            ipoly_bank_lookup(24)
        with pytest.raises(ConfigError):
            ipoly_bank_lookup(512)


class TestBalance:
    def test_sequential_addresses_balanced(self):
        banks = 32
        counts = [0] * banks
        for addr in range(32 * 64):
            counts[ipoly_hash(addr, banks)] += 1
        assert max(counts) - min(counts) <= 2

    @pytest.mark.parametrize("stride", [3, 7, 32, 64, 96, 1024])
    def test_strided_addresses_balanced(self, stride):
        """The reason the paper uses IPOLY: strides spread uniformly."""
        banks = 32
        counts = [0] * banks
        for i in range(banks * 32):
            counts[ipoly_hash(i * stride, banks)] += 1
        assert min(counts) > 0
        assert max(counts) < 4 * (banks * 32) // banks

    def test_modulo_fails_on_bank_multiple_stride(self):
        """Ablation contrast: modulo interleaving collapses onto one bank
        for strides that are bank-count multiples; IPOLY does not."""
        banks = 32
        mod_banks_hit = {modulo_hash(i * banks, banks) for i in range(100)}
        ipoly_banks_hit = {ipoly_hash(i * banks, banks) for i in range(100)}
        assert len(mod_banks_hit) == 1
        assert len(ipoly_banks_hit) > banks // 2

    @given(st.integers(0, 2**40), st.sampled_from([2, 4, 8, 16, 32, 64]))
    @tiered_settings(300)
    def test_range_property(self, addr, banks):
        assert 0 <= ipoly_hash(addr, banks) < banks


class TestPolynomials:
    @pytest.mark.parametrize("degree, poly", sorted(IRREDUCIBLE_POLYS.items()))
    def test_polynomials_have_declared_degree(self, degree, poly):
        assert poly.bit_length() == degree + 1

    @pytest.mark.parametrize("degree, poly", sorted(IRREDUCIBLE_POLYS.items()))
    def test_polynomials_are_irreducible(self, degree, poly):
        """Brute-force GF(2) irreducibility check."""

        def gf2_mod(a, b):
            while a.bit_length() >= b.bit_length():
                a ^= b << (a.bit_length() - b.bit_length())
            return a

        for candidate in range(2, 1 << ((degree // 2) + 1)):
            if candidate.bit_length() <= 1:
                continue
            if gf2_mod(poly, candidate) == 0 and candidate != poly:
                pytest.fail(
                    f"x^{degree} poly {bin(poly)} divisible by "
                    f"{bin(candidate)}"
                )
