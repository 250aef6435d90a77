"""IPOLY pseudo-random polynomial memory interleaving (Rau, ISCA 1991).

The cellular manycore hashes the address space across its LLC banks with
irreducible-polynomial interleaving, which the paper credits for the
balanced intrinsic load latencies of Figure 12 ("the IPOLY hashing that is
used to hash the address space to interleave among the LLC banks
effectively balances the traffics").

The hash treats the address as a polynomial over GF(2) and reduces it
modulo an irreducible polynomial of degree ``k``; the ``k``-bit remainder
selects one of ``2^k`` banks.  Unlike plain modulo interleaving, strided
access sequences (with any stride that is not a multiple of the bank
count's characteristic polynomial) spread uniformly.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Tuple

from repro.errors import ConfigError

#: Irreducible polynomials over GF(2), degree -> full polynomial bits
#: (including the leading x^k term).  Standard primitive trinomials /
#: pentanomials.
IRREDUCIBLE_POLYS: Dict[int, int] = {
    1: 0b11,          # x + 1
    2: 0b111,         # x^2 + x + 1
    3: 0b1011,        # x^3 + x + 1
    4: 0b10011,       # x^4 + x + 1
    5: 0b100101,      # x^5 + x^2 + 1
    6: 0b1000011,     # x^6 + x + 1
    7: 0b10000011,    # x^7 + x + 1
    8: 0b100011011,   # x^8 + x^4 + x^3 + x + 1
}


def ipoly_hash(addr: int, num_banks: int) -> int:
    """Bank index for ``addr`` under IPOLY interleaving.

    ``num_banks`` must be a power of two with a supported polynomial
    degree.  Equivalent to ``addr(x) mod p(x)`` over GF(2).
    """
    if addr < 0:
        raise ConfigError("addresses must be non-negative")
    k = num_banks.bit_length() - 1
    if num_banks != 1 << k:
        raise ConfigError(f"num_banks must be a power of two, got {num_banks}")
    if num_banks == 1:
        return 0
    try:
        poly = IRREDUCIBLE_POLYS[k]
    except KeyError as exc:
        raise ConfigError(
            f"no irreducible polynomial for degree {k}"
        ) from exc
    rem = 0
    for bit_pos in range(addr.bit_length() - 1, -1, -1):
        rem = (rem << 1) | ((addr >> bit_pos) & 1)
        if rem >> k:
            rem ^= poly
    return rem


@functools.lru_cache(maxsize=None)
def _byte_tables(num_banks: int) -> Tuple[Tuple[int, ...], ...]:
    """``tables[b][v] == ipoly_hash(v << 8 * b, num_banks)``, 8 bytes."""
    return tuple(
        tuple(ipoly_hash(value << shift, num_banks) for value in range(256))
        for shift in range(0, 64, 8)
    )


def ipoly_bank_lookup(num_banks: int) -> Callable[[int], int]:
    """``addr -> ipoly_hash(addr, num_banks)``, a table fold per byte.

    Reduction modulo a polynomial over GF(2) is linear —
    ``h(a ^ b) == h(a) ^ h(b)`` — so the hash of an address is the XOR
    of the hashes of its bytes in place.  Those are tabulated once per
    bank count by :func:`ipoly_hash`, which stays the definition (and
    hashes whatever lies above bit 63).
    """
    tables = _byte_tables(num_banks)

    def bank(addr: int) -> int:
        if addr < 0:
            raise ConfigError("addresses must be non-negative")
        rem = 0
        for table in tables:
            rem ^= table[addr & 255]
            addr >>= 8
            if not addr:
                return rem
        return rem ^ ipoly_hash(addr << 64, num_banks)

    return bank


def modulo_hash(addr: int, num_banks: int) -> int:
    """Plain low-order-bit interleaving (the ablation baseline)."""
    if addr < 0:
        raise ConfigError("addresses must be non-negative")
    return addr % num_banks
