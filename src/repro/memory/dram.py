"""Off-chip DRAM model: the 22 nm 1 GB DDR3 chip of Section IV-C3.

Every platform runs over this one part, :data:`DDR3_1GB`: the sustained
bandwidth and access energy of a DDR3-1600-class x64 channel with 8
banks and 8192-bit pages.  Access energy distinguishes page (row-buffer)
hits from misses; the engine passes a hit rate per access pattern
(streaming reads are mostly hits, partial-sum round trips mostly misses).
"""

from __future__ import annotations

import dataclasses

__all__ = ["DramSpec", "DDR3_1GB"]


@dataclasses.dataclass(frozen=True)
class DramSpec:
    """Bandwidth/energy model of one DRAM channel.

    ``efficiency`` is the fraction of peak bandwidth sustainable under
    bank conflicts and refresh — the derating a beat-level DRAM timing
    model would produce.
    """

    peak_bandwidth_bytes_per_s: float
    hit_energy_per_byte_j: float
    miss_energy_per_byte_j: float
    efficiency: float

    @property
    def effective_bandwidth_bytes_per_s(self) -> float:
        return self.peak_bandwidth_bytes_per_s * self.efficiency

    def access_energy_j(self, bytes_moved: float, hit_rate: float) -> float:
        """Dynamic energy to move ``bytes_moved`` with a given page-hit rate."""
        if not 0.0 <= hit_rate <= 1.0:
            raise ValueError(f"hit rate must be in [0, 1], got {hit_rate}")
        per_byte = (
            hit_rate * self.hit_energy_per_byte_j
            + (1.0 - hit_rate) * self.miss_energy_per_byte_j
        )
        return bytes_moved * per_byte


#: The paper's off-chip part: 1 GB DDR3, 8 banks, 8192-bit page.  DDR3-1600
#: x64 peaks at 12.8 GB/s, of which 75% is sustained; page-hit transfers
#: cost ~4 pJ/bit and misses (activate+precharge amortised) ~15 pJ/bit —
#: the three-orders-of-magnitude gap over on-chip adders that motivates
#: the paper's Section I.
DDR3_1GB = DramSpec(
    peak_bandwidth_bytes_per_s=12.8e9,
    hit_energy_per_byte_j=32e-12,
    miss_energy_per_byte_j=120e-12,
    efficiency=0.75,
)
