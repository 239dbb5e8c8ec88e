"""Read/write-differentiated performance model."""

import pytest

from repro.errors import ConfigurationError
from repro.nvram.technology import DRAM_DDR3, MRAM, PCRAM, STTRAM
from repro.perfsim.core import WorkloadCounts
from repro.perfsim.rwmodel import ReadWriteCoreModel, RWWorkloadCounts


def make_rw_counts(reads=4000, writes=1500, mlp=8.0):
    base = WorkloadCounts(
        instructions=2_000_000,
        memory_refs=400_000,
        l1_misses=max(40_000, 2 * (reads + writes)),
        llc_misses=reads + writes,
        mlp=mlp,
    )
    return RWWorkloadCounts(base=base, llc_read_misses=reads, llc_writebacks=writes)


class TestReadWriteModel:
    MODEL = ReadWriteCoreModel()

    def test_differentiated_beats_symmetric_for_pcram(self):
        """§V: assuming write latency == read latency is a performance
        lower bound — the real (posted-write) slowdown is smaller."""
        w = make_rw_counts()
        sym, diff = self.MODEL.bound_gap(w, PCRAM, DRAM_DDR3)
        assert diff < sym
        assert diff >= 1.0

    def test_sttram_gap_reflects_dram_like_reads(self):
        """STTRAM reads are DRAM-speed: the differentiated slowdown is
        almost nil even though the symmetric model charged 20 ns."""
        w = make_rw_counts()
        sym, diff = self.MODEL.bound_gap(w, STTRAM, DRAM_DDR3)
        assert diff <= sym
        assert diff < 1.02

    def test_mram_symmetric_equals_differentiated(self):
        """MRAM is symmetric (12/12): both models must agree exactly."""
        w = make_rw_counts()
        sym, diff = self.MODEL.bound_gap(w, MRAM, DRAM_DDR3)
        assert diff == pytest.approx(sym)

    def test_write_flood_stalls_buffer(self):
        """Enough writebacks against few drain banks eventually stalls."""
        model = ReadWriteCoreModel(drain_banks=1, write_buffer_entries=4)
        calm = make_rw_counts(reads=100, writes=100)
        flood = make_rw_counts(reads=100, writes=400_000)
        slow_calm = model.slowdown(calm, PCRAM, DRAM_DDR3)
        slow_flood = model.slowdown(flood, PCRAM, DRAM_DDR3)
        assert slow_flood > slow_calm

    def test_dram_baseline_is_one(self):
        w = make_rw_counts()
        assert self.MODEL.slowdown(w, DRAM_DDR3, DRAM_DDR3) == pytest.approx(1.0)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            ReadWriteCoreModel(write_buffer_entries=0)
        with pytest.raises(ConfigurationError):
            RWWorkloadCounts(
                base=make_rw_counts().base, llc_read_misses=-1, llc_writebacks=0
            )
