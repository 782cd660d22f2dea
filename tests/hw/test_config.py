"""Machine description validation and derived quantities."""

import dataclasses

import pytest

from repro.hw import CoreConfig, NPUConfig, exynos2100_like, homogeneous, tiny_test_machine


def core(**kw) -> CoreConfig:
    defaults = dict(
        name="c",
        macs_per_cycle=128,
        dma_bytes_per_cycle=8.0,
        spm_bytes=1024,
    )
    defaults.update(kw)
    return CoreConfig(**defaults)


class TestCoreConfig:
    def test_effective_macs(self):
        c = core(macs_per_cycle=100, compute_efficiency=0.5)
        assert c.effective_macs_per_cycle == 50.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("macs_per_cycle", 0),
            ("dma_bytes_per_cycle", 0),
            ("spm_bytes", 0),
            ("channel_alignment", 0),
            ("spatial_alignment", -1),
            ("compute_efficiency", 0.0),
            ("compute_efficiency", 1.5),
            ("dma_bytes_per_cycle", float("nan")),
            ("dma_bytes_per_cycle", float("inf")),
            ("heat_per_busy_cycle", float("nan")),
            ("cool_per_cycle", float("inf")),
            ("throttle_threshold", float("nan")),
            ("throttle_threshold", float("inf")),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            core(**{field: value})


class TestNPUConfig:
    def test_needs_cores(self):
        with pytest.raises(ValueError):
            NPUConfig(name="n", cores=(), bus_bytes_per_cycle=8.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("bus_bytes_per_cycle", float("nan")),
            ("bus_bytes_per_cycle", float("inf")),
            ("frequency_ghz", float("nan")),
            ("frequency_ghz", float("inf")),
            ("sync_base_cycles", -1),
            ("sync_per_core_cycles", -1),
            ("halo_exchange_base_cycles", -1),
            ("dram_latency_cycles", -500),
            ("sync_jitter_cycles", -1),
            ("halo_jitter_cycles", -1),
            ("dram_latency_cycles", float("nan")),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=field.split("_")[0]):
            dataclasses.replace(tiny_test_machine(2), **{field: value})

    def test_cycles_us_roundtrip(self):
        npu = tiny_test_machine(2)
        assert npu.cycles_to_us(npu.us_to_cycles(12.5)) == pytest.approx(12.5)

    def test_sync_cost_grows_with_cores(self):
        npu = tiny_test_machine(3)
        assert npu.sync_cost_cycles(3) > npu.sync_cost_cycles(1)

    def test_sync_cost_includes_expected_jitter(self):
        npu = tiny_test_machine(2)
        jittery = dataclasses.replace(npu, sync_jitter_cycles=3000)
        assert jittery.sync_cost_cycles() > npu.sync_cost_cycles()

    def test_single_core_variant(self):
        npu = exynos2100_like()
        solo = npu.single_core()
        assert solo.num_cores == 1
        assert solo.cores[0] == npu.cores[0]
        assert solo.bus_bytes_per_cycle == npu.bus_bytes_per_cycle

    def test_single_core_selectable(self):
        npu = exynos2100_like()
        solo = npu.single_core(2)
        assert solo.cores[0] == npu.cores[2]

    def test_compute_weights(self):
        npu = exynos2100_like()
        weights = npu.compute_weights()
        assert len(weights) == 3
        assert weights[0] > weights[2]


class TestPresets:
    def test_exynos_shape(self):
        npu = exynos2100_like()
        assert npu.num_cores == 3
        # heterogeneous: the little core is slower in compute and DMA.
        assert npu.cores[2].macs_per_cycle < npu.cores[0].macs_per_cycle
        assert npu.cores[2].dma_bytes_per_cycle < npu.cores[0].dma_bytes_per_cycle
        # channel alignment is the coarser constraint (Table 4 discussion).
        for c in npu.cores:
            assert c.channel_alignment > c.spatial_alignment

    def test_no_single_core_saturates_bus(self):
        """A single core must not saturate the DRAM path (multicore scaling)."""
        npu = exynos2100_like()
        for c in npu.cores:
            assert c.dma_bytes_per_cycle < npu.bus_bytes_per_cycle / 2

    def test_homogeneous(self):
        npu = homogeneous(4)
        assert npu.num_cores == 4
        assert len({c.macs_per_cycle for c in npu.cores}) == 1

    def test_homogeneous_rejects_zero(self):
        with pytest.raises(ValueError):
            homogeneous(0)

    def test_tiny_machine_is_jitter_free(self):
        npu = tiny_test_machine()
        assert npu.sync_jitter_cycles == 0
        assert npu.halo_jitter_cycles == 0
