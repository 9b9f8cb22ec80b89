import time

import pytest

import hostspeed


def _samples(rows):
    """(t, steal, total, interp, memory) from (t, steal, total, cpu)."""
    return [(t, steal, total, cpu, 2 * cpu) for t, steal, total, cpu in rows]


def test_window_uses_the_median_of_its_own_samples():
    samples = _samples((t / 10, 0, 100 * t, 0.004 if t < 10 else 0.008)
                       for t in range(20))
    assert hostspeed.window_kernel_s(samples, 0.0, 0.95, "interp") == 0.004
    assert hostspeed.window_kernel_s(samples, 1.0, 2.0, "interp") == 0.008
    assert hostspeed.window_kernel_s(samples, 1.0, 2.0, "memory") == 0.016
    assert hostspeed.factor(samples, 1.0, 2.0, "interp") == pytest.approx(0.5)


def test_short_window_borrows_the_samples_nearest_its_middle():
    samples = _samples((t, 0, 0, cpu) for t, cpu in (
        (0.0, 0.001), (1.0, 0.002), (2.0, 0.003), (3.0, 0.004),
        (4.0, 0.005), (5.0, 0.006), (9.0, 0.1)))
    # No sample inside [2.3, 2.5]; the five nearest are t = 0..4.
    assert hostspeed.window_kernel_s(samples, 2.3, 2.5, "interp") == 0.003


def test_stolen_ticks_shorten_the_scaled_window():
    # 10 of the 200 ticks between t = 1 and t = 3 were stolen.
    samples = _samples([(0.0, 0, 0, 0.004), (1.0, 0, 100, 0.004),
                        (2.0, 5, 200, 0.004), (3.0, 10, 300, 0.004),
                        (4.0, 10, 400, 0.004)])
    assert hostspeed.window_steal_share(samples, 1.0, 3.0) == 0.05
    assert hostspeed.factor(samples, 1.0, 3.0, "interp") == pytest.approx(0.95)
    assert hostspeed.window_steal_share(samples, 2.0, 2.1) == 0.0


def test_pacer_samples_until_the_block_ends_and_stops():
    with hostspeed.Pacer() as pacer:
        proc = pacer._proc
        time.sleep(0.3)
    assert proc.returncode == 0
    assert len(pacer.samples) >= 2
    for t, steal, total, *kernels in pacer.samples:
        assert total >= steal >= 0
        assert len(kernels) == len(hostspeed.KERNELS)
        assert all(cpu > 0 for cpu in kernels)


def test_pacer_is_killed_when_the_block_raises():
    with pytest.raises(KeyError):
        with hostspeed.Pacer() as pacer:
            proc = pacer._proc
            raise KeyError("boom")
    assert proc.returncode is not None
    assert pacer.samples == []


@pytest.mark.parametrize("name", sorted(hostspeed.KERNELS))
def test_kernels_are_deterministic(name):
    kernel, _ = hostspeed.KERNELS[name]
    assert kernel() == kernel()
