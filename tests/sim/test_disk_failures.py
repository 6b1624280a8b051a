"""Unit tests for the disk model."""

from repro.sim import Disk, Kernel


class TestDisk:
    def test_sync_write_takes_time(self):
        k = Kernel(seed=141)
        disk = Disk(k, "d", sync_latency=0.004, bytes_per_second=80e6)
        done = []

        def writer(k, disk):
            yield from disk.sync_write(8000)
            done.append(k.now)

        k.process(writer(k, disk))
        k.run()
        # Seek (~4 ms +-15%) plus transfer (0.1 ms).
        assert 0.003 < done[0] < 0.006
        assert disk.syncs == 1
        assert disk.bytes_written == 8000

    def test_writes_serialise_on_the_head(self):
        k = Kernel(seed=142)
        disk = Disk(k, "d", sync_latency=0.004)
        done = []

        def writer(k, disk, name):
            yield from disk.sync_write(100)
            done.append((name, k.now))

        for name in ("a", "b", "c"):
            k.process(writer(k, disk, name))
        k.run()
        times = [t for _n, t in done]
        assert times == sorted(times)
        # Three serialised writes take roughly three seek times.
        assert times[-1] > 0.009

    def test_queue_length_visible(self):
        k = Kernel(seed=143)
        disk = Disk(k, "d", sync_latency=0.01)

        def writer(k, disk):
            yield from disk.sync_write(10)

        for _ in range(3):
            k.process(writer(k, disk))
        k.run(until=0.001)
        assert disk.queue_length >= 1
