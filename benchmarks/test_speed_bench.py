"""The machine-speed reference: one reading of perfbench's reference kernel
(`perfbench.speed.reading`), which uses nothing from riskcast.

    python -m pytest benchmarks --benchmark-enable \
        --benchmark-json=BENCH_<n>.json

The kernel's time moves with the machine's speed and with nothing else, so
in a run of the parent and the change in alternation, its per-round ratio
shows how far the machine alone swings the other cases. The test suite runs
it once.
"""

from perfbench import speed


def test_speed_reading(benchmark):
    assert benchmark(speed.reading) > 0.0
