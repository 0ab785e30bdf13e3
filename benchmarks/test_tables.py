"""Benchmarks regenerating the paper's Tables I-III and Figure 3.

These are derivation-only (no simulation), so the benchmark numbers
measure the cost of the structural computations themselves.
"""

from repro.experiments import fig03_address_map, tab01_properties, tab02_packets, tab03_cooling


def test_table1_properties(benchmark):
    derived = benchmark(tab01_properties.run)
    assert tab01_properties.check_shape(derived) == []


def test_table2_packets(benchmark):
    derived = benchmark(tab02_packets.run)
    assert tab02_packets.check_shape(derived) == []


def test_table3_cooling(benchmark):
    configs = benchmark(tab03_cooling.run)
    assert tab03_cooling.check_shape(configs) == []


def test_fig3_address_map(benchmark):
    results = benchmark(fig03_address_map.run)
    assert fig03_address_map.check_shape(results) == []
