#!/usr/bin/env python3
"""Design-space exploration: everything the paper's evaluation implies.

Sweeps the full (ELEN, LMUL, EleNum) grid plus the future-work fused
variant with the ``repro explore`` sweeper, prints the Pareto frontier, decomposes each variant's round into
step mappings, projects absolute throughput at the paper's 100 MHz clock,
and quantifies the §3.2 bit-interleaving trade-off.

Run:  python examples/design_space_exploration.py
"""

from repro.arch import ArchConfig, at_frequency
from repro.eval import (
    measure_config,
    measure_instruction_mix,
    render_interleave_analysis,
)
from repro.eval.explore import (
    explore,
    pareto_frontier,
    render_explore,
    sweep_grid,
)
from repro.keccak import KeccakState
from repro.programs import keccak64_fused, keccak64_lmul8


def main() -> None:
    results = explore(sweep_grid())
    print(render_explore(results))
    print()
    print("Pareto frontier (throughput vs area):")
    for r in pareto_frontier(results):
        print(f"  {r.point.label:48s} {r.throughput_e3:9.2f} tput e3  "
              f"{r.area_slices:8.0f} slices")
    print()

    state = [KeccakState(list(range(25)))]
    for builder in (keccak64_lmul8, keccak64_fused):
        print(measure_instruction_mix(builder.build(5), state).render())
        print()

    print("Absolute throughput at the paper's 100 MHz clock:")
    for elen, lmul, elenum in ((64, 8, 30), (32, 8, 30)):
        config = ArchConfig(elen, elenum, lmul, elenum // 5)
        m = measure_config(config)
        perf = at_frequency(config.label, m.permutation_cycles,
                            m.num_states)
        print(f"  {config.label:48s} "
              f"{perf.throughput_mbit_per_second:7.1f} Mbit/s   "
              f"{perf.hash_rate_per_second() / 1e6:5.1f} MB/s SHA3-256")
    print()
    print(render_interleave_analysis())


if __name__ == "__main__":
    main()
