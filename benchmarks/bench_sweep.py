"""Benchmark harness for the design-space sweep (Pareto figure data).

Extends the paper's three-point-per-architecture evaluation to the full
EleNum grid — the ``repro sweep`` grid of :mod:`repro.eval.explore`,
including the fused rho+pi/chi program — and derives the
throughput-vs-area efficiency frontier.
"""

import pytest

from repro.eval.explore import (
    FUSED_VARIANT,
    VARIANTS,
    explore,
    explore_grid,
    pareto_frontier,
    render_explore,
    sweep_grid,
)


@pytest.fixture(scope="module")
def points():
    return explore(sweep_grid())


@pytest.fixture(scope="module", autouse=True)
def print_sweep(points):
    yield
    print()
    print(render_explore(points))
    print()
    print("Pareto frontier:")
    for r in pareto_frontier(points):
        print(f"  {r.point.label:48s} {r.throughput_e3:9.2f} tput  "
              f"{r.area_slices:8.0f} slices")


def test_full_grid_size(points):
    # 6 EleNums x 4 variants.
    assert len(points) == 24


def test_throughput_monotone_in_elenum(points):
    """More states never hurt throughput at fixed latency."""
    for elen, lmul, fused in ((64, 1, False), (64, 8, False),
                              (32, 8, False), (64, 8, True)):
        series = sorted(
            (r for r in points
             if (r.point.elen, r.point.lmul, r.point.fused)
             == (elen, lmul, fused)),
            key=lambda r: r.point.elenum,
        )
        values = [r.throughput_e3 for r in series]
        assert values == sorted(values)


def test_efficiency_ranking(points):
    """Throughput-per-slice: fused > LMUL=8 > LMUL=1 > 32-bit at any
    common EleNum (the 64-bit datapath amortizes better)."""
    for elenum in (5, 30):
        at = {(r.point.elen, r.point.lmul, r.point.fused):
              r.throughput_per_kslice
              for r in points if r.point.elenum == elenum}
        assert at[(64, 8, True)] > at[(64, 8, False)]
        assert at[(64, 8, False)] > at[(64, 1, False)]
        assert at[(64, 1, False)] > at[(32, 8, False)]


def test_bench_sweep(benchmark):
    """Time a reduced sweep: EleNum 5 and 30, all four variants."""
    grid = explore_grid(elenums=(5, 30),
                        variants=VARIANTS + (FUSED_VARIANT,),
                        banks=(1,), issue_widths=(1,))
    result = benchmark(lambda: explore(grid))
    assert len(result) == 8
