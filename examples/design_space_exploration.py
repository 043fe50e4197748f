"""Design-space exploration: choosing (N, C) for a given SPAD (paper Figure 4).

Run with ``python examples/design_space_exploration.py [dead_time_ns]``.

Given the dead time (detection cycle) of the SPAD you have, the script walks
the paper's (N, C) design space, prints the throughput/detection-cycle
heatmaps of Figure 4, and picks the highest-throughput TDC design whose range
matches your SPAD, together with the PPM parameters and calibration policy it
implies.  The chosen operating point is then validated by a batched
Monte-Carlo symbol-error run over the vectorised link engine.
"""

import sys

import numpy as np

from repro.analysis.plotting import ascii_heatmap
from repro.analysis.units import NS, PS, format_si
from repro.core.calibration import CalibrationPolicy
from repro.core.config import LinkConfig
from repro.core.design_space import DesignSpace, figure4_grid
from repro.simulation.montecarlo import LinkBatchTrial, chunk_generators


def main(dead_time_ns: float = 32.0) -> None:
    dead_time = dead_time_ns * NS
    element_delay = 54 * PS  # the FPGA proof-of-concept element delay

    print(f"=== (N, C) design space for a SPAD with a {dead_time_ns:.0f} ns detection cycle ===")
    n_values, c_values, tp, dc = figure4_grid(element_delay=element_delay)
    print("\nlog10 throughput [bit/s] (Figure 4 shading):")
    print(ascii_heatmap(np.log10(tp), row_labels=[str(n) for n in n_values],
                        col_labels=[str(c) for c in c_values]))
    print("\nlog10 detection cycle [s] (Figure 4 contours):")
    print(ascii_heatmap(np.log10(dc), row_labels=[str(n) for n in n_values],
                        col_labels=[str(c) for c in c_values]))

    space = DesignSpace(element_delay=element_delay)
    best = space.best_for_dead_time(dead_time)
    design = best.design
    print("\nselected design:")
    print(f"  N (fine elements)   : {design.fine_elements}")
    print(f"  C (coarse bits)     : {design.coarse_bits}")
    print(f"  element delay delta : {format_si(design.element_delay, 's')}")
    print(f"  measurement window  : {format_si(design.measurement_window, 's')}")
    print(f"  detection cycle DC  : {format_si(design.detection_cycle, 's')}")
    print(f"  bits per conversion : {design.bits_per_symbol:.2f}")
    print(f"  throughput TP       : {format_si(design.throughput, 'bit/s')}")

    print("\nPareto frontier (throughput vs. tolerated detection cycle):")
    for point in space.pareto_front():
        print(f"  N={point.design.fine_elements:5d}  C={point.design.coarse_bits}  "
              f"DC={format_si(point.detection_cycle, 's'):>10}  "
              f"TP={format_si(point.throughput, 'bit/s'):>12}")

    policy = CalibrationPolicy(design=design)
    print("\ncalibration policy (no dynamic PVT compensation, per the paper):")
    print(f"  tolerated temperature excursion : {policy.tolerated_temperature_excursion():.1f} degC")
    print(f"  recalibration interval          : {policy.recalibration_interval():.1f} s "
          f"at {policy.temperature_drift_rate} degC/s drift")
    print(f"  throughput overhead             : {policy.throughput_overhead() * 100:.3f} %")

    # Validate the operating point end to end: a batched Monte-Carlo where
    # each "trial" is one PPM symbol pushed through the batch link backend
    # (selected by name via the registry), in independently seeded chunks.
    config = LinkConfig(ppm_bits=4, spad_dead_time=dead_time, mean_detected_photons=20.0)

    trials = 20_000
    trial = LinkBatchTrial(config, backend="batch")
    errors = np.concatenate([
        trial(generator, count).symbol_bit_errors > 0
        for count, generator in chunk_generators(42, "design-validation", trials, 8192)
    ])
    error_rate = errors.mean()
    standard_error = errors.std(ddof=1) / np.sqrt(trials)
    print(f"\nMonte-Carlo validation ({trials:,} symbols, batched link engine):")
    print(f"  symbol error rate   : {error_rate:.2e} ± {standard_error:.1e}")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 32.0)
