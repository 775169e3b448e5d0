#!/usr/bin/env python
"""Build a custom EH-WSN deployment from the low-level substrates.

Everything HARExperiment automates, done by hand: a harsher office RF
environment, bigger capacitors, a WiFi radio instead of BLE, a
hand-tuned schedule — useful as a template for extending the library to
new deployments (more sensors, other radios, different harvesters).

Run:  python examples/custom_deployment.py
"""

import numpy as np

from repro.core import origin_policy
from repro.datasets import make_mhealth
from repro.energy import Capacitor, Harvester, NonVolatileProcessor, OfficeState, PowerTraceGenerator
from repro.sim import HARExperiment, SimulationConfig, SlotKernel, TrainedSensorBundle, TrainingConfig
from repro.wsn import RadioProfile, SensorNode


def main() -> None:
    # 1. A gloomier office: weaker bursts, longer quiet stretches.
    generator = PowerTraceGenerator(
        state_power_w={OfficeState.BURST: 80e-6},
        state_dwell_s={OfficeState.QUIET: 60.0},
    )
    print(
        f"custom office average harvest: "
        f"{generator.expected_average_power_w() * 1e6:.1f} uW"
    )

    # 2. Data + models pruned to the harsher budget.
    dataset = make_mhealth(seed=3)
    budget = generator.expected_average_power_w() * dataset.spec.window_duration_s
    bundle = TrainedSensorBundle.train(
        dataset, budget, seed=3, config=TrainingConfig(epochs=40)
    )
    for location, entry in bundle.by_location.items():
        print(
            f"  {location.label:<12} pruned to "
            f"{entry.pruned_inference_energy_j * 1e6:.1f} uJ "
            f"(budget {budget * 1e6:.1f} uJ), val {entry.pruned_val_accuracy:.1%}"
        )

    # 3. Deployment knobs: larger storage, WiFi backhaul, task expiry.
    config = SimulationConfig(
        n_windows=400,
        capacitor_capacity_j=250e-6,
        radio=RadioProfile.wifi(),
        max_task_age_slots=8,
        dwell_scale=5.0,
    )
    experiment = HARExperiment(
        dataset, bundle, trace_generator=generator, config=config, seed=3
    )

    result = experiment.run(origin_policy(12), seed=9)
    print("\n" + result.summary())
    breakdown = result.completion_breakdown()
    print(f"completion under the gloomy office: {breakdown.any_fraction:.1%}")
    print(f"radio (WiFi) energy spent: {result.comm_energy_j * 1e6:.1f} uJ total")

    # 4. Peeking inside one node, standalone: a one-lane slot kernel
    #    (the same physics every run steps), active on every slot.
    trace = generator.generate(600, seed=1)
    node = SensorNode(
        node_id=0,
        location=list(bundle.by_location)[0],
        inference_energy_j=bundle.inference_energies(pruned=True)[0],
        harvester=Harvester(trace),
        capacitor=Capacitor(capacity_j=250e-6),
        nvp=NonVolatileProcessor(checkpoint_overhead=0.05),
        radio=RadioProfile.wifi(),
        slot_duration_s=dataset.spec.window_duration_s,
    )
    lane = SlotKernel.from_nodes([node], n_runs=1, n_slots=6)
    for slot in range(6):
        events = lane.advance(slot, np.ones(1, dtype=bool))
        progress = lane.done_work[0] / lane.task_work_j[0]
        state = "done" if events.completed[0] else f"{progress:.0%}"
        print(f"  slot {slot}: stored {lane.stored[0] * 1e6:6.1f} uJ, inference {state}")
        if events.completed[0]:
            break


if __name__ == "__main__":
    main()
