//! Depth-aware optimization (the paper's Section 7.8): run POPQC at *layer*
//! granularity with a Quartz-style search oracle minimizing
//! `cost = 10·depth + gates`, and compare against plain gate-count
//! optimization.
//!
//! ```sh
//! cargo run --release --example depth_aware
//! ```

use popqc::prelude::*;

fn main() {
    let circuit = Family::Vqe.generate(10, 11);
    let layered = circuit.layered();
    println!(
        "input: {} gates, depth {} (mixed cost {})",
        circuit.len(),
        layered.depth(),
        layered.mixed_cost()
    );

    // Both arms run the *layer-granularity* engine with the same search
    // oracle and budget; only the cost function differs — exactly the
    // comparison of the paper's Figure 6.
    let cfg = PopqcConfig::with_omega(20);
    let run = |oracle: &dyn SegmentOracle<Layer>| {
        let (layers, stats) =
            Engine::new(oracle, cfg.clone()).run(layered.layers.clone(), layered.num_qubits);
        let num_qubits = layered.num_qubits;
        (LayeredCircuit { num_qubits, layers }, stats)
    };

    let (by_gates, _) = run(&LayerSearchOracle::new(GateCount, 400, circuit.num_qubits));
    println!(
        "gate-count objective:  {} gates, depth {} (mixed cost {})",
        by_gates.gate_count(),
        by_gates.depth(),
        by_gates.mixed_cost()
    );

    let (by_depth, stats) = run(&LayerSearchOracle::new(
        MixedDepthGates::default(),
        400,
        circuit.num_qubits,
    ));
    println!(
        "mixed objective:       {} gates, depth {} (mixed cost {}) in {} rounds",
        by_depth.gate_count(),
        by_depth.depth(),
        by_depth.mixed_cost(),
        stats.rounds
    );

    // The depth-aware run should never lose on the mixed objective, and
    // should not lose on depth to the gate-count arm.
    assert!(by_depth.mixed_cost() <= layered.mixed_cost());
    assert!(by_depth.depth() <= by_gates.depth());

    // Both outputs must be semantically equivalent to the input.
    assert!(popqc::sim::circuits_equivalent(
        &circuit,
        &by_gates.to_circuit(),
        2,
        5
    ));
    assert!(popqc::sim::circuits_equivalent(
        &circuit,
        &by_depth.to_circuit(),
        2,
        6
    ));
    println!("semantics preserved for both objectives");
}
