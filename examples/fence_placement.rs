//! Fence placement end-to-end: the delay-set analyzer decides where
//! fences go; the simulator + SC checker confirm the placement works and
//! that removing a required fence re-exposes the violation.
//!
//! Run with: `cargo run --example fence_placement`

use asymfence_analyze::infer_placement;
use asymfence_suite::prelude::*;
use asymfence_suite::unfenced::{fences_per_thread, keeps_sc, programs, SHAPES};

fn main() {
    println!("delay-set analysis -> fence placement -> simulate -> verify SC\n");

    for shape in SHAPES {
        let threads = programs(shape).len();
        let cfg = MachineConfig::builder().cores(threads).build();
        let placement = infer_placement(|_| programs(shape), &cfg);
        println!(
            "{shape}: {} fence(s) needed under TSO -> per thread {:?}",
            placement.len(),
            fences_per_thread(&placement, threads)
        );
        for design in [FenceDesign::SPlus, FenceDesign::WsPlus] {
            let sc = keeps_sc(shape, Some(&placement), design);
            println!("   with placement, {design}: SC preserved = {sc}");
            assert!(sc, "analyzer placement must preserve SC");
        }
        if !placement.is_empty() {
            // Drop every fence: the violation should be reachable.
            let sc = keeps_sc(shape, None, FenceDesign::SPlus);
            println!("   without fences: SC preserved = {sc} (violation expected)");
        }
        println!();
    }
}
