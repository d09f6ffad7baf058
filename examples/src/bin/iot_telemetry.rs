//! IoT telemetry: smart-meter publication with budget accounting.
//!
//! ```text
//! cargo run -p ldp-examples --release --bin iot_telemetry
//! ```
//!
//! A fleet of smart meters reports 96 quarter-hourly power readings per
//! day. Device profiles are mostly piecewise constant, the regime where
//! budget absorption (BA-SW) shines at large ε. This example publishes
//! each device's day under three algorithms, verifies the w-event spend
//! with the accountant, and reports which algorithm best preserves the
//! fleet's daily-mean distribution.

use ldp_baselines::BaSw;
use ldp_core::crowd::estimated_population_means;
use ldp_core::{Capp, Direct, StreamMechanism, WEventAccountant};
use ldp_metrics::wasserstein_cdf_sum;
use ldp_streams::synthetic::power_population;
use rand::SeedableRng;

fn main() {
    let epsilon = 3.0;
    let w = 12; // three-hour sliding protection window
    let devices = 400;

    let fleet = power_population(devices, 96, 2024);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);

    // Verify the per-slot schedule respects w-event privacy.
    let mut accountant = WEventAccountant::new(w, epsilon);
    for _ in 0..96 {
        accountant.record(epsilon / w as f64);
    }
    println!(
        "accountant: max window spend {:.4} / budget {epsilon} -> w-event ok: {}",
        accountant.max_window_spend(),
        accountant.satisfies_w_event()
    );

    let algos: Vec<(&str, Box<dyn StreamMechanism>)> = vec![
        ("SW-direct", Box::new(Direct::new(epsilon, w).unwrap())),
        ("BA-SW", Box::new(BaSw::new(epsilon, w).unwrap())),
        ("CAPP", Box::new(Capp::new(epsilon, w).unwrap())),
    ];

    let true_means: Vec<f64> = fleet.iter().map(|s| s.mean()).collect();

    println!("\nfleet of {devices} devices, ε = {epsilon}, w = {w}");
    println!("{:<12} {:>28}", "algorithm", "Wasserstein(means est, true)");
    for (name, algo) in &algos {
        let est_means = estimated_population_means(&fleet, 0..96, algo.as_ref(), &mut rng);
        let distance = wasserstein_cdf_sum(&est_means, &true_means, 50);
        println!("{name:<12} {distance:>28.4}");
    }

    println!("\n(lower is better: the collector reconstructs the fleet's");
    println!(" daily-mean distribution from private reports only)");
}
