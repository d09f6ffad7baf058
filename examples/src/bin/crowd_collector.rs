//! End-to-end client→collector demo: a fleet of online CAPP sessions
//! streams perturbed reports into the sharded collector, which maintains
//! running crowd estimates that the analyst queries without ever seeing a
//! raw value.
//!
//! Run: `cargo run --release -p ldp-examples --bin crowd_collector`

use ldp_collector::{ClientFleet, Collector, CollectorConfig, FleetConfig};
use ldp_core::{crowd, PipelineSpec, SessionKind};
use ldp_streams::synthetic::taxi_population;

fn main() {
    let (users, slots) = (2_000, 120);
    let (epsilon, w) = (2.0, 24);
    let population = taxi_population(users, slots, 42);

    let collector = Collector::new(CollectorConfig::default());
    let fleet = ClientFleet::new(FleetConfig {
        spec: PipelineSpec::sw(SessionKind::Capp),
        epsilon,
        w,
        seed: 7,
        threads: ldp_collector::default_parallelism(),
    });

    let reports = fleet
        .drive(&population, 0..slots, &collector)
        .expect("valid fleet config");
    println!(
        "{users} users × {slots} slots → {reports} reports ({} shards)",
        collector.shard_count(),
    );

    let snapshot = collector.snapshot();
    let truth = crowd::true_windowed_population_mean(&population, 0..slots);
    println!(
        "windowed population mean: collector {:.4} vs ground truth {:.4}",
        snapshot.windowed_mean(0..slots).expect("full coverage"),
        truth,
    );

    // Crowd-level statistics (paper §IV-C): the distribution of per-user
    // mean estimates vs the true distribution.
    let est = snapshot.per_user_means();
    let true_means = crowd::true_population_means(&population, 0..slots);
    let wasserstein = ldp_metrics::wasserstein_sorted(&est, &true_means);
    println!("crowd distribution distance (1-Wasserstein): {wasserstein:.4}");

    println!("\nfirst slots (crowd mean ± std across {users} users):");
    for slot in 0..8 {
        println!(
            "  t={slot:<3} mean {:.4}  std {:.4}  (true crowd mean {:.4})",
            snapshot.slot_mean(slot).unwrap(),
            snapshot.slot_variance(slot).unwrap().sqrt(),
            population.iter().map(|u| u.values()[slot]).sum::<f64>() / users as f64,
        );
    }
}
