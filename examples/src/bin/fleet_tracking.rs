//! Fleet tracking: crowd-level statistics over taxi latitude traces.
//!
//! ```text
//! cargo run -p ldp-examples --release --bin fleet_tracking
//! ```
//!
//! A dispatcher wants the distribution of average latitudes over the last
//! 30 ticks across a taxi fleet, without learning any single trace. Each
//! driver publishes privately with PP-S (APP over segment means); the
//! dispatcher aggregates per-driver mean estimates and compares sampling
//! vs non-sampling pipelines.

use ldp_core::crowd::{estimated_population_means, true_population_means};
use ldp_core::{App, Sampling, SessionKind, StreamMechanism};
use ldp_metrics::{wasserstein_cdf_sum, Summary};
use ldp_streams::synthetic::taxi_population;
use rand::SeedableRng;

fn main() {
    let epsilon = 1.5;
    let w = 20;
    let q = 30; // query: mean latitude over the last 30 ticks
    let drivers = 500;

    let fleet = taxi_population(drivers, 200, 7);
    let range = 170..200;
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);

    let app = App::new(epsilon, w).expect("valid budget");
    let app_sampling = Sampling::new(SessionKind::App, epsilon, w).expect("valid budget");
    println!(
        "PP-S picks n_s = {} segments for q = {q} (per-upload ε = {:.3})",
        app_sampling.sample_count(q),
        app_sampling.upload_epsilon(q)
    );

    let truth = true_population_means(&fleet, range.clone());
    let truth_summary: Summary = truth.iter().copied().collect();
    println!(
        "\ntrue fleet mean-latitude distribution: mean {:.4}, std {:.4}",
        truth_summary.mean(),
        truth_summary.std_dev()
    );

    println!(
        "\n{:<12} {:>12} {:>12} {:>14}",
        "algorithm", "est. mean", "est. std", "Wasserstein"
    );
    let algos: Vec<(&str, &dyn StreamMechanism)> = vec![("APP", &app), ("APP-S", &app_sampling)];
    for (name, algo) in algos {
        let est = estimated_population_means(&fleet, range.clone(), algo, &mut rng);
        let s: Summary = est.iter().copied().collect();
        println!(
            "{:<12} {:>12.4} {:>12.4} {:>14.4}",
            name,
            s.mean(),
            s.std_dev(),
            wasserstein_cdf_sum(&est, &truth, 50)
        );
    }

    println!("\n(APP-S trades stream detail for sharper subsequence means —");
    println!(" the paper's Figure 8 effect)");
}
