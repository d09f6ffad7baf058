//! Quickstart: publish one private stream and inspect its quality.
//!
//! ```text
//! cargo run -p ldp-examples --release --bin quickstart
//! ```
//!
//! A user holds an hourly traffic stream normalized to `[0, 1]`. They want
//! to publish it continuously such that any sliding window of `w = 24`
//! hours is protected by a total privacy budget of ε = 2 (w-event LDP).
//! We compare the naive SW-direct baseline against the paper's CAPP.

use ldp_core::{Capp, Direct, StreamMechanism};
use ldp_metrics::{cosine_distance, mse};
use ldp_streams::synthetic::volume;
use rand::SeedableRng;

fn main() {
    let epsilon = 2.0;
    let w = 24; // one day of hourly readings per privacy window

    // One week of traffic data, normalized to [0, 1].
    let stream = volume(24 * 7, 42);
    let truth = stream.values();

    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    let naive = Direct::new(epsilon, w).expect("valid budget");
    let capp = Capp::new(epsilon, w).expect("valid budget");

    let published_naive = naive.publish(truth, &mut rng);
    let published_capp = capp.publish(truth, &mut rng);

    println!("w-event LDP stream publication (ε = {epsilon}, w = {w})");
    println!("stream length: {} slots\n", truth.len());
    println!(
        "{:<12} {:>12} {:>18}",
        "algorithm", "MSE", "cosine distance"
    );
    for (name, published) in [("SW-direct", &published_naive), ("CAPP", &published_capp)] {
        println!(
            "{:<12} {:>12.5} {:>18.5}",
            name,
            mse(published, truth),
            cosine_distance(published, truth)
        );
    }

    let true_mean = truth.iter().sum::<f64>() / truth.len() as f64;
    let capp_mean = published_capp.iter().sum::<f64>() / truth.len() as f64;
    println!("\ntrue weekly mean:      {true_mean:.4}");
    println!("CAPP estimated mean:   {capp_mean:.4}");
    println!(
        "absolute error:        {:.4}",
        (true_mean - capp_mean).abs()
    );
}
