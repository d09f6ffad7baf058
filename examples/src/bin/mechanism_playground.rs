//! Mechanism playground: how the APP feedback loop behaves across
//! different LDP mechanisms (the paper's Figure 9 in miniature).
//!
//! ```text
//! cargo run -p ldp-examples --release --bin mechanism_playground
//! ```
//!
//! Every mechanism publishes the same unit-scale signal through the one
//! publication kernel; errors are measured on each mechanism's own input
//! domain (`[0, 1]` for SW, `[−1, 1]` for the others), as in the paper.

use ldp_core::{App, Direct, StreamMechanism};
use ldp_mechanisms::{Mechanism, MechanismKind};
use ldp_metrics::{cosine_distance, mse};
use ldp_streams::synthetic::sinusoidal;
use rand::SeedableRng;

fn main() {
    let (epsilon, w) = (2.0, 10);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let unit = sinusoidal(500, 0.01);

    println!(
        "per-slot ε = {} (ε = {epsilon}, w = {w}), 500-slot sinusoid\n",
        epsilon / w as f64
    );
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "mechanism", "MSE direct", "MSE APP", "cos direct", "cos APP"
    );

    for kind in [
        MechanismKind::SquareWave,
        MechanismKind::Laplace,
        MechanismKind::StochasticRounding,
        MechanismKind::Piecewise,
    ] {
        let mech = kind.build(epsilon / w as f64).expect("valid budget");
        if kind == MechanismKind::Piecewise {
            println!(
                "(PM output range at this budget: ±{:.1})",
                mech.output_domain().hi()
            );
        }
        let dom = mech.input_domain();
        let native = |xs: &[f64]| -> Vec<f64> { xs.iter().map(|&x| dom.denormalize(x)).collect() };
        let truth = native(unit.values());
        let direct = Direct::of_mechanism(kind, epsilon, w).expect("valid budget");
        let app = App::of_mechanism(kind, epsilon, w).expect("valid budget");
        let pub_direct = native(&direct.publish(unit.values(), &mut rng));
        let pub_app = native(&app.publish(unit.values(), &mut rng));
        println!(
            "{:<10} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            kind.label(),
            mse(&pub_direct, &truth),
            mse(&pub_app, &truth),
            cosine_distance(&pub_direct, &truth),
            cosine_distance(&pub_app, &truth),
        );
    }

    println!("\nAPP reduces error for every mechanism; SW's bounded output");
    println!("range keeps it far ahead at small budgets (paper §IV-C).");
}
