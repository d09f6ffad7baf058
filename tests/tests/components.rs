//! Component-interaction tests: sampling internals, high-dimensional
//! splits and the EM estimator, wired into the pipeline.

use integration_tests::test_rng;
use ldp_core::highdim::{publish_multidim, SplitStrategy};
use ldp_core::{optimal_sample_count, Sampling, SessionKind, StreamMechanism};
use ldp_metrics::{cosine_distance, mse};
use ldp_streams::synthetic::{sin_multidim, volume};
use ldp_streams::Stream;

/// The n_s optimizer truly minimizes the paper's objective
/// `n_s · Var(n_s, ε)`: its pick is never beaten by any other candidate.
#[test]
fn sample_count_minimizes_objective() {
    use ldp_core::sampling::variance_of_sample_variance;
    use ldp_mechanisms::SquareWave;
    for &(eps, w, q) in &[(1.0f64, 5usize, 60usize), (1.0, 50, 60), (3.0, 20, 30)] {
        let picked = optimal_sample_count(eps, w, q);
        let objective = |ns: usize| {
            let seg_len = (q / ns).max(1);
            let nw = w.div_ceil(seg_len).max(1);
            let sw = SquareWave::new(eps / nw as f64).unwrap();
            ns as f64 * variance_of_sample_variance(&sw, ns)
        };
        let best = objective(picked);
        for ns in 2..=q {
            if q / ns == 0 {
                break;
            }
            assert!(
                best <= objective(ns) + 1e-12,
                "(eps={eps}, w={w}, q={q}): picked {picked} beaten by {ns}"
            );
        }
    }
}

/// Segment replication: the published stream's distinct-value count equals
/// the segment count.
#[test]
fn sampling_publishes_exactly_ns_distinct_values() {
    let algo = Sampling::new(SessionKind::Capp, 2.0, 10)
        .unwrap()
        .with_sample_count(5);
    let data = volume(400, 31);
    let out = algo.publish(&data.values()[..100], &mut test_rng(32));
    let mut distinct: Vec<f64> = out.clone();
    distinct.sort_by(f64::total_cmp);
    distinct.dedup();
    assert_eq!(distinct.len(), 5);
}

/// Budget-Split and Sample-Split both return one full-length stream per
/// dimension, and more budget improves both.
#[test]
fn highdim_strategies_improve_with_budget() {
    let series = sin_multidim(4, 200, 33);
    let mut rng = test_rng(34);
    for strategy in [SplitStrategy::BudgetSplit, SplitStrategy::SampleSplit] {
        let errs: Vec<f64> = [0.5, 16.0]
            .iter()
            .map(|&eps| {
                let published =
                    publish_multidim(&series, SessionKind::App, strategy, eps, 10, &mut rng)
                        .unwrap();
                (0..4)
                    .map(|k| mse(&published[k], series.dim(k).values()))
                    .sum::<f64>()
            })
            .collect();
        assert!(
            errs[1] < errs[0],
            "{}: ε=16 error {} should beat ε=0.5 {}",
            strategy.label(),
            errs[1],
            errs[0]
        );
    }
}

/// Cosine distance of published streams falls as the budget grows, for the
/// full PP family (Figure 5's monotone trend).
#[test]
fn cosine_distance_improves_with_budget() {
    let data = volume(1_000, 37);
    let slice = &data.values()[200..400];
    let mut rng = test_rng(38);
    for make in [
        |e: f64| Box::new(ldp_core::App::new(e, 10).unwrap()) as Box<dyn StreamMechanism>,
        |e: f64| Box::new(ldp_core::Capp::new(e, 10).unwrap()) as Box<dyn StreamMechanism>,
    ] {
        let avg = |eps: f64, rng: &mut rand::rngs::StdRng| {
            let algo = make(eps);
            (0..20)
                .map(|_| cosine_distance(&algo.publish(slice, rng), slice))
                .sum::<f64>()
                / 20.0
        };
        let lo = avg(0.5, &mut rng);
        let hi = avg(30.0, &mut rng);
        assert!(hi < lo, "ε=30 cosine {hi} should beat ε=0.5 {lo}");
    }
}

/// Streams built from iterators interoperate with every publisher.
#[test]
fn stream_construction_paths_agree() {
    let a: Stream = (0..10).map(|i| i as f64 / 10.0).collect();
    let b = Stream::new((0..10).map(|i| i as f64 / 10.0).collect());
    assert_eq!(a, b);
    let capp = ldp_core::Capp::new(1.0, 5).unwrap();
    let out_a = capp.publish(a.values(), &mut test_rng(39));
    let out_b = capp.publish(b.values(), &mut test_rng(39));
    assert_eq!(out_a, out_b);
}
