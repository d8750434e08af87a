//! The statistics helpers: median, quartiles and spread as Python's
//! `statistics` module computes them, and the tail-percentile rule.

use skewbench::stats::{
    beyond, highest_supported, iqr_share, median, percentile, quartiles, supports,
};

#[test]
fn median_of_odd_even_and_empty_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[7.5]), Some(7.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from `statistics.quantiles(values, n=4)`.
    let cases: [(&[f64], [f64; 3]); 4] = [
        (&[1.0, 2.0], [0.75, 1.5, 2.25]),
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            [2.75, 5.5, 8.25],
        ),
        (&[5.0, 1.0, 4.0, 2.0, 3.0], [1.5, 3.0, 4.5]),
        (&[3.5, 1.25, 9.0, 7.75, 2.0, 6.5, 4.0], [2.0, 4.0, 7.75]),
    ];
    for (values, expected) in cases {
        let got = quartiles(values).expect("two or more values");
        for (g, e) in got.iter().zip(expected) {
            assert!(
                (g - e).abs() < 1e-12,
                "{values:?}: got {got:?}, want {expected:?}"
            );
        }
    }
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn iqr_share_is_spread_over_median() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    let share = iqr_share(&v).expect("defined");
    assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), Some(0.0));
    assert_eq!(iqr_share(&[0.0, 0.0]), None);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(beyond(1000, 99.0), 10);
    assert!(supports(1000, 99.0));
    assert_eq!(beyond(999, 99.0), 9);
    assert!(!supports(999, 99.0));
    assert!(supports(20, 50.0));
    assert!(!supports(19, 50.0));
    assert!(!supports(0, 50.0));
}

#[test]
fn highest_supported_percentile_picks_the_largest_allowed() {
    let candidates = [50.0, 90.0, 95.0, 99.0];
    assert_eq!(highest_supported(5000, &candidates), Some(99.0));
    // A few hundred samples (a run's removes) support p95 but not p99.
    assert_eq!(highest_supported(422, &candidates), Some(95.0));
    assert_eq!(highest_supported(150, &candidates), Some(90.0));
    assert_eq!(highest_supported(12, &candidates), None);
}

#[test]
fn percentile_is_nearest_rank_and_refuses_unsupported_tails() {
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), Some(500.0));
    assert_eq!(percentile(&v, 99.0), Some(990.0));
    assert_eq!(percentile(&v[..999], 99.0), None);
    assert_eq!(percentile(&v[..999], 50.0), Some(500.0));
}
