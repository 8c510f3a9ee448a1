//! Order statistics, the sample-count rule and the span-closure check.

/// Nearest-rank percentile of `values` (`p` in `[0, 1]`); `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (the mean of the middle two for an even count); `NaN` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `p` percentile of samples in arrival order, robust to a slow
/// stretch of the run: the samples are cut into the most consecutive
/// chunks that each still support `p` ([`samples_needed`]), and the
/// median of the chunks' percentiles is returned.
pub fn chunked_percentile(samples: &[f64], p: f64) -> f64 {
    let chunks = (samples.len() / samples_needed(p)).max(1);
    let size = samples.len() / chunks;
    let per_chunk: Vec<f64> = (0..chunks)
        .map(|i| {
            let end = if i + 1 == chunks {
                samples.len()
            } else {
                (i + 1) * size
            };
            percentile(&samples[i * size..end], p)
        })
        .collect();
    median(&per_chunk)
}

/// Samples a timing needs before its `p` percentile is reported: at least
/// ten samples must lie beyond it (200 for p95).
pub fn samples_needed(p: f64) -> usize {
    (10.0 / (1.0 - p)).round() as usize
}

/// Tolerance of the closure check: a request's layer spans must sum to
/// its measured latency within this share.
pub const CLOSURE_TOL: f64 = 0.10;

/// Share of a request's latency its layer spans account for.
pub fn closure(span_sum_ms: f64, latency_ms: f64) -> f64 {
    span_sum_ms / latency_ms
}

/// Whether a closure ratio is within [`CLOSURE_TOL`] of 1.
pub fn closes(ratio: f64) -> bool {
    (ratio - 1.0).abs() <= CLOSURE_TOL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(median(&v), 100.5);
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        // Ten samples lie beyond the p95 of 200.
        assert_eq!(v.iter().filter(|&&x| x > 190.0).count(), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[5.0], 0.95), 5.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn chunked_percentile_outvotes_one_slow_stretch() {
        // 600 samples: three chunks of 200; the middle one ran slow.
        let mut v: Vec<f64> = (0..600).map(|i| f64::from(i % 200)).collect();
        for x in &mut v[200..400] {
            *x *= 3.0;
        }
        assert_eq!(percentile(&v, 0.95), 507.0);
        assert_eq!(chunked_percentile(&v, 0.95), 189.0);
        // Under 400 samples there is one chunk: the plain percentile.
        assert_eq!(
            chunked_percentile(&v[..399], 0.95),
            percentile(&v[..399], 0.95)
        );
    }

    #[test]
    fn sample_count_rule() {
        assert_eq!(samples_needed(0.95), 200);
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(samples_needed(0.99), 1000);
    }

    #[test]
    fn closure_arithmetic() {
        // Spans 1 + 2 + 6.5 ms against a 10 ms latency: 95 % accounted.
        let r = closure(1.0 + 2.0 + 6.5, 10.0);
        assert!((r - 0.95).abs() < 1e-12);
        assert!(closes(r));
        assert!(closes(closure(10.9, 10.0)));
        assert!(!closes(closure(8.5, 10.0)));
        assert!(!closes(closure(11.5, 10.0)));
    }
}
