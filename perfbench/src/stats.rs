//! Order statistics over timing samples.

/// The `q` quantile (0..=1) of `values`, interpolating linearly between
/// order statistics. Zero for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A figure as the run prints it: name, value and unit.
pub fn figure(name: &str, value: f64, unit: &str) -> String {
    format!("{name} = {value} {unit}")
}

/// The `q` quantile of `values` (ms) as a figure, with its sample count,
/// noting when fewer than ten samples lie beyond it: the least that
/// makes that tail worth reporting.
pub fn tail_figure(name: &str, values: &[f64], q: f64) -> String {
    let n = values.len();
    let note = if (n as f64) * (1.0 - q) >= 10.0 {
        ""
    } else {
        ", fewer than 10 samples beyond it"
    };
    format!(
        "{} (n = {n}{note})",
        figure(name, quantile(values, q), "ms")
    )
}

/// `num / den`, or zero when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
