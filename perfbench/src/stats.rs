//! Order statistics and the splitmix mixer every seeded input derives from.

/// Linearly interpolated quantile of `values` (`q` in `[0, 1]`); 0 when empty.
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

/// Splitmix64 finalizer. The service derives its lane seeds with the same
/// function, so the shadow lanes can replay a lane's schedule exactly.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Runs `f` at least `min_reps` times and until `min_secs` have passed
/// (at most `max_reps` times), returning each call's wall time in seconds.
pub fn repeat_timed(
    min_reps: usize,
    max_reps: usize,
    min_secs: f64,
    mut f: impl FnMut(),
) -> Vec<f64> {
    let start = std::time::Instant::now();
    let mut out = Vec::new();
    while out.len() < max_reps && (out.len() < min_reps || start.elapsed().as_secs_f64() < min_secs)
    {
        let t = std::time::Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}
