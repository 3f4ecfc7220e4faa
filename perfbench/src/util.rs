//! Small helpers: seeded randomness, order statistics, result
//! digests, resident-memory readings and JSON rendering.

use sjos::exec::QueryResult;
use sjos::xml::NodeId;

/// Deterministic 64-bit generator (splitmix64): the whole request
/// stream of a run is a function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Quantile `q` of `values` by linear interpolation between order
/// statistics (0 for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn row_hash(nodes: impl Iterator<Item = NodeId>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for n in nodes {
        for b in n.0.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    // Finalize so that summing row hashes mixes well.
    Rng(h).next_u64()
}

/// Order-independent digest of a result: the wrapping sum of one
/// hash per row, each row taken in pattern-node order (the column
/// order of `canonical_rows()`), so no sort is needed.
pub fn result_digest(result: &QueryResult) -> u64 {
    let mut order: Vec<usize> = (0..result.schema.width()).collect();
    order.sort_by_key(|&i| result.schema.columns()[i]);
    result
        .tuples
        .iter()
        .map(|t| row_hash(order.iter().map(|&i| t[i].node)))
        .fold(0, u64::wrapping_add)
}

/// The same digest over canonical rows (one `NodeId` per pattern
/// node, in node order), as the reference evaluator returns them.
pub fn rows_digest(rows: &[Vec<NodeId>]) -> u64 {
    rows.iter().map(|r| row_hash(r.iter().copied())).fold(0, u64::wrapping_add)
}

/// Reset the kernel's peak-RSS mark to the current RSS, so a later
/// [`peak_rss_mb`] covers only what follows. Returns false where the
/// kernel does not allow it (the mark then covers the whole process).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// A finite JSON number with every digit Rust keeps.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn digests_ignore_row_order() {
        let a = vec![vec![NodeId(1), NodeId(2)], vec![NodeId(3), NodeId(4)]];
        let b = vec![a[1].clone(), a[0].clone()];
        assert_eq!(rows_digest(&a), rows_digest(&b));
        assert_ne!(rows_digest(&a), rows_digest(&a[..1]));
    }

    #[test]
    fn rng_is_reproducible() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(8, 1);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }
}
