//! Estimators, host facts and output formats.

use std::fmt::Write as _;
use std::process::Command;

use xenic_sim::Histogram;

use crate::passes::Timed;
use crate::run::{Repeat, SLICES};

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric { name: name.into(), value, unit });
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of
    /// every value.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(out, "  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
        }
        out
    }
}

/// Wall seconds of every slice of every timed repeat.
pub type SliceTable = Vec<[f64; SLICES]>;

/// Σ over slices of the slice's minimum across repeats: every repeat
/// does byte-identical work, so a slice's minimum estimates its
/// undisturbed cost, and a disturbance has to hit the same slice in
/// every repeat to get into the sum.
pub fn slice_min_sum(table: &SliceTable) -> f64 {
    (0..SLICES).map(|s| table.iter().map(|r| r[s]).fold(f64::INFINITY, f64::min)).sum()
}

/// Σ over slices of the slice's median across repeats.
pub fn slice_median_sum(table: &SliceTable) -> f64 {
    (0..SLICES)
        .map(|s| {
            let mut v: Vec<f64> = table.iter().map(|r| r[s]).collect();
            v.sort_by(f64::total_cmp);
            let n = v.len();
            (v[(n - 1) / 2] + v[n / 2]) / 2.0
        })
        .sum()
}

pub fn min_of(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Build, warm-up and slice times of every repeat, tab-separated, with
/// the run's facts (a JSON object's fields) in the first comment line.
pub fn slices_tsv(run_facts: &str, r0: &Repeat, timed: &Timed) -> String {
    let mut out = format!(
        "# {{{run_facts}}}\n# seconds; repeat 0 is untimed and in no estimate\nrepeat\tbuild\twarmup"
    );
    for s in 0..SLICES {
        let _ = write!(out, "\tslice{s}");
    }
    let first = (r0.build_s, r0.warmup_s(), crate::passes::slice_row(r0));
    let rest = (0..timed.slices.len()).map(|i| (timed.build_s[i], timed.warmup_s[i], timed.slices[i]));
    for (i, (build, warmup, slices)) in std::iter::once(first).chain(rest).enumerate() {
        let _ = write!(out, "\n{i}\t{build:.6}\t{warmup:.6}");
        for s in slices {
            let _ = write!(out, "\t{s:.6}");
        }
    }
    out.push('\n');
    out
}

/// Sub-buckets per power of two in `xenic_sim::Histogram`.
const SUB_BUCKETS: u64 = 32;

/// Quantile `q` of `h`, interpolated inside the histogram's bucket.
///
/// `Histogram::quantile` answers with a bucket midpoint, and buckets are
/// 1.5–3 % wide: a distribution that moves by a fraction of a percent
/// either does not show or jumps a whole bucket, which a 2 % bound cannot
/// judge. The public API is enough to do better: `quantile` is monotone
/// in the rank, so bisection finds the ranks at which the bucket begins
/// and ends, and the target rank is placed linearly between the bucket's
/// edges.
pub fn quantile_interpolated(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // `quantile` takes `ceil(q * n)` as the rank; `r - 0.5` lands on `r`
    // whatever the rounding.
    let at = |rank: u64| h.quantile((rank as f64 - 0.5) / n as f64);
    let target = ((q * n as f64).ceil() as u64).clamp(1, n);
    let v = at(target);
    // First rank that answers `v`, and first rank past it.
    let first = bisect(1, target, |r| at(r) >= v);
    let past = bisect(target, n + 1, |r| r > n || at(r) > v);
    // Edges of the log-linear bucket holding `v`.
    let base = 1u64 << (63 - v.max(1).leading_zeros());
    let width = (base / SUB_BUCKETS).max(1);
    let lo = base + (v - base) / width * width;
    let frac = (target - first) as f64 + 0.5;
    (lo as f64 + width as f64 * frac / (past - first) as f64).clamp(h.min() as f64, h.max() as f64)
}

/// Smallest `x` in `lo..=hi` with `pred(x)`; `pred` is monotone and holds
/// at `hi`.
fn bisect(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What one needs to know about the host to read the numbers, as the
/// fields of a JSON object (no braces).
pub fn host_facts() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "\"cores\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"",
        cores(),
        cpu.replace('"', "'"),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
    )
}
