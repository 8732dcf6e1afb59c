//! The result line and the environment record of a run.

use std::fmt::Write as _;
use std::path::Path;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value, unrounded.
    pub value: f64,
    /// Unit (`s`, `ms`, `us`, `MB`, `count`, ...).
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The last stdout line of a run: one JSON object with `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // JSON has no NaN or infinity; a non-finite value is a bug in the
        // metric's arithmetic, reported as -1 rather than as invalid JSON.
        let value = if m.value.is_finite() { m.value } else { -1.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The machine and code a run measured, so later comparisons can tell
/// machine drift from a code change.
#[derive(Debug, Clone)]
pub struct Environment {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Last-level cache size, bytes (0 when unknown).
    pub llc_bytes: u64,
    /// Physical memory, bytes (0 when unknown).
    pub ram_bytes: u64,
    /// Git commit of the checkout, or `none` outside a git checkout.
    pub commit: String,
}

impl Environment {
    /// Probe the machine and the checkout rooted at `root`.
    pub fn probe(root: &Path) -> Environment {
        Environment {
            nproc: nproc(),
            llc_bytes: llc_bytes(),
            ram_bytes: ram_bytes(),
            commit: git_commit(root).unwrap_or_else(|| "none".to_string()),
        }
    }

    /// One human-readable report line.
    pub fn line(&self) -> String {
        format!(
            "env: nproc={} llc_mib={:.1} ram_mib={} commit={}",
            self.nproc,
            self.llc_bytes as f64 / crate::MB,
            self.ram_bytes >> 20,
            self.commit
        )
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_size(text: &str) -> Option<u64> {
    let t = text.trim();
    let (digits, scale) = match t.chars().last()? {
        'K' => (&t[..t.len() - 1], 1u64 << 10),
        'M' => (&t[..t.len() - 1], 1 << 20),
        'G' => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

/// Size of the highest-level cache of CPU 0, bytes (0 when sysfs has no
/// cache description).
fn llc_bytes() -> u64 {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    (0..8)
        .filter_map(|i| {
            let dir = base.join(format!("index{i}"));
            let level: u32 = std::fs::read_to_string(dir.join("level"))
                .ok()?
                .trim()
                .parse()
                .ok()?;
            let size = parse_size(&std::fs::read_to_string(dir.join("size")).ok()?)?;
            Some((level, size))
        })
        .max()
        .map_or(0, |(_, size)| size)
}

fn ram_bytes() -> u64 {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            let line = m.lines().find(|l| l.starts_with("MemTotal:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb << 10)
}

/// The commit `HEAD` names, from `git rev-parse` (`None` when `root` is
/// not itself a git checkout, or without git).
fn git_commit(root: &Path) -> Option<String> {
    if !root.join(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let id = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !id.trim().is_empty()).then(|| id.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_every_metric() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric::new("job_p10_ms", 1.25, "ms"),
                Metric::new("x", f64::NAN, "s"),
            ],
        );
        let v = pim_trace::json::parse(&line).expect("valid JSON");
        let m = v.get("metrics").expect("metrics");
        assert_eq!(
            m.get("job_p10_ms")
                .and_then(|j| j.get("unit"))
                .and_then(|u| u.as_str()),
            Some("ms")
        );
        assert!(m.get("x").is_some());
        assert_eq!(v.get("attempted").and_then(|a| a.as_u64()), Some(3));
    }

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size("307200K\n"), Some(300 << 20));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("x"), None);
    }
}
