//! Order statistics, process counters read from `/proc`, and the run record.

use std::time::Duration;

/// Median of `values` (mean of the middle pair for an even count); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` (0–100) of `values`; 0 for an empty
/// slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// User plus system CPU time this process has consumed
/// (`utime + stime` from `/proc/self/stat`).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces, so fields are counted after its
    // closing parenthesis: state is field 3, utime and stime are 14 and 15.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i).and_then(|f| f.parse::<u64>().ok()))
        .sum();
    Duration::from_secs_f64(ticks as f64 / USER_HZ)
}

/// The kernel's `USER_HZ`: Linux reports `/proc` CPU times in these ticks
/// and fixes the value at 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// Time the hypervisor stole from this machine's CPUs so far, averaged over
/// the CPUs (the `steal` column of `/proc/stat`): how much wall time a phase
/// that keeps every CPU busy lost to other tenants.
pub fn stolen_per_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .find_map(|line| line.strip_prefix("cpu "))
        .and_then(|rest| rest.split_whitespace().nth(7))
        .and_then(|f| f.parse::<u64>().ok())
        .unwrap_or(0);
    let cpus = stat
        .lines()
        .filter(|line| line.starts_with("cpu") && !line.starts_with("cpu "))
        .count()
        .max(1);
    Duration::from_secs_f64(ticks as f64 / USER_HZ / cpus as f64)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Reset `VmHWM` so the next peak is the next repetition's own: hand the
/// memory earlier repetitions and workloads freed back to the kernel, then
/// reset the mark to the current RSS.
pub fn reset_peak_rss() {
    extern "C" {
        /// glibc: release free heap memory to the kernel.
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes a plain integer, touches only the
    // allocator's free lists, and is thread-safe.
    unsafe {
        malloc_trim(0);
    }
    // Writing 5 to clear_refs resets the peak RSS mark (Linux >= 4.0).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Machine and build facts recorded with every result.
pub struct RunRecord {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub commit: String,
}

impl RunRecord {
    pub fn collect() -> RunRecord {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .unwrap_or_default()
            .lines()
            .find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        RunRecord {
            nproc: mufuzz::default_workers(),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"run\": {{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}}}}}",
            self.nproc,
            json_string(&self.cpu_model),
            json_string(self.rustc),
            json_string(&self.commit)
        )
    }
}

/// The checked-out commit, read from `.git` in the working directory (a
/// plain checkout without `.git` has none).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|line| {
            let (id, name) = line.split_once(' ')?;
            (name == reference).then(|| id.to_string())
        })
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
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
    fn percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 100.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
