//! What every workload shares: the command line, the per-run state
//! directory, the timing loop and the end-to-end metrics.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::report::{ratio, Metric};
use crate::stats::{median, percentile, secs, tail};

/// Set-ups timed in each of the two set-up windows: at least this
/// many...
const SETUPS_MIN: usize = 30;
/// ...and at least this much set-up time.
const SETUPS_WINDOW_S: f64 = 0.25;

/// Time set-ups for one window, handing each result to `discard`.
///
/// A set-up takes milliseconds, and on a shared host it runs in a fast
/// or a slow state for stretches of a fraction of a second to several
/// seconds: medians of 30 consecutive MFEM set-ups switched between
/// about 1.7 and 2.7 ms on either CPU. Each run therefore times one
/// window before its first unit and one after its last, tens of seconds
/// apart, so the run's median mixes more than one stretch.
pub fn setup_window<T>(
    setups: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(), String> {
    let from = setups.len();
    while setups.len() - from < SETUPS_MIN || setups[from..].iter().sum::<f64>() < SETUPS_WINDOW_S {
        let value = timed(setups, &mut setup)?;
        discard(value)?;
    }
    Ok(())
}

/// The benchmark's command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
            match flag.as_str() {
                "--workload" => parsed.workload = value.clone(),
                "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        if parsed.workload.is_empty() {
            return Err("--workload is required".to_string());
        }
        if !parsed.seconds.is_finite() || parsed.seconds <= 0.0 {
            return Err("--seconds must be a positive number".to_string());
        }
        Ok(parsed)
    }
}

/// A per-run state directory under `.bench_state/`, on the same disk as
/// the checkout. It must not exist yet (so no run replays another's
/// journals) and is removed, with everything in it, when dropped.
pub struct StateDir {
    path: PathBuf,
    subs: std::cell::Cell<usize>,
}

impl StateDir {
    /// Create a fresh, empty directory for `workload`.
    pub fn fresh(workload: &str) -> std::io::Result<StateDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = PathBuf::from(".bench_state")
            .join(format!("{workload}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(path.parent().expect("state dirs have a parent"))?;
        std::fs::create_dir(&path)?;
        assert_empty(&path)?;
        Ok(StateDir {
            path,
            subs: std::cell::Cell::new(0),
        })
    }

    /// A new empty subdirectory, for one set-up or unit of work.
    pub fn sub(&self) -> std::io::Result<PathBuf> {
        let n = self.subs.get();
        self.subs.set(n + 1);
        let path = self.path.join(n.to_string());
        std::fs::create_dir(&path)?;
        assert_empty(&path)?;
        Ok(path)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn assert_empty(dir: &Path) -> std::io::Result<()> {
    if std::fs::read_dir(dir)?.next().is_some() {
        return Err(std::io::Error::other(format!(
            "state directory {} is not empty",
            dir.display()
        )));
    }
    Ok(())
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Only succeeds once no other run's directory is left.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Run units of work until the next one, taking as long as the last,
/// would end after `seconds`; always at least one. `unit` returns
/// `false` to stop early (after a failure).
pub fn for_seconds(seconds: f64, mut unit: impl FnMut(usize) -> bool) {
    let start = Instant::now();
    for i in 0.. {
        let t = Instant::now();
        if !unit(i) {
            break;
        }
        if secs(start.elapsed()) + secs(t.elapsed()) > seconds {
            break;
        }
    }
}

/// Time one set-up and keep its duration.
pub fn timed<T>(setups: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    setups.push(secs(t.elapsed()));
    out
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The raw timings of an end-to-end run.
#[derive(Debug, Default)]
pub struct Timings {
    /// Set-up durations (s).
    pub setups: Vec<f64>,
    /// Primary pass durations (s).
    pub passes: Vec<f64>,
    /// Operation latencies (s).
    pub ops: Vec<f64>,
    /// Wall time over which `ops` completed (s).
    pub ops_wall: f64,
}

/// The end-to-end metrics every workload reports. `pass` and `op` say
/// what a pass and an operation are on this workload.
pub fn end_to_end(t: &Timings, pass: &str, op: &str) -> Vec<Metric> {
    let ops_ms: Vec<f64> = t.ops.iter().map(|s| s * 1e3).collect();
    let (tail_ms, label) = tail(&ops_ms);
    vec![
        Metric::new(
            "setup_s",
            "s",
            median(&t.setups),
            format!("median of {} set-ups", t.setups.len()),
        ),
        Metric::new(
            "pass_s",
            "s",
            median(&t.passes),
            format!(
                "{pass}, median of n={} (min {:.3}, max {:.3})",
                t.passes.len(),
                percentile(&t.passes, 0.0),
                percentile(&t.passes, 100.0)
            ),
        ),
        Metric::new(
            "op_p50_ms",
            "ms",
            median(&ops_ms),
            format!("{op}, p50 of n={}", ops_ms.len()),
        ),
        Metric::new(
            "op_tail_ms",
            "ms",
            tail_ms,
            format!("{op}, {label} of n={}", ops_ms.len()),
        ),
        Metric::new(
            "ops_per_s",
            "1/s",
            ratio(t.ops.len() as f64, t.ops_wall),
            format!("{} x {op} in {:.3} s", t.ops.len(), t.ops_wall),
        ),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb(), "VmHWM of this process"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::valid_name;

    fn args(v: &[&str]) -> Result<Args, String> {
        Args::parse(&v.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "serve-fleet",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(
            a,
            Args {
                workload: "serve-fleet".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(args(&["--seed", "7"]).is_err());
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--bogus", "1"]).is_err());
    }

    #[test]
    fn every_end_to_end_name_is_valid() {
        for m in end_to_end(&Timings::default(), "", "") {
            assert!(valid_name(m.name), "{}", m.name);
        }
    }

    #[test]
    fn for_seconds_runs_at_least_once_and_stops_on_failure() {
        let mut n = 0;
        for_seconds(0.0, |_| {
            n += 1;
            true
        });
        assert_eq!(n, 1);
        let mut n = 0;
        for_seconds(1e9, |i| {
            n += 1;
            i < 2
        });
        assert_eq!(n, 3);
    }

    #[test]
    fn state_dirs_are_fresh_and_removed() {
        let a = StateDir::fresh("unit-test").expect("creates");
        let b = StateDir::fresh("unit-test").expect("creates");
        assert_ne!(a.path(), b.path());
        let sub = a.sub().expect("sub dir");
        assert_ne!(sub, a.sub().expect("second sub dir"));
        std::fs::write(sub.join("f"), b"x").expect("write");
        let path = a.path().to_path_buf();
        drop(a);
        assert!(!path.exists());
        drop(b);
    }
}
