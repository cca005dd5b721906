//! A rate-limited stderr progress/ETA reporter for long fleets.
//!
//! Workers call [`ProgressReporter::tick`] after each completed unit;
//! the reporter prints at most one line per interval (default 200 ms)
//! and is silent when stderr is not a terminal (so redirected CI logs
//! and piped output stay clean) unless explicitly forced. All methods
//! take `&self` — the reporter is shared across sweep workers by
//! reference.

use std::io::{IsTerminal, Write};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Shared progress state for one fleet of units of work.
#[derive(Debug)]
pub struct ProgressReporter {
    label: String,
    total: u64,
    enabled: bool,
    min_interval: Duration,
    started: Instant,
    last_print: Mutex<Option<Instant>>,
}

impl ProgressReporter {
    /// A reporter for `total` units that prints to stderr only when
    /// stderr is a terminal.
    pub fn stderr(label: &str, total: u64) -> Self {
        Self::with_enabled(label, total, std::io::stderr().is_terminal())
    }

    /// A reporter that always prints (used by tests and `--progress`
    /// runs that explicitly want output in a log).
    pub fn forced(label: &str, total: u64) -> Self {
        Self::with_enabled(label, total, true)
    }

    /// A reporter that never prints.
    pub fn disabled() -> Self {
        Self::with_enabled("", 0, false)
    }

    fn with_enabled(label: &str, total: u64, enabled: bool) -> Self {
        ProgressReporter {
            label: label.to_string(),
            total,
            enabled,
            min_interval: Duration::from_millis(200),
            started: Instant::now(),
            last_print: Mutex::new(None),
        }
    }

    /// Whether this reporter will ever print.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Report `done` completed units. Prints a progress/ETA line if the
    /// rate limit allows; otherwise a no-op.
    pub fn tick(&self, done: u64) {
        if !self.enabled {
            return;
        }
        {
            let mut last = self.last_print.lock().expect("progress lock poisoned");
            match *last {
                Some(t) if t.elapsed() < self.min_interval && done < self.total => return,
                _ => *last = Some(Instant::now()),
            }
        }
        eprintln!("{}", self.line(done, self.started.elapsed()));
        let _ = std::io::stderr().flush();
    }

    /// Report completion unconditionally (still subject to `enabled`).
    pub fn finish(&self) {
        if !self.enabled {
            return;
        }
        eprintln!("{}", self.line(self.total, self.started.elapsed()));
    }

    /// The formatted progress line for `done` units after `elapsed`.
    /// Exposed for tests; `tick`/`finish` print exactly this.
    pub fn line(&self, done: u64, elapsed: Duration) -> String {
        let done = done.min(self.total);
        let pct = if self.total == 0 {
            100.0
        } else {
            100.0 * done as f64 / self.total as f64
        };
        let eta = if done == 0 || done >= self.total {
            String::from("--")
        } else {
            let per_unit = elapsed.as_secs_f64() / done as f64;
            format!("{:.1}s", per_unit * (self.total - done) as f64)
        };
        format!(
            "{}: {}/{} ({:.0}%) in {:.1}s, ETA {}",
            self.label,
            done,
            self.total,
            pct,
            elapsed.as_secs_f64(),
            eta
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_formats_progress_and_eta() {
        let p = ProgressReporter::forced("sweep", 10);
        let l = p.line(5, Duration::from_secs(10));
        assert_eq!(l, "sweep: 5/10 (50%) in 10.0s, ETA 10.0s");
        let l = p.line(0, Duration::from_secs(1));
        assert!(l.contains("ETA --"), "{l}");
        let l = p.line(10, Duration::from_secs(2));
        assert!(l.contains("10/10 (100%)"), "{l}");
        assert!(l.contains("ETA --"), "{l}");
    }

    #[test]
    fn done_clamps_to_total() {
        let p = ProgressReporter::forced("x", 3);
        assert!(
            p.line(7, Duration::ZERO).contains("3/3"),
            "over-reports clamp"
        );
    }

    #[test]
    fn disabled_reporter_never_prints() {
        let p = ProgressReporter::disabled();
        assert!(!p.is_enabled());
        p.tick(1); // must not panic or print
        p.finish();
    }

    #[test]
    fn rate_limit_suppresses_back_to_back_ticks() {
        let p = ProgressReporter::forced("x", 1000);
        // First tick prints (sets the stamp); immediate second tick is
        // inside the interval and returns early. We can only assert the
        // stamp behaviour, not capture stderr, so check the lock state.
        p.tick(1);
        let first = p.last_print.lock().unwrap().expect("stamp set");
        p.tick(2);
        let second = p.last_print.lock().unwrap().expect("stamp kept");
        assert_eq!(first, second, "second tick inside the interval is silent");
    }
}
