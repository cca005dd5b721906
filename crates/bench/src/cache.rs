//! The on-disk result cache behind `sweep --cache <dir>`.
//!
//! Every run is a pure function of its [`SystemSpec`] and the engine
//! version (locked by the determinism suites), so a result can be kept
//! under [`SystemSpec::digest`], which folds in
//! [`vic_core::ENGINE_VERSION`]. Each spec owns one file,
//! `vic-<digest as 16 hex digits>.json`, holding exactly
//! [`run_json`]`(spec, stats, None)`.
//!
//! A lookup accepts a file only if it parses, names the requested spec and
//! re-emits byte for byte. Anything else (a torn write, a foreign engine
//! version, another spec's document, a hand edit) is deleted and reported
//! as a miss, so the spec is run again: a hit is byte-identical to a fresh
//! run by construction. Concurrent sweeps may share a directory for the
//! same reason: a file caught mid-write fails the check and is re-run.
//!
//! The key moves only when `ENGINE_VERSION` does. After a simulator change
//! that does not bump it, cached results are stale: use a fresh directory.

use std::path::PathBuf;

use vic_metrics::MetricsShard;
use vic_workloads::RunStats;

use crate::cli::CliError;
use crate::output::{run_from_json, run_json};
use crate::spec::SystemSpec;

/// A directory of cached run documents.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Open (creating if needed) the cache directory `dir`, and probe that
    /// it is writable, so a bad path fails before any spec runs.
    ///
    /// # Errors
    ///
    /// [`CliError::Io`] naming `dir` when it cannot be created or written.
    pub fn open(dir: &str) -> Result<Self, CliError> {
        let io_err = |e: std::io::Error| CliError::Io {
            path: dir.to_string(),
            err: e.to_string(),
        };
        std::fs::create_dir_all(dir).map_err(io_err)?;
        let probe = PathBuf::from(dir).join(format!(".vic-probe-{}", std::process::id()));
        std::fs::write(&probe, b"").map_err(io_err)?;
        std::fs::remove_file(&probe).map_err(io_err)?;
        Ok(ResultCache {
            dir: PathBuf::from(dir),
        })
    }

    /// The file holding `spec`'s result.
    fn path_of(&self, spec: &SystemSpec) -> PathBuf {
        self.dir.join(format!("vic-{:016x}.json", spec.digest()))
    }

    /// The cached statistics of `spec`, or `None` on a miss. A file that
    /// fails validation is deleted.
    pub fn lookup(&self, spec: &SystemSpec) -> Option<RunStats> {
        let path = self.path_of(spec);
        let text = std::fs::read_to_string(&path).ok()?;
        match run_from_json(&text) {
            Ok((found, stats)) if found == *spec && run_json(spec, &stats, None) == text => {
                Some(stats)
            }
            _ => {
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Write `spec`'s result.
    ///
    /// # Errors
    ///
    /// [`CliError::Io`] naming the file when the write fails.
    pub fn store(&self, spec: &SystemSpec, stats: &RunStats) -> Result<(), CliError> {
        let path = self.path_of(spec);
        std::fs::write(&path, run_json(spec, stats, None)).map_err(|e| CliError::Io {
            path: path.display().to_string(),
            err: e.to_string(),
        })
    }

    /// `spec`'s statistics: served from the cache when it holds them, else
    /// run and stored. Counts `cache_hits`, `cache_misses` and
    /// `cache_store_errors` in `shard`.
    pub fn run(&self, spec: &SystemSpec, shard: &mut MetricsShard) -> RunStats {
        if let Some(stats) = self.lookup(spec) {
            shard.add("cache_hits", 1);
            return stats;
        }
        shard.add("cache_misses", 1);
        let stats = spec.run();
        if self.store(spec, &stats).is_err() {
            shard.add("cache_store_errors", 1);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vic_core::policy::Configuration;
    use vic_os::SystemKind;
    use vic_workloads::WorkloadKind;

    fn tmp_dir(name: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("vic-cache-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.display().to_string()
    }

    #[test]
    fn open_rejects_unwritable_paths_with_typed_errors() {
        let err = ResultCache::open("/proc/vic-no-such-cache").unwrap_err();
        assert!(
            matches!(&err, CliError::Io { path, .. } if path == "/proc/vic-no-such-cache"),
            "{err:?}"
        );
    }

    #[test]
    fn store_then_lookup_survives_a_reopen() {
        let dir = tmp_dir("hit");
        let spec = SystemSpec::quick(WorkloadKind::Fork, SystemKind::Cmu(Configuration::F));
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.lookup(&spec), None);
        let stats = spec.run();
        cache.store(&spec, &stats).unwrap();
        let reopened = ResultCache::open(&dir).unwrap();
        assert_eq!(reopened.lookup(&spec), Some(stats.clone()));
        assert_eq!(
            std::fs::read_to_string(reopened.path_of(&spec)).unwrap(),
            run_json(&spec, &stats, None)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_files_are_deleted_and_miss() {
        let dir = tmp_dir("invalid");
        let cache = ResultCache::open(&dir).unwrap();
        let spec = SystemSpec::quick(WorkloadKind::Fork, SystemKind::Utah);
        let other = SystemSpec::quick(WorkloadKind::Fork, SystemKind::Tut);
        let good = run_json(&spec, &spec.run(), None);
        let cases = [
            ("torn write", good[..good.len() / 2].to_string()),
            ("another spec", run_json(&other, &other.run(), None)),
            (
                "inconsistent total",
                good.replacen("\"total\":", "\"total\":1", 1),
            ),
            ("deep nesting", "[".repeat(200_000)),
        ];
        for (what, text) in cases {
            std::fs::write(cache.path_of(&spec), text).unwrap();
            assert_eq!(cache.lookup(&spec), None, "{what} must miss");
            assert!(!cache.path_of(&spec).exists(), "{what} must be deleted");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
