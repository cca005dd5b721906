//! On-disk system checkpoints: pause a run at a cycle boundary, write the
//! complete system image as one versioned JSON document, and resume it in
//! a later process as if the run had never stopped.
//!
//! A checkpoint is the pair the step-workload architecture produces at a
//! pause point (see `vic_workloads::drive`): the kernel's serialized word
//! stream (`vic_os::Kernel::save_state` — machine, pmap, frames, tasks,
//! disks, buffer cache, file system, server, counters) and the workload
//! cursor's word stream (`vic_workloads::Cursor::save_state`, including
//! the driver RNG). Restoring both into a kernel built from the *same*
//! spec and driving to completion yields statistics, JSON output and
//! trace events byte-identical to the uninterrupted run.
//!
//! Schema (`--checkpoint <file>` of the `run` binary); `V` stands for
//! [`ENGINE_VERSION`]:
//!
//! ```json
//! {
//!   "engine_version": V,
//!   "spec": {"workload": "...", "system": "F", "quick": true, ...},
//!   "fast_paths": true,
//!   "cycle": 123456,
//!   "state": "6c656e72656b2d31,2a,0*16,ff3c,...",
//!   "cursor": "63757273726f2d31,1,..."
//! }
//! ```
//!
//! The word streams are encoded as comma-joined lowercase-hex tokens with
//! run-length compression (`value*count` for a repeated word): a memory
//! image is millions of mostly-zero words, which as a JSON array of
//! numbers would be tens of megabytes, while the RLE keeps it compact and
//! hex keeps every bit. Observers ([`vic_machine::Observers`]) are
//! *never* part of a checkpoint — see DESIGN.md "State ownership &
//! serialization".

use std::fmt::Write as _;

use vic_core::serial::{WordReader, WordWriter};
use vic_core::ENGINE_VERSION;
use vic_os::Kernel;
use vic_profile::JsonValue;
use vic_workloads::Cursor;

use crate::cli::{read_file, CliError};
use crate::digest::spec_from_json;
use crate::output::{spec_json, JsonObj};
use crate::spec::SystemSpec;

/// A complete paused system: everything `run --restore` needs.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemCheckpoint {
    /// The spec the paused run was built from (the restore rebuilds its
    /// kernel configuration from this — configuration is not serialized).
    pub spec: SystemSpec,
    /// Whether the engine's host-side fast paths were enabled.
    pub fast_paths: bool,
    /// The simulated cycle count at the pause point (cross-checked
    /// against the restored machine).
    pub cycle: u64,
    /// The kernel's serialized word stream.
    pub state: Vec<u64>,
    /// The workload cursor's serialized word stream.
    pub cursor: Vec<u64>,
}

impl SystemCheckpoint {
    /// Capture the system paused at a step boundary: kernel `k`, built
    /// from `spec`, and the workload's cursor `cur`. The fast-path setting
    /// and the cycle come from the kernel's machine.
    pub fn capture(spec: SystemSpec, k: &Kernel, cur: &Cursor) -> Self {
        let mut w = WordWriter::new();
        k.save_state(&mut w);
        let state = w.into_words();
        let mut w = WordWriter::new();
        cur.save_state(&mut w);
        SystemCheckpoint {
            spec,
            fast_paths: k.machine().config().fast_paths,
            cycle: k.machine().cycles(),
            state,
            cursor: w.into_words(),
        }
    }

    /// Rebuild the paused system: a fresh kernel from the spec with the
    /// kernel state restored into it, and the workload cursor. Driving the
    /// pair on is the rest of the original run. Observers are not part of
    /// a checkpoint; attach fresh ones to the returned kernel.
    ///
    /// # Errors
    ///
    /// A message naming the stream that failed to restore (each must also
    /// be consumed exactly), or a restored clock that disagrees with
    /// `cycle`.
    pub fn resume(&self) -> Result<(Kernel, Cursor), String> {
        let mut cfg = self.spec.kernel_config();
        cfg.machine.fast_paths = self.fast_paths;
        let mut k = Kernel::new(cfg);
        let mut r = WordReader::new(&self.state);
        k.restore_state(&mut r)
            .and_then(|()| r.finish())
            .map_err(|e| format!("corrupt kernel state: {e}"))?;
        let mut r = WordReader::new(&self.cursor);
        let cur = Cursor::restore_state(&mut r)
            .and_then(|c| r.finish().map(|()| c))
            .map_err(|e| format!("corrupt workload cursor: {e}"))?;
        if k.machine().cycles() != self.cycle {
            return Err(format!(
                "checkpoint says cycle {} but the restored machine is at {}",
                self.cycle,
                k.machine().cycles()
            ));
        }
        Ok((k, cur))
    }

    /// Serialize to the versioned JSON document.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .u64("engine_version", ENGINE_VERSION)
            .raw("spec", &spec_json(&self.spec))
            .bool("fast_paths", self.fast_paths)
            .u64("cycle", self.cycle)
            .str("state", &words_to_rle_hex(&self.state))
            .str("cursor", &words_to_rle_hex(&self.cursor))
            .finish()
    }

    /// Parse a checkpoint document, validating the engine version and the
    /// word-stream encoding.
    ///
    /// # Errors
    ///
    /// A message naming the first problem: bad JSON, a missing field, an
    /// engine-version mismatch, an unknown workload/system name, or a
    /// malformed word stream.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = vic_profile::parse_json(text).map_err(|e| format!("bad JSON: {e}"))?;
        let version = doc
            .get("engine_version")
            .and_then(JsonValue::as_u64)
            .ok_or("missing 'engine_version'")?;
        if version != ENGINE_VERSION {
            return Err(format!(
                "engine_version {version} (this build reads {ENGINE_VERSION})"
            ));
        }
        let spec = spec_from_json(doc.get("spec").ok_or("missing 'spec'")?)?;
        let fast_paths = doc
            .get("fast_paths")
            .and_then(JsonValue::as_bool)
            .ok_or("missing or non-boolean 'fast_paths'")?;
        let cycle = doc
            .get("cycle")
            .and_then(JsonValue::as_u64)
            .ok_or("missing or non-integer 'cycle'")?;
        let state = rle_hex_to_words(
            doc.get("state")
                .and_then(JsonValue::as_str)
                .ok_or("missing 'state'")?,
        )
        .map_err(|e| format!("bad 'state' stream: {e}"))?;
        let cursor = rle_hex_to_words(
            doc.get("cursor")
                .and_then(JsonValue::as_str)
                .ok_or("missing 'cursor'")?,
        )
        .map_err(|e| format!("bad 'cursor' stream: {e}"))?;
        Ok(SystemCheckpoint {
            spec,
            fast_paths,
            cycle,
            state,
            cursor,
        })
    }

    /// Read and parse a checkpoint file, mapping every failure (unreadable
    /// path, bad schema, version mismatch, corrupt stream) to a typed
    /// [`CliError`] a binary can print and exit 2 on.
    ///
    /// # Errors
    ///
    /// [`CliError::Io`] naming the path and what is wrong with it.
    pub fn load(path: &str) -> Result<Self, CliError> {
        let text = read_file(path)?;
        SystemCheckpoint::parse(&text).map_err(|err| CliError::Io {
            path: path.to_string(),
            err,
        })
    }
}

/// Encode a word stream as comma-joined lowercase-hex tokens, run-length
/// compressed: a repeated word becomes one `value*count` token. Memory
/// images are mostly zeros, so this keeps checkpoint files small without
/// any external compression dependency.
pub fn words_to_rle_hex(words: &[u64]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < words.len() {
        let v = words[i];
        let mut n = 1usize;
        while i + n < words.len() && words[i + n] == v {
            n += 1;
        }
        if !out.is_empty() {
            out.push(',');
        }
        if n > 1 {
            let _ = write!(out, "{v:x}*{n}");
        } else {
            let _ = write!(out, "{v:x}");
        }
        i += n;
    }
    out
}

/// The most words one decoded stream may hold: 2^24 (128 MiB). A
/// paper-scale kernel image is about 4.35M words, because 16 MB of memory
/// and the oracle's 16 MB shadow pack 8 bytes to a word. A kernel-build
/// paused near its end holds about 4.8M. Full disk and swap would add
/// about 2.1M more. So the cap is more than twice any image a spec
/// writes, and a hostile count fails before it allocates.
pub const MAX_STREAM_WORDS: usize = 1 << 24;

/// Decode a [`words_to_rle_hex`] stream.
///
/// # Errors
///
/// A message naming the offending token: non-hex digits, a zero or
/// malformed repeat count, an empty token, or a count that takes the
/// stream past [`MAX_STREAM_WORDS`].
pub fn rle_hex_to_words(s: &str) -> Result<Vec<u64>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    // Check every token and the running total first, so a hostile count
    // fails before anything is allocated for it.
    let mut runs = Vec::new();
    let mut total = 0usize;
    for tok in s.split(',') {
        let (hex, count) = match tok.split_once('*') {
            Some((hex, n)) => {
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("bad repeat count in token '{tok}'"))?;
                if n == 0 {
                    return Err(format!("zero repeat count in token '{tok}'"));
                }
                (hex, n)
            }
            None => (tok, 1),
        };
        let v = u64::from_str_radix(hex, 16).map_err(|_| format!("bad hex word '{tok}'"))?;
        if count > MAX_STREAM_WORDS - total {
            return Err(format!(
                "token '{tok}' takes the stream past {MAX_STREAM_WORDS} words"
            ));
        }
        total += count;
        runs.push((v, count));
    }
    let mut words = Vec::with_capacity(total);
    for (v, count) in runs {
        words.extend(std::iter::repeat_n(v, count));
    }
    Ok(words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vic_core::policy::Configuration;
    use vic_os::SystemKind;
    use vic_workloads::WorkloadKind;

    #[test]
    fn rle_hex_round_trips() {
        let cases: &[&[u64]] = &[
            &[],
            &[0],
            &[1, 2, 3],
            &[0, 0, 0, 0, 7, 7, u64::MAX, 9],
            &[0xdead_beef; 100],
        ];
        for words in cases {
            let enc = words_to_rle_hex(words);
            assert_eq!(rle_hex_to_words(&enc).unwrap(), *words, "through '{enc}'");
        }
        // Compression actually happens.
        assert_eq!(words_to_rle_hex(&[0; 64]), "0*64");
        assert_eq!(words_to_rle_hex(&[5, 0, 0, 1]), "5,0*2,1");
    }

    #[test]
    fn rle_hex_rejects_garbage() {
        for bad in ["g", "1,,2", "1*0", "1*x", "1*", "*3", ","] {
            assert!(rle_hex_to_words(bad).is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn rle_hex_rejects_counts_past_the_cap_before_allocating() {
        let err = rle_hex_to_words("5,0*100000000000000,7").unwrap_err();
        assert!(err.contains("'0*100000000000000'"), "{err}");
        // The running total counts, not just one token.
        let half = MAX_STREAM_WORDS / 2;
        let err = rle_hex_to_words(&format!("1*{half},2*{half},3")).unwrap_err();
        assert!(err.contains("'3'"), "{err}");
        assert_eq!(rle_hex_to_words("0*1000").unwrap().len(), 1000);
    }

    fn sample() -> SystemCheckpoint {
        let mut spec = SystemSpec::quick(WorkloadKind::Fork, SystemKind::Cmu(Configuration::F));
        spec.write_through = true;
        SystemCheckpoint {
            spec,
            fast_paths: false,
            cycle: 123_456,
            state: vec![1, 2, 2, 2, 0, u64::MAX],
            cursor: vec![9, 0, 0],
        }
    }

    #[test]
    fn checkpoint_json_round_trips() {
        let cp = sample();
        let text = cp.to_json();
        assert!(
            text.starts_with(&format!("{{\"engine_version\":{ENGINE_VERSION},")),
            "{text}"
        );
        assert_eq!(SystemCheckpoint::parse(&text).unwrap(), cp);
    }

    #[test]
    fn checkpoint_parse_rejects_bad_documents() {
        let good = sample().to_json();
        assert!(SystemCheckpoint::parse("not json").is_err());
        assert!(SystemCheckpoint::parse("{}")
            .unwrap_err()
            .contains("engine_version"));
        let wrong = good.replace(
            &format!("\"engine_version\":{ENGINE_VERSION}"),
            "\"engine_version\":99",
        );
        assert!(SystemCheckpoint::parse(&wrong)
            .unwrap_err()
            .contains("engine_version 99"));
        let bad_spec = good.replace("\"workload\":\"fork-bench\"", "\"workload\":\"no-such\"");
        assert!(SystemCheckpoint::parse(&bad_spec)
            .unwrap_err()
            .contains("unknown workload"));
        let bad_state = good.replace("\"state\":\"", "\"state\":\"zz,");
        assert!(SystemCheckpoint::parse(&bad_state)
            .unwrap_err()
            .contains("state"));
        // Truncated file: cut mid-document.
        assert!(SystemCheckpoint::parse(&good[..good.len() / 2]).is_err());
    }

    #[test]
    fn load_maps_failures_to_typed_errors() {
        let err = SystemCheckpoint::load("/nonexistent-dir-for-vic/cp.json").unwrap_err();
        assert!(matches!(err, CliError::Io { .. }));
        let path = std::env::temp_dir().join("vic-bad-checkpoint.json");
        std::fs::write(&path, "{\"engine_version\":99}").unwrap();
        let err = SystemCheckpoint::load(path.to_str().unwrap()).unwrap_err();
        let CliError::Io { err, .. } = err else {
            panic!("expected Io, got {err:?}");
        };
        assert!(err.contains("engine_version 99"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
