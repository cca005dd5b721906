//! Canonical encoding and content digest of a [`SystemSpec`].
//!
//! Every simulated run is a pure, deterministic function of its spec and
//! the engine version (locked by the determinism suites), so a run result
//! can be memoized under a key derived from nothing but those two values.
//! This module defines that key: a *canonical* word encoding of the spec
//! (stable across processes, hosts and releases that share the encoding)
//! folded to one `u64` by [`vic_core::hash_words`], with
//! [`vic_core::ENGINE_VERSION`] mixed in as the first word so a cache can
//! never serve a result computed by a different engine.
//!
//! The encoding deliberately spells workload and system as their
//! canonical CLI names (the strings `spec_json` emits and `parse_system`/
//! `parse_workload` read back) rather than enum discriminants: reordering
//! a Rust enum cannot silently re-key the cache, and the committed test
//! vectors below pin every byte.
//!
//! The cache-correctness invariant — digest equality implies byte-identical
//! result JSON — is asserted in the tests at the bottom: equal specs give
//! equal digests and byte-identical `run_json`, and every spec in the
//! quick Table-4+5 grids digests to a distinct key.

use vic_core::serial::WordWriter;
use vic_core::{hash_words, ENGINE_VERSION};
use vic_profile::JsonValue;

use crate::cli::{parse_system, parse_workload, system_cli_name};
use crate::spec::SystemSpec;

/// Magic first word of the canonical spec encoding ("VICSPEC1" in ASCII),
/// so a digest can never collide with an encoding of something else.
const SPEC_TAG: u64 = u64::from_le_bytes(*b"VICSPEC1");

impl SystemSpec {
    /// The canonical word encoding of this spec: tag, workload name,
    /// system name, the four boolean knobs. Field order is part
    /// of the format; changing it (or any name) re-keys every cache and
    /// must come with an [`ENGINE_VERSION`] bump.
    pub fn canonical_words(&self) -> Vec<u64> {
        let mut w = WordWriter::new();
        w.tag(SPEC_TAG);
        w.bytes(self.workload.cli_name().as_bytes());
        w.bytes(system_cli_name(self.system).as_bytes());
        w.bool(self.quick);
        w.bool(self.colored_free_lists);
        w.bool(self.write_through);
        w.bool(self.fast_purge);
        w.into_words()
    }

    /// The content-addressed cache key of this spec's result:
    /// `fxhash(ENGINE_VERSION ++ canonical_words)`. Two specs share a
    /// digest only if they describe the same run under the same engine,
    /// in which case their result JSON is byte-identical.
    pub fn digest(&self) -> u64 {
        let mut words = vec![ENGINE_VERSION];
        words.extend(self.canonical_words());
        hash_words(&words)
    }
}

/// Parse a [`spec_json`](crate::output::spec_json) object back to a
/// [`SystemSpec`] — the inverse used by checkpoint files and cached run
/// documents.
///
/// # Errors
///
/// A message naming the missing field or unknown workload/system name.
pub fn spec_from_json(v: &JsonValue) -> Result<SystemSpec, String> {
    let str_field = |key: &str| {
        v.get(key)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("spec: missing '{key}'"))
    };
    let bool_field = |key: &str| {
        v.get(key)
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| format!("spec: missing or non-boolean '{key}'"))
    };
    Ok(SystemSpec {
        workload: parse_workload(str_field("workload")?).map_err(|e| format!("spec: {e}"))?,
        system: parse_system(str_field("system")?).map_err(|e| format!("spec: {e}"))?,
        quick: bool_field("quick")?,
        colored_free_lists: bool_field("colored_free_lists")?,
        write_through: bool_field("write_through")?,
        fast_purge: bool_field("fast_purge")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::{run_json, spec_json};
    use vic_core::policy::Configuration;
    use vic_os::SystemKind;
    use vic_workloads::WorkloadKind;

    /// Committed test vectors: these digests are the on-disk cache keys of
    /// real specs at ENGINE_VERSION 4. If this test fails, the canonical
    /// encoding (or the engine version) changed and every existing result
    /// store is — correctly — invalidated; update the vectors only as part
    /// of an intentional format change.
    #[test]
    fn committed_digest_vectors() {
        let afs_f = SystemSpec::new(WorkloadKind::Afs, SystemKind::Cmu(Configuration::F));
        let afs_f_quick = SystemSpec::quick(WorkloadKind::Afs, SystemKind::Cmu(Configuration::F));
        let fork_utah_quick = SystemSpec::quick(WorkloadKind::Fork, SystemKind::Utah);
        let mut kb_a_wt =
            SystemSpec::new(WorkloadKind::KernelBuild, SystemKind::Cmu(Configuration::A));
        kb_a_wt.write_through = true;
        for (spec, expect) in [
            (afs_f, 0x433c_3408_c4ca_b0eeu64),
            (afs_f_quick, 0xb33d_52aa_ccc6_c5f0u64),
            (fork_utah_quick, 0xa51b_cf3f_5bb6_cc17u64),
            (kb_a_wt, 0x5195_46fd_d3fa_c197u64),
        ] {
            assert_eq!(
                spec.digest(),
                expect,
                "digest of {} drifted (canonical encoding changed?)",
                spec.label()
            );
        }
    }

    #[test]
    fn digest_equality_implies_byte_identical_run_json() {
        // The cache-correctness invariant, in two halves. (a) Equal specs
        // — the only way to share a digest, see the distinctness half —
        // produce byte-identical result JSON, so a cache hit is
        // indistinguishable from a fresh run.
        let a = SystemSpec::quick(WorkloadKind::Fork, SystemKind::Cmu(Configuration::F));
        let b = SystemSpec::quick(WorkloadKind::Fork, SystemKind::Cmu(Configuration::F));
        assert_eq!(a.digest(), b.digest());
        assert_eq!(
            run_json(&a, &a.run(), None),
            run_json(&b, &b.run(), None),
            "same digest, same bytes"
        );

        // (b) Distinctness: across the whole quick Table-4+5 grids plus
        // knob variations, different specs never collide — so "same
        // digest" really does mean "same run".
        let mut specs = SystemSpec::table4_grid(true);
        specs.extend(SystemSpec::table5_grid(true));
        specs.extend(SystemSpec::table4_grid(false));
        for base in SystemSpec::table5_grid(false) {
            let mut v = base;
            v.write_through = true;
            specs.push(v);
            let mut v = base;
            v.colored_free_lists = true;
            specs.push(v);
            let mut v = base;
            v.fast_purge = true;
            specs.push(v);
        }
        let mut seen = std::collections::HashMap::new();
        for s in &specs {
            if let Some(prev) = seen.insert(s.digest(), *s) {
                assert_eq!(prev, *s, "digest collision between distinct specs");
            }
        }
    }

    #[test]
    fn digest_depends_on_every_knob() {
        let base = SystemSpec::quick(WorkloadKind::Afs, SystemKind::Cmu(Configuration::F));
        let d = base.digest();
        let mut v = base;
        v.quick = false;
        assert_ne!(v.digest(), d);
        let mut v = base;
        v.colored_free_lists = true;
        assert_ne!(v.digest(), d);
        let mut v = base;
        v.write_through = true;
        assert_ne!(v.digest(), d);
        let mut v = base;
        v.fast_purge = true;
        assert_ne!(v.digest(), d);
        let mut v = base;
        v.system = SystemKind::Cmu(Configuration::E);
        assert_ne!(v.digest(), d);
        let mut v = base;
        v.workload = WorkloadKind::Latex;
        assert_ne!(v.digest(), d);
    }

    #[test]
    fn spec_json_round_trips_through_spec_from_json() {
        let mut spec = SystemSpec::quick(WorkloadKind::KernelBuild, SystemKind::Tut);
        spec.write_through = true;
        let doc = vic_profile::parse_json(&spec_json(&spec)).unwrap();
        assert_eq!(spec_from_json(&doc).unwrap(), spec);
        // Missing and malformed fields are named.
        let err = spec_from_json(&vic_profile::parse_json("{}").unwrap()).unwrap_err();
        assert!(err.contains("spec: missing"), "{err}");
        let bad = spec_json(&spec).replace("kernel-build", "no-such-bench");
        let err = spec_from_json(&vic_profile::parse_json(&bad).unwrap()).unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
    }
}
