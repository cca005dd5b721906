//! The profile document: the parsed form of a `--bin profile` JSON file.
//!
//! The writer lives in `vic_bench::output` (the same hand-rolled JSON
//! builder every bench artifact uses); this module is the reader side,
//! used by `profile diff` and the CI baseline check. The format, where
//! `V` stands for [`ENGINE_VERSION`]:
//!
//! ```json
//! {
//!   "engine_version": V,
//!   "runs": [
//!     {
//!       "spec": { ... },                  // opaque here; label is the key
//!       "label": "afs-bench @ CMU-F +quick",
//!       "total_cycles": 123456,
//!       "rows": [
//!         {"path": "os:fault.mapping/machine:software", "count": 10, "cycles": 3500},
//!         ...
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! Runs are matched between documents by `label`, which is the spec's
//! canonical one-line description and therefore stable across commits.

use vic_core::ENGINE_VERSION;

use crate::json::{parse_json, JsonValue};
use crate::tree::FlatRow;

/// One profiled run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRun {
    /// The spec's canonical label — the key runs are matched by.
    pub label: String,
    /// Total cycles of the run (equals the sum of row cycles).
    pub total_cycles: u64,
    /// Flattened cost-tree rows, in the tree's deterministic order.
    pub rows: Vec<FlatRow>,
}

/// A parsed profile document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileDoc {
    /// The runs, in file order.
    pub runs: Vec<ProfileRun>,
}

impl ProfileDoc {
    /// Parse a profile JSON document.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first structural problem
    /// (bad JSON, wrong version, missing fields).
    pub fn parse(text: &str) -> Result<ProfileDoc, String> {
        let v = parse_json(text).map_err(|e| e.to_string())?;
        let version = v
            .get("engine_version")
            .and_then(JsonValue::as_u64)
            .ok_or("missing 'engine_version'")?;
        if version != ENGINE_VERSION {
            return Err(format!(
                "unsupported engine_version {version} (this tool reads {ENGINE_VERSION})"
            ));
        }
        let runs_json = v
            .get("runs")
            .and_then(JsonValue::as_arr)
            .ok_or("missing 'runs' array")?;
        let mut runs = Vec::with_capacity(runs_json.len());
        for (i, run) in runs_json.iter().enumerate() {
            runs.push(parse_run(run).map_err(|e| format!("runs[{i}]: {e}"))?);
        }
        Ok(ProfileDoc { runs })
    }

    /// The run with the given label, if present.
    pub fn run(&self, label: &str) -> Option<&ProfileRun> {
        self.runs.iter().find(|r| r.label == label)
    }
}

fn parse_run(v: &JsonValue) -> Result<ProfileRun, String> {
    let label = v
        .get("label")
        .and_then(JsonValue::as_str)
        .ok_or("missing 'label'")?
        .to_string();
    let total_cycles = v
        .get("total_cycles")
        .and_then(JsonValue::as_u64)
        .ok_or("missing 'total_cycles'")?;
    let rows_json = v
        .get("rows")
        .and_then(JsonValue::as_arr)
        .ok_or("missing 'rows' array")?;
    let mut rows = Vec::with_capacity(rows_json.len());
    for (i, row) in rows_json.iter().enumerate() {
        let path = row
            .get("path")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("rows[{i}]: missing 'path'"))?
            .to_string();
        let count = row
            .get("count")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("rows[{i}]: missing 'count'"))?;
        let cycles = row
            .get("cycles")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("rows[{i}]: missing 'cycles'"))?;
        rows.push(FlatRow {
            path,
            count,
            cycles,
        });
    }
    // A document whose rows disagree with its stated total is corrupt;
    // catching it here keeps diff arithmetic trustworthy.
    let sum: u64 = rows.iter().map(|r| r.cycles).sum();
    if sum != total_cycles {
        return Err(format!(
            "row cycles sum to {sum} but total_cycles says {total_cycles}"
        ));
    }
    Ok(ProfileRun {
        label,
        total_cycles,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        r#"{
          "engine_version": VERSION,
          "runs": [
            {
              "spec": {"workload": "fork-bench", "system": "F"},
              "label": "fork-bench @ CMU-F +quick",
              "total_cycles": 360,
              "rows": [
                {"path": "machine:load.hit", "count": 10, "cycles": 10},
                {"path": "os:fault.mapping/machine:software", "count": 1, "cycles": 350}
              ]
            }
          ]
        }"#
        .replace("VERSION", &ENGINE_VERSION.to_string())
    }

    #[test]
    fn parses_and_indexes() {
        let doc = ProfileDoc::parse(&sample()).unwrap();
        assert_eq!(doc.runs.len(), 1);
        let run = doc.run("fork-bench @ CMU-F +quick").unwrap();
        assert_eq!(run.total_cycles, 360);
        assert_eq!(run.rows.len(), 2);
        assert_eq!(run.rows[1].cycles, 350);
        assert!(doc.run("nope").is_none());
    }

    #[test]
    fn rejects_bad_documents() {
        assert!(ProfileDoc::parse("not json").is_err());
        assert!(ProfileDoc::parse("{}")
            .unwrap_err()
            .contains("engine_version"));
        assert!(ProfileDoc::parse(r#"{"engine_version": 99, "runs": []}"#)
            .unwrap_err()
            .contains("unsupported"));
        assert!(
            ProfileDoc::parse(&format!("{{\"engine_version\": {ENGINE_VERSION}}}"))
                .unwrap_err()
                .contains("runs")
        );
        // Total that disagrees with its rows.
        let bad = sample().replace("\"total_cycles\": 360", "\"total_cycles\": 999");
        assert!(ProfileDoc::parse(&bad).unwrap_err().contains("sum"));
    }

    #[test]
    fn empty_runs_ok() {
        let doc = ProfileDoc::parse(&format!(
            "{{\"engine_version\": {ENGINE_VERSION}, \"runs\": []}}"
        ))
        .unwrap();
        assert!(doc.runs.is_empty());
    }
}
