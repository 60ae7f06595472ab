//! The `metrics.json` document.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::counters::CounterSnapshot;
use crate::timing::PhaseSpan;

/// Schema identifier written into every metrics document, bumped on
/// incompatible changes so downstream diff tooling can refuse mixed
/// comparisons.
pub const METRICS_SCHEMA: &str = "df-metrics-v1";

/// The campaign metrics document (`dfz --metrics-out`, `BENCH_*.json`).
///
/// This is the machine-readable counterpart of the paper's Table 1 row:
/// campaign counters, per-phase wall-clock spans, and free-form extra
/// gauges (reproduction probability, iGoodlock join statistics, ...).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Schema identifier ([`METRICS_SCHEMA`]).
    pub schema: String,
    /// The program / benchmark the campaign ran on.
    pub program: String,
    /// Campaign counters.
    pub counters: CounterSnapshot,
    /// Aggregated wall-clock spans, sorted by name.
    pub phases: Vec<PhaseSpan>,
    /// Free-form extra gauges, sorted by name.
    pub extra: BTreeMap<String, f64>,
}

impl Metrics {
    /// Creates an empty document for `program` with the current schema.
    pub fn new(program: &str) -> Self {
        Metrics {
            schema: METRICS_SCHEMA.to_string(),
            program: program.to_string(),
            ..Metrics::default()
        }
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("Metrics serializes")
    }

    /// Parses a document, checking the schema identifier.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let m: Metrics = serde_json::from_str(json).map_err(|e| e.to_string())?;
        if m.schema != METRICS_SCHEMA {
            return Err(format!(
                "schema mismatch: expected {METRICS_SCHEMA}, got {}",
                m.schema
            ));
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let mut m = Metrics::new("figure1");
        m.counters.acquires_observed = 4;
        m.phases.push(PhaseSpan {
            name: "phase1".into(),
            micros: 120,
            count: 1,
        });
        m.extra.insert("probability".into(), 0.95);
        let back = Metrics::from_json(&m.to_json_pretty()).unwrap();
        assert_eq!(m, back);
    }

    /// A `df-metrics-v1` document from before the parallel Phase I join
    /// was removed still carries `join_tasks_executed` and
    /// `join_steal_waits`; unknown counters are skipped, not rejected.
    #[test]
    fn v1_document_with_retired_join_counters_still_parses() {
        let json = r#"{
  "schema": "df-metrics-v1",
  "program": "figure1",
  "counters": {
    "acquires_observed": 8,
    "dependency_edges": 2,
    "cycles_found": 1,
    "threads_paused": 2,
    "thrash_events": 0,
    "yields_taken": 14,
    "trial_retries": 0,
    "faults_injected": 0,
    "join_candidates_examined": 4,
    "join_chains_built": 3,
    "join_tasks_executed": 5,
    "join_steal_waits": 1,
    "events_streamed": 0,
    "wfg_edges": 0,
    "wfg_cycles_detected": 0,
    "lock_timeouts": 0,
    "poisoned_recovered": 0,
    "spill_backpressure_waits": 0,
    "cycles_pruned_infeasible": 0,
    "trials_saved": 0,
    "peak_trace_bytes": 2272
  },
  "phases": [
    {
      "name": "phase1",
      "micros": 10040,
      "count": 1
    }
  ],
  "extra": {
    "potential_cycles": 1.0
  }
}"#;
        let m = Metrics::from_json(json).expect("old v1 document parses");
        assert_eq!(m.program, "figure1");
        assert_eq!(m.counters.acquires_observed, 8);
        assert_eq!(m.counters.join_chains_built, 3);
        assert_eq!(m.counters.events_streamed, 0);
        assert_eq!(m.counters.peak_trace_bytes, 2272);
        assert_eq!(m.phases.len(), 1);
        assert_eq!(m.extra["potential_cycles"], 1.0);
        let rewritten = m.to_json_pretty();
        assert!(!rewritten.contains("join_tasks_executed"), "{rewritten}");
        assert!(!rewritten.contains("join_steal_waits"), "{rewritten}");
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut m = Metrics::new("figure1");
        m.schema = "df-metrics-v0".into();
        let err = Metrics::from_json(&serde_json::to_string(&m).unwrap()).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }
}
