//! Per-pass instrumentation: what each pass cost and what it changed.

use std::fmt;
use std::time::Duration;

use qcircuit::CircuitStats;

/// One pass's instrumentation: wall time plus circuit-metric snapshots
/// taken immediately before and after the pass ran. Snapshots are mapped
/// metrics ([`qcircuit::Circuit::mapped_stats`]): on SC targets a SWAP
/// counts as three CNOTs, as in every other count the engine reports.
#[derive(Clone, Debug)]
pub struct PassRecord {
    /// Pass display name.
    pub name: String,
    /// Wall time of the pass.
    pub wall: Duration,
    /// Circuit metrics before the pass (all zeros before synthesis).
    pub before: CircuitStats,
    /// Circuit metrics after the pass.
    pub after: CircuitStats,
    /// Pass-specific one-liner (layer counts, cancellation totals, …).
    pub note: String,
}

fn delta(before: usize, after: usize) -> i64 {
    after as i64 - before as i64
}

impl PassRecord {
    /// Signed CNOT-count change (negative = the pass removed CNOTs).
    pub fn cnot_delta(&self) -> i64 {
        delta(self.before.cnot, self.after.cnot)
    }

    /// Signed single-qubit-gate-count change.
    pub fn single_delta(&self) -> i64 {
        delta(self.before.single, self.after.single)
    }

    /// Signed depth change.
    pub fn depth_delta(&self) -> i64 {
        delta(self.before.depth, self.after.depth)
    }
}

/// The full instrumentation of one compilation: per-pass records, end-to-end
/// wall time, and how the cache treated the request.
#[derive(Clone, Debug, Default)]
pub struct CompileReport {
    /// One record per executed pass, in pipeline order. For a cache hit
    /// these are the records of the original (miss) compilation.
    pub passes: Vec<PassRecord>,
    /// End-to-end wall time of this request (lookup time only on a hit).
    pub total: Duration,
    /// Whether the result was served from the compilation cache (memory
    /// tier, disk tier, or coalesced onto another worker's compile).
    pub cache_hit: bool,
    /// The content-addressed cache key of (IR, pipeline, target). `0` when
    /// the engine runs `without_cache()` — fingerprinting is skipped
    /// entirely so benchmark flows don't pay for hashing they never use.
    pub key: u64,
}

impl CompileReport {
    /// Final mapped circuit metrics (the `after` snapshot of the last
    /// pass) — what `phc` and the wire report print.
    pub fn final_stats(&self) -> CircuitStats {
        self.passes.last().map(|p| p.after).unwrap_or_default()
    }

    /// Renders the per-pass table shown by `phc` and the examples.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>9} {:>9} {:>9} {:>7}  {}\n",
            "pass", "wall(ms)", "ΔCNOT", "Δsingle", "Δdepth", "note"
        ));
        for p in &self.passes {
            out.push_str(&format!(
                "{:<12} {:>9.3} {:>+9} {:>+9} {:>+7}  {}\n",
                p.name,
                p.wall.as_secs_f64() * 1e3,
                p.cnot_delta(),
                p.single_delta(),
                p.depth_delta(),
                p.note
            ));
        }
        let s = self.final_stats();
        out.push_str(&format!(
            "total {:.3} ms{} -> {} CNOT, {} single, depth {} [key {:016x}]\n",
            self.total.as_secs_f64() * 1e3,
            if self.cache_hit { " (cache hit)" } else { "" },
            s.cnot,
            s.single,
            s.depth,
            self.key
        ));
        out
    }
}

impl fmt::Display for CompileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> CompileReport {
        let before = CircuitStats::default();
        let after = CircuitStats {
            cnot: 6,
            single: 11,
            swap: 0,
            total: 17,
            depth: 10,
        };
        CompileReport {
            passes: vec![
                PassRecord {
                    name: "schedule".into(),
                    wall: Duration::from_micros(1500),
                    before,
                    after: before,
                    note: "do -> 2 layers".into(),
                },
                PassRecord {
                    name: "synthesis".into(),
                    wall: Duration::from_micros(250),
                    before,
                    after,
                    note: "3 strings emitted".into(),
                },
            ],
            total: Duration::from_micros(2000),
            cache_hit: false,
            key: 0xdead_beef_0123_4567,
        }
    }

    // Golden rendering: any change to the table layout must be deliberate
    // (phc --report and the examples print this verbatim).
    #[test]
    fn table_renders_the_golden_layout() {
        let expected = "\
pass          wall(ms)     ΔCNOT   Δsingle  Δdepth  note
schedule         1.500        +0        +0      +0  do -> 2 layers
synthesis        0.250        +6       +11     +10  3 strings emitted
total 2.000 ms -> 6 CNOT, 11 single, depth 10 [key deadbeef01234567]
";
        assert_eq!(sample_report().table(), expected);
    }

    #[test]
    fn table_marks_cache_hits_on_the_total_line() {
        let mut report = sample_report();
        report.cache_hit = true;
        assert!(report.table().contains("total 2.000 ms (cache hit) ->"));
    }

    #[test]
    fn final_stats_of_an_empty_pass_list_is_all_zeros() {
        let report = CompileReport::default();
        assert_eq!(report.final_stats(), CircuitStats::default());
        // An empty report still renders: header plus the total line.
        let table = report.table();
        assert_eq!(table.lines().count(), 2);
        assert!(
            table.ends_with("total 0.000 ms -> 0 CNOT, 0 single, depth 0 [key 0000000000000000]\n")
        );
    }
}
