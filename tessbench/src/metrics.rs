//! The benchmark's metric vocabulary: every end-to-end and per-layer
//! metric, its unit, which way is better, whether it must repeat
//! exactly for a given seed, and — for each per-layer metric — the
//! end-to-end metric it should move and on which workload.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! tests below keep the two in step. Its schema has no room for the
//! map or the exactness marks, so they live here.
//!
//! Every run reports every end-to-end metric (with `--trace 0`) or every
//! per-layer metric (with `--trace 1`), so the end-to-end metrics are
//! defined on all four workloads:
//!
//! | metric | grade_large | atpg_flow | repair_plan | serve_mixed |
//! |---|---|---|---|---|
//! | `setup_s` | parse + levelize | parse + levelize | parse + levelize | daemon start, loads, first builds |
//! | `op_p50_ms` | one grading pass | one `generate_tests` | `repair` on a block of 32 designs, 2 at a time | one client round of 5 requests |
//! | `work_per_s` | fault·patterns/s | faults/s | candidates ranked/s | requests/s |
//! | `fault_coverage` | detected classes | ATPG coverage | repaired coverage | fault-sim coverage |
//! | `peak_rss_mb` | process peak | process peak | process peak | process peak |
//!
//! Operation failures are not a metric (a metric may never read 0):
//! they are the `attempted`/`failed` fields of every result line.

/// One end-to-end metric. `better`, `bound` and `exact` are read by the
/// tests that keep `BENCHMARK.json` in step, and by whoever compares
/// two commits.
#[allow(dead_code)]
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Repeats exactly for a given seed; compare exactly, not within
    /// `bound`.
    pub exact: bool,
}

/// One per-layer metric (`better`, `exact` and `moves`: as for
/// [`EndToEnd`]).
#[allow(dead_code)]
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub exact: bool,
    /// `(end-to-end metric, workload)` pairs this metric should move.
    pub moves: &'static [(&'static str, &'static str)],
}

pub const WORKLOADS: [&str; 4] = ["grade_large", "atpg_flow", "repair_plan", "serve_mixed"];

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "fault_coverage",
        unit: "ratio",
        better: "higher",
        bound: 0.15,
        exact: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
        exact: false,
    },
];

const SETUP_ALL: &[(&str, &str)] = &[
    ("setup_s", "grade_large"),
    ("setup_s", "atpg_flow"),
    ("setup_s", "repair_plan"),
    ("setup_s", "serve_mixed"),
];
const OP_ALL: &[(&str, &str)] = &[
    ("op_p50_ms", "grade_large"),
    ("op_p50_ms", "atpg_flow"),
    ("op_p50_ms", "repair_plan"),
    ("op_p50_ms", "serve_mixed"),
];
const GRADE: &[(&str, &str)] = &[("work_per_s", "grade_large"), ("op_p50_ms", "grade_large")];
const ATPG: &[(&str, &str)] = &[("op_p50_ms", "atpg_flow")];
const ATPG_QUALITY: &[(&str, &str)] = &[("fault_coverage", "atpg_flow")];
const IMPLIC: &[(&str, &str)] = &[
    ("op_p50_ms", "repair_plan"),
    ("op_p50_ms", "serve_mixed"),
    ("op_p50_ms", "atpg_flow"),
];
const LINT: &[(&str, &str)] = &[("op_p50_ms", "repair_plan"), ("op_p50_ms", "serve_mixed")];
const REPAIR: &[(&str, &str)] = &[("op_p50_ms", "repair_plan"), ("work_per_s", "repair_plan")];
const REPAIR_QUALITY: &[(&str, &str)] = &[
    ("op_p50_ms", "repair_plan"),
    ("fault_coverage", "repair_plan"),
];
const SERVE_LAT: &[(&str, &str)] = &[("op_p50_ms", "serve_mixed")];
const SERVE_RATE: &[(&str, &str)] = &[("work_per_s", "serve_mixed")];

macro_rules! layer {
    ($name:literal, $unit:literal, $better:literal, $exact:literal, $moves:expr) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: $better,
            exact: $exact,
            moves: $moves,
        }
    };
}

/// Time metrics are mean seconds (or ms/µs) per traced operation; count
/// metrics are totals over one pass through the workload's designs.
pub const PER_LAYER: &[PerLayer] = &[
    layer!("netlist.parse_s", "s", "lower", false, SETUP_ALL),
    layer!("netlist.levelize_s", "s", "lower", false, SETUP_ALL),
    layer!(
        "netlist.bytes_per_gate",
        "B",
        "lower",
        true,
        &[("peak_rss_mb", "grade_large")]
    ),
    layer!("fault.collapse_s", "s", "lower", false, GRADE),
    layer!("fault.classes", "count", "lower", true, GRADE),
    layer!("fault.ppsfp_build_s", "s", "lower", false, GRADE),
    layer!("fault.ppsfp_sweep_s", "s", "lower", false, GRADE),
    layer!("fault.ppsfp_chunks", "count", "lower", true, GRADE),
    layer!("fault.ppsfp_s_per_chunk", "s", "lower", false, GRADE),
    layer!("fault.detect_ratio", "ratio", "higher", true, GRADE),
    layer!("implic.learn_s", "s", "lower", false, IMPLIC),
    layer!("implic.learned_edges", "count", "higher", true, IMPLIC),
    layer!("atpg.driver_build_s", "s", "lower", false, ATPG),
    layer!("atpg.random_s", "s", "lower", false, ATPG),
    layer!("atpg.deterministic_s", "s", "lower", false, ATPG),
    layer!("atpg.compact_s", "s", "lower", false, ATPG),
    layer!("atpg.attempts", "count", "lower", true, ATPG),
    layer!("atpg.backtracks", "count", "lower", true, ATPG),
    layer!("atpg.forward_evals", "count", "lower", true, ATPG),
    layer!("atpg.us_per_forward_eval", "us", "lower", false, ATPG),
    layer!("atpg.worker_imbalance", "ratio", "lower", true, ATPG),
    layer!("atpg.aborted", "count", "lower", true, ATPG_QUALITY),
    layer!("atpg.abort_ratio", "ratio", "lower", true, ATPG_QUALITY),
    layer!("atpg.cubes", "count", "lower", true, ATPG),
    layer!("atpg.patterns", "count", "lower", true, ATPG),
    layer!("lint.run_s", "s", "lower", false, LINT),
    layer!("lint.diagnostics", "count", "lower", true, LINT),
    layer!("repair.baseline_s", "s", "lower", false, REPAIR),
    layer!("repair.expand_s", "s", "lower", false, REPAIR),
    layer!("repair.rank_s", "s", "lower", false, REPAIR),
    layer!("repair.rank_ms_per_candidate", "ms", "lower", false, REPAIR),
    layer!("repair.verify_s", "s", "lower", false, REPAIR),
    layer!("repair.rounds", "count", "lower", true, REPAIR),
    layer!("repair.expanded", "count", "lower", true, REPAIR),
    layer!("repair.pruned", "count", "higher", true, REPAIR),
    layer!("repair.verified", "count", "lower", true, REPAIR),
    layer!("repair.accepted", "count", "higher", true, REPAIR_QUALITY),
    layer!("repair.accept_ratio", "ratio", "higher", true, REPAIR),
    layer!("analyze.eco_ms", "ms", "lower", false, SERVE_LAT),
    layer!("analyze.scoap_ms", "ms", "lower", false, SERVE_LAT),
    layer!("serve.lint_p50_ms", "ms", "lower", false, SERVE_LAT),
    layer!("serve.lint_p99_ms", "ms", "lower", false, SERVE_LAT),
    layer!("serve.scoap_p50_ms", "ms", "lower", false, SERVE_LAT),
    layer!("serve.scoap_p99_ms", "ms", "lower", false, SERVE_LAT),
    layer!("serve.fault_sim_p50_ms", "ms", "lower", false, SERVE_LAT),
    layer!("serve.fault_sim_p99_ms", "ms", "lower", false, SERVE_LAT),
    layer!("serve.dictionary_p50_ms", "ms", "lower", false, SERVE_LAT),
    layer!("serve.dictionary_p99_ms", "ms", "lower", false, SERVE_LAT),
    layer!("serve.podem_p50_ms", "ms", "lower", false, SERVE_LAT),
    layer!("serve.podem_p99_ms", "ms", "lower", false, SERVE_LAT),
    layer!("serve.eco_p50_ms", "ms", "lower", false, SERVE_LAT),
    layer!("serve.eco_p99_ms", "ms", "lower", false, SERVE_LAT),
    layer!("serve.read_p50_ms", "ms", "lower", false, SERVE_LAT),
    layer!("serve.read_tail_ms", "ms", "lower", false, SERVE_LAT),
    layer!("serve.read_tail_q", "quantile", "higher", false, SERVE_LAT),
    layer!("serve.read_samples", "count", "higher", false, SERVE_LAT),
    layer!("serve.write_p50_ms", "ms", "lower", false, SERVE_LAT),
    layer!("serve.write_tail_ms", "ms", "lower", false, SERVE_LAT),
    layer!("serve.write_tail_q", "quantile", "higher", false, SERVE_LAT),
    layer!("serve.write_samples", "count", "higher", false, SERVE_LAT),
    layer!("serve.transport_ms", "ms", "lower", false, SERVE_LAT),
    layer!("serve.codec_us", "us", "lower", false, SERVE_LAT),
    layer!(
        "serve.cache_hit_ratio",
        "ratio",
        "higher",
        false,
        SERVE_RATE
    ),
    layer!("serve.lint_builds", "per_eco", "lower", true, SERVE_RATE),
    layer!(
        "serve.dictionary_builds",
        "per_eco",
        "lower",
        true,
        SERVE_RATE
    ),
    layer!("serve.fault_sim_runs", "per_eco", "lower", true, SERVE_RATE),
    layer!("serve.eco_incremental", "ratio", "higher", true, SERVE_RATE),
    layer!(
        "serve.podem_backtracks",
        "count",
        "lower",
        false,
        SERVE_RATE
    ),
    layer!("trace.wall_s", "s", "lower", false, OP_ALL),
    layer!("trace.coverage", "ratio", "higher", false, OP_ALL),
    layer!("trace.overhead_ratio", "ratio", "lower", false, OP_ALL),
];

/// Looks up a per-layer metric.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Looks up an end-to-end metric.
#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Whether `name` is a valid metric or workload name.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_json::Value;

    fn benchmark_json() -> Value {
        let text = include_str!("../../BENCHMARK.json");
        dft_json::parse(text).expect("BENCHMARK.json parses")
    }

    fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        v.get(key).and_then(Value::as_array).expect("array key")
    }

    fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).expect("string key")
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate names");
    }

    #[test]
    fn every_per_layer_metric_moves_an_end_to_end_metric() {
        for m in PER_LAYER {
            assert!(!m.moves.is_empty(), "{} maps to nothing", m.name);
            for (e2e, workload) in m.moves {
                assert!(
                    end_to_end(e2e).is_some(),
                    "{}: unknown metric {e2e}",
                    m.name
                );
                assert!(
                    WORKLOADS.contains(workload),
                    "{}: unknown workload {workload}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let b = benchmark_json();
        let workloads: Vec<&str> = list(&b, "workloads")
            .iter()
            .map(|w| str_of(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e = list(&b, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better);
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let layers = list(&b, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better);
        }
    }
}
