//! The tessera benchmark.
//!
//! ```text
//! tessbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds its inputs from `--seed`, measures the workload for
//! `--seconds`, checks the program's outputs, and prints one JSON line
//! as the last line of standard output:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//! With `--trace 0` the metrics are the end-to-end metrics, measured
//! through the program's real entry points; with `--trace 1` they are
//! the per-layer metrics of a traced run that times every call into a
//! layer's public functions (see [`metrics`] for both lists).
//!
//! Exit codes: 0 success, 1 a failed output check or operation (the
//! result line is still printed), 2 usage or set-up error.

mod atpg;
mod grade;
mod inputs;
mod metrics;
mod repair;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use crate::stats::{LatencyLog, Tally};
use crate::trace::Tracer;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {:?}",
            metrics::WORKLOADS
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a workload hands back: its operation tally, the metrics it
/// measured (end-to-end or per-layer, per `--trace`), and any failed
/// output checks.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
    pub problems: Vec<String>,
    /// Set-ups the run made (their `netlist.*` spans are averaged).
    pub setup_reps: usize,
}

/// Inserts `peak_rss_mb`, read when the measured loop ends, before the
/// output checks allocate their own state.
pub fn record_peak_rss(report: &mut Report) {
    report
        .metrics
        .insert("peak_rss_mb", stats::peak_rss_mb().unwrap_or(f64::NAN));
}

impl Report {
    /// Records a problem with an operation already counted as failed.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Records a failed output check: one more failed operation.
    pub fn fail_check(&mut self, what: String) {
        self.tally.failed += 1;
        self.problems.push(what);
    }
}

/// One measured operation of a batch workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpOut {
    /// Work units the operation completed (for `work_per_s`).
    pub work: f64,
    /// The fault coverage the operation reported.
    pub coverage: f64,
}

/// Figures of a batch measurement loop.
#[derive(Debug, Default)]
pub struct BatchRun {
    pub latencies: LatencyLog,
    pub tally: Tally,
    pub busy_s: f64,
    pub work: f64,
    /// Coverage of each design's first operation.
    pub first_coverage: Vec<f64>,
    /// Wall seconds of the traced and the untraced operations of a
    /// traced run.
    pub traced_s: f64,
    pub untraced_s: f64,
    pub traced_ops: usize,
}

/// Runs `op` round-robin over `designs` designs until `seconds` have
/// passed and every design ran at least once. `op(i, None)` must call
/// the program's real entry point; `op(i, Some(tracer))` the traced
/// composition of layer calls. A traced run pairs each untraced
/// operation with a traced one on the same design.
pub fn run_batch(
    designs: usize,
    args: &Args,
    tracer: &mut Tracer,
    mut op: impl FnMut(usize, Option<&mut Tracer>) -> Result<OpOut, String>,
    report: &mut Report,
) -> BatchRun {
    let mut run = BatchRun {
        first_coverage: vec![f64::NAN; designs],
        ..BatchRun::default()
    };
    let started = Instant::now();
    let mut k = 0usize;
    while k < designs || started.elapsed().as_secs_f64() < args.seconds {
        let i = k % designs;
        k += 1;
        let t = Instant::now();
        let out = op(i, None);
        let secs = t.elapsed().as_secs_f64();
        run.untraced_s += secs;
        match out {
            Ok(out) => {
                run.tally.record(true);
                run.latencies.ok(secs * 1e3);
                run.busy_s += secs;
                run.work += out.work;
                if run.first_coverage[i].is_nan() {
                    run.first_coverage[i] = out.coverage;
                }
            }
            Err(e) => {
                run.tally.record(false);
                run.latencies.fail();
                report.problem(e);
            }
        }
        if args.trace {
            tracer.next_op();
            let t = Instant::now();
            let out = op(i, Some(&mut *tracer));
            run.traced_s += t.elapsed().as_secs_f64();
            run.traced_ops += 1;
            run.tally.record(out.is_ok());
            if let Err(e) = out {
                report.problem(e);
            }
        }
    }
    eprintln!(
        "tessbench: {k} operations over {designs} inputs in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    record_peak_rss(report);
    run
}

impl BatchRun {
    /// Fills the end-to-end metrics of an untraced run.
    pub fn end_to_end(&self, setup_s: f64, report: &mut Report) {
        let m = &mut report.metrics;
        m.insert("setup_s", setup_s);
        m.insert(
            "op_p50_ms",
            self.latencies.p50().map_or(f64::INFINITY, |p| p.ms),
        );
        m.insert("work_per_s", self.work / self.busy_s);
        let cov: Vec<f64> = self
            .first_coverage
            .iter()
            .copied()
            .filter(|c| !c.is_nan())
            .collect();
        m.insert(
            "fault_coverage",
            cov.iter().sum::<f64>() / cov.len().max(1) as f64,
        );
    }

    /// Fills the tracing-cost metrics of a traced run from the layer
    /// self times (setup spans excluded).
    pub fn trace_cost(&self, tracer: &Tracer, report: &mut Report) {
        let layers: f64 = tracer
            .self_secs()
            .iter()
            .filter(|(name, _)| !name.starts_with("netlist."))
            .map(|(_, s)| s)
            .sum();
        let ops = self.traced_ops.max(1) as f64;
        let m = &mut report.metrics;
        m.insert("trace.wall_s", self.traced_s / ops);
        m.insert("trace.coverage", layers / self.traced_s);
        m.insert(
            "trace.overhead_ratio",
            self.traced_s / self.untraced_s - 1.0,
        );
    }
}

/// Each layer's self time, into the per-layer metric named after the
/// span: per traced operation, or per set-up for `netlist.*` spans.
pub fn layer_times(tracer: &Tracer, ops: usize, report: &mut Report) {
    for (span, secs) in tracer.self_secs() {
        if let Some(m) = metrics::per_layer(&format!("{span}_s")) {
            let name = m.name;
            let per_op = if name.starts_with("netlist.") {
                report.setup_reps.max(1) as f64
            } else {
                ops.max(1) as f64
            };
            report.metrics.insert(name, secs / per_op);
        }
    }
}

/// Where a traced run writes its spans.
fn span_path(args: &Args) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "tessbench/target".into());
    std::path::Path::new(&target)
        .join("tessbench")
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        // A non-finite figure means a failed operation landed on it;
        // the run is already marked failed.
        "null".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tessbench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let mut tracer = Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "grade_large" => grade::run(&args, &mut tracer),
        "atpg_flow" => atpg::run(&args, &mut tracer),
        "repair_plan" => repair::run(&args, &mut tracer),
        "serve_mixed" => serve::run(&args, &mut tracer),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tessbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };

    if args.trace {
        for m in metrics::PER_LAYER {
            report.metrics.entry(m.name).or_insert(0.0);
        }
        let coverage = report.metrics["trace.coverage"];
        if coverage < 0.9 {
            report.fail_check(format!(
                "layer self times cover only {coverage:.3} of the traced wall time"
            ));
        }
        let path = span_path(&args);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.to_json_lines()));
        if let Err(e) = written {
            eprintln!("tessbench: cannot write {}: {e}", path.display());
        }
    }

    let wanted: Vec<(&str, &str)> = if args.trace {
        metrics::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    };
    for (name, _) in &wanted {
        match report.metrics.get(name) {
            Some(v) if v.is_finite() => {}
            _ => report.fail_check(format!("metric {name} was not measured")),
        }
    }
    for p in &report.problems {
        eprintln!("tessbench: check failed: {p}");
    }
    eprintln!(
        "tessbench: {} seed {} done in {:.1} s",
        args.workload,
        args.seed,
        started.elapsed().as_secs_f64()
    );
    let correct = report.problems.is_empty();
    let body: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let v = report.metrics.get(name).copied().unwrap_or(f64::NAN);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    let attempted = report.tally.attempted.max(1);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed.min(attempted),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload atpg_flow --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("atpg_flow", 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload atpg_flow --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload atpg_flow --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload atpg_flow --seed 1 --seconds 1").is_err());
    }

    #[test]
    fn failed_operations_count_against_attempts_and_latency() {
        let a = args("--workload atpg_flow --seed 1 --seconds 0.001 --trace 0").unwrap();
        let mut report = Report::default();
        let mut tracer = Tracer::new(false);
        let run = run_batch(
            4,
            &a,
            &mut tracer,
            |i, _| {
                if i == 3 {
                    Err("boom".into())
                } else {
                    Ok(OpOut {
                        work: 1.0,
                        coverage: 0.5,
                    })
                }
            },
            &mut report,
        );
        assert_eq!(run.tally.failed, run.tally.attempted / 4);
        assert!(run.tally.attempted >= 4);
        assert_eq!(report.problems.len() as u64, run.tally.failed);
        // One in four operations failed: the tail lands on a failure
        // once enough samples exist, never on a success.
        assert_eq!(run.latencies.len() as u64, run.tally.attempted);
        assert!(run.latencies.quantile(0.99).unwrap().ms.is_infinite());
    }
}
