//! `atpg_flow`: the production ATPG flow (`generate_tests`, default
//! configuration, two threads) on random-pattern-resistant PLAs, where
//! the deterministic PODEM phase does nearly all the work.

use dft_atpg::{
    generate_tests, random_atpg, reverse_order_drop, AtpgConfig, DetDriver, DetVerdict, FaultStatus,
};
use dft_fault::{simulate, universe, Fault};
use dft_obs::Recorder;
use dft_sim::PatternSet;

use crate::inputs::{parse_all, pla_bench, sub_seed};
use crate::trace::Tracer;
use crate::{layer_times, run_batch, Args, OpOut, Report};

const DESIGNS: usize = 4;
const INPUTS: usize = 24;
const TERMS: usize = 40;
const TERM_WIDTH: usize = 20;
const OUTPUTS: usize = 4;
const THREADS: usize = 2;

/// FNV-1a over the pattern rows.
pub fn pattern_hash(p: &PatternSet) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in p.iter() {
        for bit in row {
            h ^= u64::from(bit);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The first untraced result on one design.
struct First {
    hash: u64,
    patterns: PatternSet,
    status: Vec<FaultStatus>,
    detected_coverage: f64,
}

/// Counters of one design's first traced run.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    attempts: u64,
    backtracks: u64,
    forward_evals: u64,
    aborted: u64,
    cubes: u64,
    patterns: u64,
    faults: u64,
    learned_edges: u64,
    busiest: f64,
}

/// The flow `generate_tests` runs, spelled out call by call so each
/// layer's share can be timed: random phase, driver build (with the
/// implication store it learns), deterministic phase, compaction.
fn traced_flow(
    n: &dft_netlist::Netlist,
    faults: &[Fault],
    config: &AtpgConfig,
    t: &mut Tracer,
) -> Result<(PatternSet, Counts), String> {
    t.enter("atpg.random");
    let random = random_atpg(n, faults, config.random_budget, 1.0, config.seed);
    t.exit();
    let random = random.map_err(|e| e.to_string())?;
    let mut used: Vec<usize> = random
        .detection
        .first_detected
        .iter()
        .flatten()
        .copied()
        .collect();
    used.sort_unstable();
    used.dedup();
    let mut rows: Vec<Vec<bool>> = used.iter().map(|&p| random.patterns.get(p)).collect();
    let remaining: Vec<usize> = random
        .detection
        .first_detected
        .iter()
        .enumerate()
        .filter_map(|(i, d)| d.is_none().then_some(i))
        .collect();

    t.enter("atpg.driver_build");
    let mut recorder = Recorder::new();
    let driver = DetDriver::new_observed(n, config, Some(&mut recorder));
    let learned = recorder.finish("driver");
    let learn = learned.find("implic.learn");
    if let Some(span) = learn {
        t.record("implic.learn", span.duration_ns as f64 / 1e9);
    }
    t.exit();
    let driver = driver.map_err(|e| e.to_string())?;
    let det = t.span("atpg.deterministic", || {
        driver.run(faults, &remaining, None)
    });
    let det = det.map_err(|e| e.to_string())?;
    let aborted = det
        .verdicts
        .iter()
        .filter(|v| matches!(v, DetVerdict::Aborted))
        .count();

    t.enter("atpg.compact");
    rows.extend(det.rows.iter().cloned());
    let set = PatternSet::from_rows(n.primary_inputs().len(), &rows);
    let patterns = if config.compact {
        reverse_order_drop(n, &set, faults)
    } else {
        Ok(set)
    };
    t.exit();
    let patterns = patterns.map_err(|e| e.to_string())?;

    let evals: Vec<f64> = det
        .worker_stats
        .iter()
        .map(|w| w.forward_evals as f64)
        .collect();
    let mean = evals.iter().sum::<f64>() / evals.len().max(1) as f64;
    let busiest = evals.iter().copied().fold(0.0, f64::max);
    let counts = Counts {
        attempts: det.attempts,
        backtracks: det.backtracks,
        forward_evals: det.forward_evals,
        aborted: aborted as u64,
        cubes: det.cubes,
        patterns: patterns.len() as u64,
        faults: faults.len() as u64,
        learned_edges: learn.map_or(0, |s| s.counter("learned_edges")),
        busiest: if mean > 0.0 { busiest / mean } else { 1.0 },
    };
    Ok((patterns, counts))
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let sources: Vec<_> = (0..DESIGNS as u64)
        .map(|i| pla_bench(INPUTS, TERMS, TERM_WIDTH, OUTPUTS, sub_seed(args.seed, i)))
        .collect();
    let parsed = parse_all(&sources, tracer)?;
    let netlists = parsed.netlists;
    let faults: Vec<Vec<Fault>> = netlists.iter().map(universe).collect();
    let config = AtpgConfig::default().with_threads(THREADS);

    let mut report = Report {
        setup_reps: parsed.reps,
        ..Report::default()
    };
    let mut first: Vec<Option<First>> = (0..DESIGNS).map(|_| None).collect();
    let mut traced_hash: Vec<Option<u64>> = vec![None; DESIGNS];
    let mut counts: Vec<Option<Counts>> = vec![None; DESIGNS];
    let run = run_batch(
        DESIGNS,
        args,
        tracer,
        |i, traced| {
            let (n, f) = (&netlists[i], &faults[i]);
            let work = f.len() as f64;
            if let Some(t) = traced {
                let (patterns, c) = traced_flow(n, f, &config, t)?;
                let hash = pattern_hash(&patterns);
                if *traced_hash[i].get_or_insert(hash) != hash {
                    return Err(format!(
                        "design {i}: traced pattern set changed between runs"
                    ));
                }
                counts[i].get_or_insert(c);
                return Ok(OpOut {
                    work,
                    coverage: 0.0,
                });
            }
            let out = generate_tests(n, f, &config).map_err(|e| e.to_string())?;
            let hash = pattern_hash(&out.patterns);
            let coverage = out.coverage();
            match &first[i] {
                None => {
                    first[i] = Some(First {
                        hash,
                        detected_coverage: out.detected_coverage(),
                        patterns: out.patterns,
                        status: out.status,
                    });
                }
                Some(f) if f.hash != hash => {
                    return Err(format!(
                        "design {i}: generate_tests output changed between runs"
                    ));
                }
                Some(_) => {}
            }
            Ok(OpOut { work, coverage })
        },
        &mut report,
    );
    report.tally = run.tally;

    // Output checks, outside the timed loop: an independent engine (the
    // serial simulator) must detect every fault the flow claims, and the
    // traced composition must yield the very same pattern set.
    for (i, n) in netlists.iter().enumerate() {
        let Some(f) = &first[i] else { continue };
        let reference = simulate(n, &f.patterns, &faults[i]).map_err(|e| e.to_string())?;
        let missed = f
            .status
            .iter()
            .zip(&reference.first_detected)
            .filter(|(s, d)| {
                matches!(
                    s,
                    FaultStatus::DetectedRandom | FaultStatus::DetectedDeterministic
                ) && d.is_none()
            })
            .count();
        if missed > 0 || reference.coverage() + 1e-12 < f.detected_coverage {
            report.fail_check(format!(
                "design {i}: serial re-simulation misses {missed} claimed detections \
                 (coverage {} vs claimed {})",
                reference.coverage(),
                f.detected_coverage
            ));
        }
        if let Some(h) = traced_hash[i] {
            if h != f.hash {
                report.fail_check(format!(
                    "design {i}: traced flow hash {h:x} != generate_tests {:x}",
                    f.hash
                ));
            }
        }
    }

    if args.trace {
        layer_times(tracer, run.traced_ops, &mut report);
        let c: Vec<Counts> = counts.iter().flatten().copied().collect();
        let sum = |f: fn(&Counts) -> u64| c.iter().map(f).sum::<u64>() as f64;
        let forward_evals = sum(|c| c.forward_evals);
        let m = &mut report.metrics;
        m.insert("atpg.attempts", sum(|c| c.attempts));
        m.insert("atpg.backtracks", sum(|c| c.backtracks));
        m.insert("atpg.forward_evals", forward_evals);
        m.insert("atpg.aborted", sum(|c| c.aborted));
        m.insert("atpg.abort_ratio", sum(|c| c.aborted) / sum(|c| c.faults));
        m.insert("atpg.cubes", sum(|c| c.cubes));
        m.insert("atpg.patterns", sum(|c| c.patterns));
        m.insert("implic.learned_edges", sum(|c| c.learned_edges));
        let imbalance = c.iter().map(|c| c.busiest).fold(0.0, f64::max);
        m.insert("atpg.worker_imbalance", imbalance);
        let det_s = tracer.total_secs("atpg.deterministic");
        // Forward evaluations per pass through the designs, so per traced
        // operation on average: `forward_evals / DESIGNS`.
        let per_op = forward_evals / c.len().max(1) as f64;
        m.insert(
            "atpg.us_per_forward_eval",
            det_s / run.traced_ops as f64 / per_op * 1e6,
        );
        run.trace_cost(tracer, &mut report);
    } else {
        run.end_to_end(parsed.setup_s, &mut report);
    }
    Ok(report)
}
