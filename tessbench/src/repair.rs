//! `repair_plan`: the lint-driven repair autopilot (`repair`, default
//! options but one PPSFP thread) over small random designs — the one
//! workload for `dft-repair` and for the full lint rule set. One
//! operation repairs a block of designs, two `repair` calls at a time.

use std::sync::atomic::{AtomicUsize, Ordering};

use dft_lint::lint_with;
use dft_netlist::Netlist;
use dft_repair::{
    expand_hints, judge, measure_coverage, rank_candidates, repair, PlanCounters, RepairOptions,
    RepairPlan, RepairRecord, StaticBaseline,
};

use crate::inputs::{parse_all, random_bench, sub_seed};
use crate::trace::Tracer;
use crate::{layer_times, run_batch, Args, OpOut, Report};

/// Many small designs, so the run's figures do not hinge on a few
/// designs with unusually many lint findings.
const DESIGNS: usize = 2048;
/// Designs per operation. One design's repair time spreads widely
/// (from under a millisecond with no findings to tens with four
/// rounds); a block's sum spreads far less, so the latency median is
/// steady across seeds.
const BLOCK: usize = 32;
const BLOCKS: usize = DESIGNS / BLOCK;

const INPUTS: usize = 8;
const GATES: usize = 24;
/// PPSFP threads inside each `repair` call: one, as the designs are
/// small; the block's designs are shared out to [`WORKERS`] threads.
const THREADS: usize = 1;
const WORKERS: usize = 2;

/// Counters of one design's first traced run.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    plan: PlanCounters,
    rounds: usize,
    diagnostics: usize,
}

/// The autopilot loop `repair` runs, spelled out call by call so each
/// layer's share can be timed: baseline coverage, then per round lint,
/// hint expansion, static ranking and simulation-backed verification.
fn traced_repair(
    n: &Netlist,
    options: &RepairOptions,
    t: &mut Tracer,
) -> Result<(RepairPlan, Counts), String> {
    let measure =
        |n: &Netlist| measure_coverage(n, options.patterns, options.seed, options.threads);
    let baseline = t
        .span("repair.baseline", || measure(n))
        .map_err(|e| e.to_string())?;
    let mut current = n.clone();
    let mut current_coverage = baseline;
    let mut applied_keys: Vec<String> = Vec::new();
    let mut records: Vec<RepairRecord> = Vec::new();
    let mut counts = Counts::default();

    for round in 1..=options.max_rounds {
        counts.rounds += 1;
        let report = t.span("lint.run", || {
            lint_with(&current, options.lint_config.clone())
        });
        counts.diagnostics += report.diagnostics().len();
        let candidates = t.span("repair.expand", || {
            expand_hints(report.diagnostics(), &applied_keys)
        });
        counts.plan.expanded += candidates.len();
        if candidates.is_empty() {
            break;
        }

        t.enter("repair.rank");
        let baseline = StaticBaseline::measure(&current);
        counts.plan.ranked += candidates.len();
        let ranked = baseline.map(|b| rank_candidates(&current, b, candidates, options.top_k));
        t.exit();
        let (ranked, pruned) = ranked.ok_or("current netlist does not levelize")?;
        counts.plan.pruned += pruned;

        t.enter("repair.verify");
        counts.plan.verified += ranked.len();
        let mut round_records: Vec<(RepairRecord, Netlist)> = Vec::new();
        for rc in ranked {
            let after = match measure(&rc.edited.netlist) {
                Ok(a) => a,
                Err(e) => {
                    t.exit();
                    return Err(e.to_string());
                }
            };
            let verdict = judge(
                &options.economics,
                current_coverage,
                after,
                rc.edited.extra_gates,
                rc.edited.extra_pins,
            );
            round_records.push((
                RepairRecord {
                    round,
                    rule: rc.candidate.rule,
                    code: rc.candidate.code,
                    edit: rc.candidate.edit,
                    extra_gates: rc.edited.extra_gates,
                    extra_pins: rc.edited.extra_pins,
                    score: rc.score,
                    before: current_coverage,
                    after,
                    saving: verdict.saving,
                    hardware: verdict.hardware,
                    accepted: verdict.accepted,
                },
                rc.edited.netlist,
            ));
        }
        t.exit();

        let winner = round_records
            .iter()
            .enumerate()
            .filter(|(_, (r, _))| r.accepted)
            .max_by(|(ia, (a, _)), (ib, (b, _))| {
                a.after
                    .coverage
                    .total_cmp(&b.after.coverage)
                    .then(ib.cmp(ia))
            })
            .map(|(i, _)| i);
        let Some(w) = winner else {
            records.extend(round_records.into_iter().map(|(r, _)| r));
            break;
        };
        for (j, (mut record, netlist)) in round_records.into_iter().enumerate() {
            record.accepted = j == w;
            if j == w {
                applied_keys.push(record.edit.key());
                current = netlist;
                current_coverage = record.after;
            }
            records.push(record);
        }
        counts.plan.accepted += 1;
    }

    let plan = RepairPlan {
        design: n.name().to_owned(),
        patterns: options.patterns,
        seed: options.seed,
        baseline,
        final_coverage: current_coverage,
        records,
        counters: counts.plan,
    };
    Ok((plan, counts))
}

/// Repairs `netlists` on `workers` threads that take the next design
/// as they finish one; the plans come back in design order.
fn repair_block(
    netlists: &[Netlist],
    options: &RepairOptions,
    workers: usize,
) -> Vec<Result<RepairPlan, String>> {
    let next = AtomicUsize::new(0);
    let mut plans: Vec<Option<Result<RepairPlan, String>>> = vec![None; netlists.len()];
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(n) = netlists.get(i) else {
                return done;
            };
            done.push((
                i,
                repair(n, options)
                    .map(|o| o.plan)
                    .map_err(|e| e.to_string()),
            ));
        }
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
        for h in handles {
            for (i, plan) in h.join().expect("repair worker panicked") {
                plans[i] = Some(plan);
            }
        }
    });
    plans
        .into_iter()
        .map(|p| p.expect("every design repaired"))
        .collect()
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let sources: Vec<_> = (0..DESIGNS as u64)
        .map(|i| random_bench(INPUTS, GATES, sub_seed(args.seed, i)))
        .collect();
    let parsed = parse_all(&sources, tracer)?;
    let netlists = parsed.netlists;
    let options = RepairOptions::default().with_threads(THREADS);

    let mut report = Report {
        setup_reps: parsed.reps,
        ..Report::default()
    };
    let mut first: Vec<Option<RepairPlan>> = vec![None; DESIGNS];
    let mut first_json: Vec<Option<String>> = vec![None; DESIGNS];
    let mut traced_json: Vec<Option<String>> = vec![None; DESIGNS];
    let mut counts: Vec<Option<Counts>> = vec![None; DESIGNS];
    let run = run_batch(
        BLOCKS,
        args,
        tracer,
        |b, traced| {
            let designs = b * BLOCK..(b + 1) * BLOCK;
            if let Some(t) = traced {
                for i in designs {
                    let (plan, c) = traced_repair(&netlists[i], &options, t)?;
                    let json = plan.to_json();
                    if *traced_json[i].get_or_insert_with(|| json.clone()) != json {
                        return Err(format!("design {i}: traced plan changed between runs"));
                    }
                    counts[i].get_or_insert(c);
                }
                return Ok(OpOut::default());
            }
            // Serial beside a traced operation, so that the tracing
            // overhead compares like with like.
            let workers = if args.trace { 1 } else { WORKERS };
            let plans = repair_block(&netlists[designs.clone()], &options, workers);
            let mut block = OpOut::default();
            for (i, plan) in designs.zip(plans) {
                let plan = plan?;
                let json = plan.to_json();
                if *first_json[i].get_or_insert_with(|| json.clone()) != json {
                    return Err(format!("design {i}: repair plan changed between runs"));
                }
                block.work += plan.counters.ranked as f64;
                block.coverage += plan.final_coverage.coverage / BLOCK as f64;
                first[i].get_or_insert(plan);
            }
            Ok(block)
        },
        &mut report,
    );
    report.tally = run.tally;

    // Output checks, outside the timed loop: no plan may lose coverage,
    // and the traced composition must produce the byte-identical plan.
    for i in 0..DESIGNS {
        let Some(plan) = &first[i] else { continue };
        if plan.final_coverage.coverage < plan.baseline.coverage {
            report.fail_check(format!("design {i}: repair lowered coverage"));
        }
        if let (Some(traced), Some(json)) = (&traced_json[i], &first_json[i]) {
            if traced != json {
                report.fail_check(format!(
                    "design {i}: traced plan differs from repair's plan"
                ));
            }
        }
    }

    if args.trace {
        layer_times(tracer, run.traced_ops, &mut report);
        let c: Vec<Counts> = counts.iter().flatten().copied().collect();
        let sum = |f: fn(&Counts) -> usize| c.iter().map(f).sum::<usize>() as f64;
        let ranked = sum(|c| c.plan.ranked);
        let verified = sum(|c| c.plan.verified);
        let accepted = sum(|c| c.plan.accepted);
        let rank_s = tracer.total_secs("repair.rank");
        let m = &mut report.metrics;
        m.insert("repair.rounds", sum(|c| c.rounds));
        m.insert("repair.expanded", sum(|c| c.plan.expanded));
        m.insert("repair.pruned", sum(|c| c.plan.pruned));
        m.insert("repair.verified", verified);
        m.insert("repair.accepted", accepted);
        m.insert(
            "repair.accept_ratio",
            if verified > 0.0 {
                accepted / verified
            } else {
                0.0
            },
        );
        m.insert("lint.diagnostics", sum(|c| c.diagnostics));
        // Candidates ranked per traced pass through the designs.
        let passes = (run.traced_ops * BLOCK) as f64 / c.len().max(1) as f64;
        m.insert(
            "repair.rank_ms_per_candidate",
            rank_s / passes / ranked * 1e3,
        );
        run.trace_cost(tracer, &mut report);
    } else {
        run.end_to_end(parsed.setup_s, &mut report);
    }
    Ok(report)
}
