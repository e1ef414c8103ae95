//! `grade_large`: fault grading at ingest scale — streamed collapse and
//! chunked PPSFP over layered random netlists shipped as BLIF.

use dft_fault::stream::CollapsedUniverse;
use dft_fault::{simulate, Fault, Ppsfp, PpsfpOptions};
use dft_sim::PatternSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{layered_blif, parse_all, sub_seed};
use crate::trace::Tracer;
use crate::{layer_times, run_batch, Args, OpOut, Report};

/// Designs per run: 16 × 16k gates, 256k gates of ingest per set-up.
const DESIGNS: usize = 16;
/// Layer width (and input count): wide, shallow layers.
const INPUTS: usize = 2048;
const GATES: usize = 16_000;
const PATTERNS: usize = 1024;
/// Faults per streamed chunk: about a dozen chunks per design, the
/// many-chunk, low-drop regime of million-gate grading.
const CHUNK: usize = 1 << 13;
const THREADS: usize = 2;
/// Verdicts per design checked against the serial reference: this many
/// seeded classes plus as many detected ones.
const SAMPLE: usize = 4;

/// FNV-1a digest of a pass's verdicts (first detecting pattern per
/// class).
fn verdict_digest(verdicts: &[Option<usize>]) -> u64 {
    verdicts.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        let x = v.map_or(u64::MAX, |p| p as u64);
        (h ^ x).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A design's first pass: its verdict digest, and the verdicts of the
/// classes the output check re-simulates (seeded picks plus the first
/// detected classes) — kept instead of every verdict, so the check's
/// state does not count in `peak_rss_mb`.
struct First {
    digest: u64,
    sample: Vec<(usize, Option<usize>)>,
}

/// Counts of one design's first traced pass.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    classes: usize,
    chunks: usize,
    detected: usize,
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let generated = std::time::Instant::now();
    let sources: Vec<_> = (0..DESIGNS as u64)
        .map(|i| layered_blif(INPUTS, GATES, sub_seed(args.seed, i)))
        .collect();
    eprintln!(
        "tessbench: inputs in {:.1} s",
        generated.elapsed().as_secs_f64()
    );
    let parsed = parse_all(&sources, tracer)?;
    let netlists = parsed.netlists;
    let patterns: Vec<PatternSet> = (0..DESIGNS as u64)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(sub_seed(args.seed, 1000 + i));
            PatternSet::random(INPUTS, PATTERNS, &mut rng)
        })
        .collect();
    let options = PpsfpOptions::new().with_threads(THREADS);

    let mut report = Report {
        setup_reps: parsed.reps,
        ..Report::default()
    };
    let mut first: Vec<Option<First>> = (0..DESIGNS).map(|_| None).collect();
    let mut counts: Vec<Option<Counts>> = vec![None; DESIGNS];
    let run = run_batch(
        DESIGNS,
        args,
        tracer,
        |i, traced| {
            let mut off = Tracer::new(false);
            let t = traced.map_or(&mut off, |t| t);
            let n = &netlists[i];
            let universe = t.span("fault.collapse", || CollapsedUniverse::new(n));
            t.enter("fault.ppsfp_build");
            let engine = Ppsfp::with_options(n, options);
            t.exit();
            let engine = engine.map_err(|e| e.to_string())?;
            let result = t.span("fault.ppsfp_sweep", || {
                engine.run_streamed(&patterns[i], universe.representatives(), CHUNK)
            });
            let classes = universe.class_count();
            let detected = result.detected_count();
            let verdicts = &result.first_detected;
            let digest = verdict_digest(verdicts);
            match &first[i] {
                None => {
                    let seeded = (0..SAMPLE as u64).map(|k| {
                        usize::try_from(sub_seed(args.seed ^ 0x5EED, k)).unwrap_or(0)
                            % verdicts.len()
                    });
                    let detected = (0..verdicts.len())
                        .filter(|&j| verdicts[j].is_some())
                        .take(SAMPLE);
                    let sample = seeded.chain(detected).map(|j| (j, verdicts[j])).collect();
                    first[i] = Some(First { digest, sample });
                }
                Some(f) if f.digest != digest => {
                    return Err(format!(
                        "design {i}: grading verdicts changed between passes"
                    ));
                }
                Some(_) => {}
            }
            if t.enabled() && counts[i].is_none() {
                counts[i] = Some(Counts {
                    classes,
                    chunks: classes.div_ceil(CHUNK),
                    detected,
                });
            }
            Ok(OpOut {
                work: (classes * PATTERNS) as f64,
                coverage: detected as f64 / classes as f64,
            })
        },
        &mut report,
    );
    report.tally = run.tally;

    // Output check, outside the timed loop: a seeded sample of verdicts
    // (first detecting pattern included) against the serial reference.
    let checked = std::time::Instant::now();
    for (i, n) in netlists.iter().enumerate() {
        let Some(f) = &first[i] else { continue };
        let classes: Vec<Fault> = CollapsedUniverse::new(n).representatives().collect();
        let faults: Vec<Fault> = f.sample.iter().map(|&(j, _)| classes[j]).collect();
        let reference = simulate(n, &patterns[i], &faults).map_err(|e| e.to_string())?;
        for (&(j, graded), serial) in f.sample.iter().zip(&reference.first_detected) {
            if graded != *serial {
                report.fail_check(format!(
                    "design {i}: class {j} graded {graded:?}, serial reference says {serial:?}"
                ));
            }
        }
    }

    eprintln!(
        "tessbench: reference check in {:.1} s",
        checked.elapsed().as_secs_f64()
    );
    if args.trace {
        layer_times(tracer, run.traced_ops, &mut report);
        let c: Vec<Counts> = counts.iter().flatten().copied().collect();
        let classes: usize = c.iter().map(|c| c.classes).sum();
        let chunks: usize = c.iter().map(|c| c.chunks).sum();
        let detected: usize = c.iter().map(|c| c.detected).sum();
        let m = &mut report.metrics;
        m.insert("fault.classes", classes as f64);
        m.insert("fault.ppsfp_chunks", chunks as f64);
        m.insert("fault.detect_ratio", detected as f64 / classes as f64);
        let sweep_per_chunk = tracer.total_secs("fault.ppsfp_sweep")
            / (run.traced_ops as f64)
            / (chunks as f64 / c.len() as f64);
        m.insert("fault.ppsfp_s_per_chunk", sweep_per_chunk);
        let bpg: f64 = netlists
            .iter()
            .map(|n| n.memory_footprint().bytes_per_gate())
            .sum();
        m.insert("netlist.bytes_per_gate", bpg / netlists.len() as f64);
        run.trace_cost(tracer, &mut report);
    } else {
        run.end_to_end(parsed.setup_s, &mut report);
    }
    Ok(report)
}
