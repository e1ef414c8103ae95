//! Seeded workload inputs. The program under test only ever sees the
//! generated text (BLIF or `.bench`); the benchmark parses it back
//! through the program's own readers.

use std::time::Instant;

use dft_netlist::circuits::{layered_random, random_combinational, random_pattern_resistant_pla};
use dft_netlist::{bench_format, blif, Netlist};

use crate::stats::median;
use crate::trace::Tracer;

/// Derives the `i`-th sub-seed of a run seed (splitmix64), so designs of
/// one run are independent and every seed gives the same inputs.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The text format a design is shipped in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    Blif,
    Bench,
}

/// One generated design: its name and netlist text.
#[derive(Clone, Debug)]
pub struct Source {
    pub name: String,
    pub format: Format,
    pub text: String,
}

/// A layered random circuit (the 10⁵–10⁶-gate ingest generator's
/// shape) shipped as BLIF.
pub fn layered_blif(inputs: usize, gates: usize, seed: u64) -> Source {
    Source {
        name: format!("layered_{inputs}x{gates}_{seed:x}"),
        format: Format::Blif,
        text: blif::write_blif(&layered_random(inputs, gates, seed)),
    }
}

/// A random-pattern-resistant PLA (§V-A's pathological case) shipped as
/// `.bench`.
pub fn pla_bench(inputs: usize, terms: usize, width: usize, outputs: usize, seed: u64) -> Source {
    let name = format!("pla_{inputs}x{terms}_{seed:x}");
    let pla = random_pattern_resistant_pla(inputs, terms, width, outputs, seed);
    Source {
        text: bench_format::write(&pla.synthesize(name.clone())),
        name,
        format: Format::Bench,
    }
}

/// Random combinational logic shipped as `.bench`.
pub fn random_bench(inputs: usize, gates: usize, seed: u64) -> Source {
    let name = format!("rand_{inputs}x{gates}_{seed:x}");
    let mut n = random_combinational(inputs, gates, seed);
    n.set_name(name.clone());
    Source {
        text: bench_format::write(&n),
        name,
        format: Format::Bench,
    }
}

/// Parsed designs plus the set-up figures of getting there.
pub struct Parsed {
    pub netlists: Vec<Netlist>,
    /// Median wall seconds of one full set-up (parse + levelize of every
    /// design).
    pub setup_s: f64,
    /// Set-ups run.
    pub reps: usize,
}

/// Least number of set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Set-ups repeat until they have taken this long in total, so that a
/// sub-millisecond set-up is still measured over many repetitions.
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 1000;

/// Parses and levelizes every source at least [`SETUP_REPS`] times and
/// until [`SETUP_MIN_S`] have passed (the last round's netlists are
/// kept), timing `netlist.parse` and `netlist.levelize` spans on
/// `tracer`.
///
/// # Errors
///
/// A parse or levelization failure, as text.
pub fn parse_all(sources: &[Source], tracer: &mut Tracer) -> Result<Parsed, String> {
    let mut times = Vec::new();
    let mut netlists = Vec::new();
    while times.len() < SETUP_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_S && times.len() < SETUP_MAX_REPS)
    {
        let started = Instant::now();
        netlists.clear();
        for s in sources {
            tracer.enter("netlist.parse");
            let parsed = match s.format {
                Format::Blif => blif::parse(&s.text, s.name.as_str()).map_err(|e| e.to_string()),
                Format::Bench => {
                    bench_format::parse(&s.text, s.name.as_str()).map_err(|e| e.to_string())
                }
            };
            tracer.exit();
            let n = parsed.map_err(|e| format!("{}: {e}", s.name))?;
            tracer.enter("netlist.levelize");
            let levels = n.levelize();
            tracer.exit();
            levels.map_err(|e| format!("{}: {e}", s.name))?;
            netlists.push(n);
        }
        times.push(started.elapsed().as_secs_f64());
    }
    Ok(Parsed {
        netlists,
        setup_s: median(&times),
        reps: times.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
        assert_ne!(sub_seed(7, 3), sub_seed(7, 4));
        assert_ne!(sub_seed(7, 3), sub_seed(8, 3));
        assert_eq!(random_bench(8, 40, 5).text, random_bench(8, 40, 5).text);
    }

    #[test]
    fn generated_text_parses_back() {
        let sources = [
            layered_blif(16, 200, 1),
            pla_bench(10, 4, 6, 2, 1),
            random_bench(8, 40, 2),
        ];
        let parsed = parse_all(&sources, &mut Tracer::new(false)).unwrap();
        assert_eq!(parsed.netlists.len(), 3);
        assert!(parsed.setup_s > 0.0);
    }
}
