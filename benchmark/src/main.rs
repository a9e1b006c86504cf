//! The Raincore end-to-end benchmark. One invocation runs one workload:
//!
//! ```text
//! raincore-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It prints every metric as `name unit value`, checks the program's
//! outputs, and ends its standard output with one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `README.md` beside this crate.

mod catalogue;
mod check;
mod clock;
mod cluster;
mod drive;
mod layers;
mod mirror;
mod pinned;
mod schedule;
mod simcore;
mod stats;
mod trace;
mod udp;

use std::fmt::Write as _;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Set when the workload produces no sample of the metric's class and
    /// the value stands in for it (README, "Stand-ins").
    pub note: Option<&'static str>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value: if value.is_finite() { value } else { 0.0 },
            note: None,
        }
    }

    /// `measured`, or — when the workload produced no sample of the
    /// metric's class — `stand_in`, flagged with the reason.
    pub fn or_stand_in(
        name: &'static str,
        unit: &'static str,
        measured: Option<f64>,
        stand_in: f64,
        why: &'static str,
    ) -> Metric {
        Metric {
            note: measured.is_none().then_some(why),
            ..Metric::new(name, unit, measured.unwrap_or(stand_in))
        }
    }
}

pub struct Outcome {
    pub verdict: check::Verdict,
    /// Free-form lines for the operator, printed as `# ...`.
    pub notes: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    rates: [f64; 3],
}

fn usage() -> ! {
    eprintln!(
        "usage: raincore-benchmark --workload <{}> --seed <n> --seconds <1..60> --trace <0|1>\n       \
         raincore-benchmark --catalogue <run_seconds>   (prints BENCHMARK.json)\n       \
         [--calibrate-rates low,mid,high]   (udp_paced_mix only, to re-freeze its steps)",
        catalogue::WORKLOADS.map(|w| w.0).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        rates: pinned::MIX_RATES,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value == "1",
            "--calibrate-rates" => {
                let rates: Vec<f64> = value.split(',').filter_map(|r| r.parse().ok()).collect();
                args.rates = rates.try_into().unwrap_or_else(|_| usage());
            }
            "--catalogue" => {
                print!(
                    "{}",
                    catalogue::benchmark_json(value.parse().unwrap_or_else(|_| usage()))
                );
                std::process::exit(0);
            }
            _ => usage(),
        }
    }
    if !catalogue::WORKLOADS.iter().any(|w| w.0 == args.workload)
        || !(1..=60).contains(&args.seconds)
    {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let mut outcome = if args.workload == "sim_core" {
        simcore::run(args.seed, args.seconds)
    } else {
        udp::run(
            &args.workload,
            args.seed,
            args.seconds,
            args.trace,
            args.rates,
        )
    };
    let verdict = &outcome.verdict;
    let stand_ins = outcome
        .end_to_end
        .iter()
        .filter(|m| m.note.is_some())
        .count();
    outcome.per_layer.extend([
        Metric::new("load.stand_ins", "count", stand_ins as f64),
        Metric::new("check.attempted", "count", verdict.attempted as f64),
        Metric::new("check.failed", "count", verdict.failed as f64),
        Metric::new("check.breaches", "count", verdict.breaches.len() as f64),
    ]);

    println!(
        "# workload {} seed {} seconds {}",
        args.workload, args.seed, args.seconds
    );
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        match m.note {
            None => println!("{} {} {}", m.name, m.unit, m.value),
            Some(why) => println!("{} {} {} # stand-in, {why}", m.name, m.unit, m.value),
        }
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    for breach in &verdict.breaches {
        println!("# breach: {breach}");
    }

    // The last line: every metric of the asked-for table, in catalogue
    // order. An end-to-end metric must have been measured; a per-layer
    // metric the workload does not produce reads 0.
    let value_of =
        |list: &[Metric], name: &str| list.iter().find(|m| m.name == name).map(|m| m.value);
    let mut metrics = String::new();
    let mut push = |name: &str, unit: &str, value: f64| {
        let sep = if metrics.is_empty() { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    };
    if args.trace {
        for (name, unit, _) in catalogue::PER_LAYER {
            push(
                name,
                unit,
                value_of(&outcome.per_layer, name).unwrap_or(0.0),
            );
        }
    } else {
        for (name, unit, _, _) in catalogue::END_TO_END {
            let value = value_of(&outcome.end_to_end, name)
                .unwrap_or_else(|| panic!("{name} was not measured"));
            push(name, unit, value);
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        verdict.failed == 0,
        verdict.attempted.max(1),
        verdict.failed,
    );
    if verdict.failed > 0 {
        std::process::exit(1);
    }
}
