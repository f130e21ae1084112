//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, anchors the
//! benchmark's own driver to the committed E17b reference rows, then
//! repeats the seeded simulation for `--seconds` seconds, checking every
//! repetition's outputs. Simulated metrics are deterministic for a seed:
//! every repetition must reproduce them exactly. Host metrics are
//! medians over the repetitions, calibrated against a fixed reference
//! loop (see [`calibrate`]). With `--trace 1` it alternates untraced and
//! traced repetitions and prints the per-layer metrics instead, writing
//! the first traced repetition's spans to `perfbench/out/` as Chrome
//! Trace Event JSON. The last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`; a failed
//! check prints `"correct": false` with no metrics and exits with 1.

mod alloc;
mod trace;
mod workload;

use std::cell::RefCell;
use std::collections::HashMap;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

use trace::Tracer;
use workload::{Inputs, Machine, Outcome, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Repetitions measured even when `--seconds` runs out first.
const MIN_REPS: usize = 5;

/// Simulated metrics reported end to end (the rest are per layer).
const SIM_END_TO_END: [&str; 5] = [
    "sim_gbps",
    "sim_lat_p50_us",
    "sim_lat_p99_us",
    "sim_bulk_lat_p99_us",
    "sim_cpu_us_per_mb",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: cannot parse '{value}'"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got '{value}'")),
                });
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The calibration loop's time on the reference host (see
/// [`calibrate`]): about its median on the 2-core x86-64 host the
/// bounds in `BENCHMARK.json` were set on.
const CALIBRATION_NOMINAL_NS: f64 = 25e6;

/// A fixed host workload timed around every repetition: allocation and
/// hash-table churn over a cache-resident and a cache-missing key space,
/// like the simulator's own inner loops but independent of the program
/// under test. The host this benchmark runs on is shared, and its speed
/// drifts by tens of percent over seconds as neighbours come and go;
/// host times are reported relative to this loop, scaled to its
/// nominal time ([`CALIBRATION_NOMINAL_NS`]), so they read in
/// nanoseconds of a host running the loop at that speed.
fn calibrate() -> u64 {
    let t0 = Instant::now();
    for keys in [1 << 11, 1 << 18] {
        let mut map: HashMap<u64, Box<[u64; 4]>> = HashMap::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for i in 0..100_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % keys;
            if let Some(v) = map.remove(&key) {
                acc = acc.wrapping_add(v[(i % 4) as usize]);
            } else {
                map.insert(key, Box::new([x, i, acc, key]));
            }
        }
        std::hint::black_box(acc);
    }
    t0.elapsed().as_nanos() as u64
}

/// One untraced repetition: set-up and the timed simulation, between two
/// runs of the calibration loop.
struct Rep {
    setup_ns: u64,
    host_ns: u64,
    calibration_ns: u64,
    allocs: u64,
    outcome: Outcome,
}

impl Rep {
    /// `ns` measured in this repetition, scaled to the nominal host.
    fn calibrated(&self, ns: u64) -> f64 {
        ns as f64 * CALIBRATION_NOMINAL_NS / self.calibration_ns as f64
    }
}

/// Runs one repetition; the warm-up skips the calibration loop, so the
/// peak RSS read after it is the workload's own.
fn rep(inputs: &Inputs, calibrated: bool) -> Result<Rep, String> {
    let before = if calibrated { calibrate() } else { 0 };
    let mut machine = Machine::new(inputs, None);
    let setup_ns = machine.setup_ns;
    let allocs = alloc::count();
    let t0 = Instant::now();
    machine.start();
    machine.run();
    let host_ns = t0.elapsed().as_nanos() as u64;
    let allocs = alloc::count() - allocs;
    let outcome = machine.finish(inputs)?;
    drop(machine);
    Ok(Rep {
        setup_ns,
        host_ns,
        calibration_ns: if calibrated {
            (before + calibrate()) / 2
        } else {
            0
        },
        allocs,
        outcome,
    })
}

/// A traced repetition; returns host ns per completed request.
fn traced_rep(inputs: &Inputs, tracer: &Rc<RefCell<Tracer>>) -> Result<(f64, Outcome), String> {
    let mut machine = Machine::new(inputs, Some(Rc::clone(tracer)));
    let t0 = Instant::now();
    trace::run_traced(&mut machine, tracer);
    let host_ns = t0.elapsed().as_nanos() as f64;
    let outcome = machine.finish(inputs)?;
    Ok((host_ns / outcome.completed.max(1) as f64, outcome))
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading process status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in process status")?;
    Ok(kb / 1024.0)
}

/// Largest minus smallest allocation count of the repetitions. The same
/// seed repeats the same simulation, so this is 0 unless allocation
/// depends on something else (such as randomly seeded hash tables).
fn alloc_spread(reps: &[Rep]) -> u64 {
    let counts = reps.iter().map(|r| r.allocs);
    counts.clone().max().unwrap_or(0) - counts.min().unwrap_or(0)
}

/// Checks that a repetition reproduced the first one's simulation.
fn same_simulation(first: &Outcome, again: &Outcome) -> Result<(), String> {
    if first == again {
        Ok(())
    } else {
        Err("a repetition of the same seed simulated differently".into())
    }
}

struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

fn run(args: &Args) -> Result<Report, String> {
    let inputs = Inputs::generate(args.workload, args.seed);
    if let Some((anchor, reference)) = Inputs::anchor(args.workload) {
        let mut machine = Machine::new(&anchor, None);
        machine.start();
        machine.run();
        let gbps = format!("{:.2}", machine.finish(&anchor)?.sim["sim_gbps"].0);
        if gbps != reference {
            return Err(format!(
                "anchor: the reference shape moves {gbps} GB/s, E17b reports {reference}"
            ));
        }
    }
    // Warm-up: lazily initialised state is not part of steady state.
    let warm = rep(&inputs, false)?;
    // The workload's peak, before the calibration loop's own memory.
    let peak_rss_mb = peak_rss_mb()?;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    if args.trace {
        return run_trace(args, &inputs, &warm.outcome, deadline);
    }
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || Instant::now() < deadline {
        let r = rep(&inputs, true)?;
        same_simulation(&warm.outcome, &r.outcome)?;
        reps.push(r);
    }
    let spread = alloc_spread(&reps);
    if spread != 0 {
        eprintln!("perfbench: allocation count varied by {spread} across repetitions of one seed");
    }
    let out = &warm.outcome;
    let completed = out.completed.max(1) as f64;
    let mut host: Vec<f64> = reps
        .iter()
        .map(|r| r.calibrated(r.host_ns) / completed)
        .collect();
    let mut setup: Vec<f64> = reps
        .iter()
        .map(|r| r.calibrated(r.setup_ns) / 1e9)
        .collect();
    let mut allocs: Vec<f64> = reps.iter().map(|r| r.allocs as f64 / completed).collect();
    let mut metrics: Vec<(String, f64, &'static str)> = SIM_END_TO_END
        .iter()
        .map(|name| {
            let (value, unit) = out.sim[name];
            ((*name).to_owned(), value, unit)
        })
        .collect();
    metrics.push(("host_ns_per_req".into(), median(&mut host), "ns"));
    metrics.push(("host_allocs_per_req".into(), median(&mut allocs), "count"));
    metrics.push(("host_peak_rss_mb".into(), peak_rss_mb, "MB"));
    metrics.push(("setup_s".into(), median(&mut setup), "s"));
    Ok(Report {
        attempted: out.offered,
        failed: out.failed,
        metrics,
    })
}

fn run_trace(
    args: &Args,
    inputs: &Inputs,
    reference: &Outcome,
    deadline: Instant,
) -> Result<Report, String> {
    let tracer = Rc::new(RefCell::new(Tracer::new()));
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while traced.len() < MIN_REPS || Instant::now() < deadline {
        let r = rep(inputs, true)?;
        same_simulation(reference, &r.outcome)?;
        plain.push(r);
        let (ns_per_req, outcome) = traced_rep(inputs, &tracer)?;
        same_simulation(reference, &outcome)?;
        traced.push(ns_per_req);
        tracer.borrow_mut().stop_recording();
    }
    // Timing is over: write the spans.
    let tracer = tracer.borrow();
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tracer.chrome_json()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("perfbench: wrote {}", path.display());

    // Traced host times are calibrated like the end-to-end ones, with
    // the run's median calibration.
    let mut calibration: Vec<f64> = plain.iter().map(|r| r.calibration_ns as f64).collect();
    let calibration = median(&mut calibration);
    let scale = CALIBRATION_NOMINAL_NS / calibration;
    let mut metrics: Vec<(String, f64, &'static str)> = tracer
        .host_metrics()
        .into_iter()
        .map(|(name, value, unit)| match unit {
            "ns" => (name, value * scale, unit),
            _ => (name, value, unit),
        })
        .collect();
    metrics.extend(
        reference
            .sim
            .iter()
            .filter(|(name, _)| !SIM_END_TO_END.contains(name))
            .map(|(name, &(value, unit))| ((*name).to_owned(), value, unit)),
    );
    let completed = reference.completed.max(1) as f64;
    let mut plain_ns: Vec<f64> = plain.iter().map(|r| r.host_ns as f64 / completed).collect();
    metrics.push(("host.raw_ns_per_req".into(), median(&mut plain_ns), "ns"));
    metrics.push(("host.calibration_ns".into(), calibration, "ns"));
    metrics.push((
        "trace.overhead_frac".into(),
        median(&mut traced) / median(&mut plain_ns) - 1.0,
        "fraction",
    ));
    metrics.push((
        "host.alloc_count_spread".into(),
        alloc_spread(&plain) as f64,
        "count",
    ));
    Ok(Report {
        attempted: reference.offered,
        failed: reference.failed,
        metrics,
    })
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            if let Some((name, _, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
                eprintln!("perfbench: metric {name} is not a finite number");
                return ExitCode::FAILURE;
            }
            println!(
                "{}",
                json(true, report.attempted, report.failed, &report.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            println!("{}", json(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}
