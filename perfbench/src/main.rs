//! End-to-end and per-layer benchmark of the ABG simulator.
//!
//! ```text
//! abg-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) times whole passes of one workload
//! through the library's sweep entry points and prints the end-to-end
//! metrics; a traced run (`--trace 1`) prints the per-layer metrics (see
//! `README.md`). Every pass is fingerprinted and checked. The last line
//! of standard output is the result object; the line before it holds
//! the run's details (samples, fingerprints).

mod trace;
mod workloads;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workloads::{Config, Outputs, Pass, PassOutputs, Workload};

/// Set-ups per run; `setup_s` is their median plus the warm-up pass.
const SETUPS: usize = 5;
/// Fewest timed passes an untraced run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Workers of the library's pools (`ABG_THREADS`) in every untraced
/// pass. With more, a pass waits at each parallel join or epoch barrier
/// for whichever vCPU the host has stolen: on a shared 2-vCPU VM,
/// `open-hier` at 2 workers swung 3× between runs. One worker measures
/// the code rather than the host's scheduling; the traced run reports
/// the scaling (`hier.thread_speedup`, `host.cpu_util`).
const ABG_THREADS: &str = "1";
/// Linux reports process CPU time in ticks of 1/100 s (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload =
        workload.ok_or_else(|| format!("--workload is required (one of {})", names.join(", ")))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// CPUs this process may use.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// User and system CPU seconds of this process so far.
fn cpu_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let field = |i: usize| -> f64 {
        rest.split_whitespace()
            .nth(i)
            .and_then(|v| v.parse::<u64>().ok())
            .expect("stat has numeric CPU fields") as f64
            / TICKS_PER_S
    };
    (field(11), field(12))
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kib / 1024.0
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile with at least ten samples above it, if
/// the run has that many samples.
fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (1..100u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

/// Counts checked sweep outputs and the ones that failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    /// Checks one pass's fingerprints against `expected` (and the
    /// seed-independent properties), one attempt per sweep.
    fn pass(&mut self, what: &str, outputs: &PassOutputs, expected: &[u64]) {
        let got = outputs.fingerprints();
        let properties = outputs.properties_hold();
        for (g, e) in got.iter().zip(expected) {
            self.attempted += 1;
            if g != e || !properties {
                self.failed += 1;
                self.notes.push(format!(
                    "{what}: fingerprint {g:#018x}, expected {e:#018x}, properties hold: {properties}"
                ));
            }
        }
    }

    fn panicked(&mut self, what: &str, sweeps: usize) {
        self.attempted += sweeps as u64;
        self.failed += sweeps as u64;
        self.notes.push(format!("{what}: panicked"));
    }
}

/// Runs `f`, turning a panic into `None`.
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Checks one pass at seed 0 against the recorded fingerprints (the
/// run's own passes already did if the run is at seed 0).
fn check_golden(args: &Args, reference: &[u64], checks: &mut Checks) {
    let golden = args.workload.golden();
    if args.seed == 0 {
        checks.attempted += 1;
        if !reference.starts_with(golden) {
            checks.failed += 1;
            checks
                .notes
                .push(format!("seed 0 pass differs from the recorded {golden:x?}"));
        }
        return;
    }
    let seed_0 = Pass(vec![args.workload.config(0)]);
    match guarded(|| workloads::run_pass(&seed_0)) {
        Some(out) => checks.pass("seed 0 pass", &out, golden),
        None => checks.panicked("seed 0 pass", golden.len()),
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn print_result(details: &str, checks: &Checks, correct: bool, metrics: &[Metric]) {
    let mut notes = String::new();
    for n in &checks.notes {
        let _ = write!(notes, "{}{n:?}", if notes.is_empty() { "" } else { ", " });
    }
    println!("{{\"details\": {{{details}, \"notes\": [{notes}]}}}}");
    let mut m = String::new();
    for (i, metric) in metrics.iter().enumerate() {
        assert!(metric.value.is_finite(), "{} is not finite", metric.name);
        let _ = write!(
            m,
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            metric.name,
            metric.value,
            metric.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        correct && checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    );
}

/// Times `SETUPS` set-ups; returns the last config and the median time.
fn timed_set_up(args: &Args) -> (Pass, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut cfg = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        cfg = Some(workloads::set_up(args.workload, args.seed));
        times.push(start.elapsed().as_secs_f64());
    }
    (cfg.expect("at least one set-up"), median(&times))
}

fn untraced_run(args: &Args) {
    let (cfg, setup_s) = timed_set_up(args);
    let mut checks = Checks::default();
    // The warm-up pass is untimed but counts as set-up: the first timed
    // pass cannot begin before it. Its fingerprints are what every later
    // pass of the run must reproduce.
    let warm_start = Instant::now();
    let warm = workloads::run_pass(&cfg);
    let setup_s = setup_s + warm_start.elapsed().as_secs_f64();
    let reference = warm.fingerprints();
    checks.pass("warm-up pass", &warm, &reference);
    let jobs = warm.jobs(&cfg);

    let mut walls = Vec::new();
    let start = Instant::now();
    let (user0, sys0) = cpu_times();
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let out = guarded(|| workloads::run_pass(&cfg));
        walls.push(t.elapsed().as_secs_f64());
        match out {
            Some(out) => checks.pass("timed pass", &out, &reference),
            None => checks.panicked("timed pass", reference.len()),
        }
    }
    let (user1, sys1) = cpu_times();
    let cpu_s = (user1 - user0 + sys1 - sys0) / walls.len() as f64;
    check_golden(args, &reference, &mut checks);

    let wall_s = median(&walls);
    let mut details = format!(
        "\"samples\": {}, \"abg_threads\": {ABG_THREADS}, \"jobs_per_pass\": {jobs}, \"fingerprints\": \"{reference:x?}\", \"wall_s\": {walls:?}",
        walls.len()
    );
    if let Some((p, v)) = tail_percentile(&walls) {
        let _ = write!(details, ", \"wall_s_p{p}\": {v:?}");
    }
    print_result(
        &details,
        &checks,
        true,
        &[
            metric("wall_s", wall_s, "s"),
            metric("jobs_per_s", jobs as f64 / wall_s, "jobs/s"),
            metric("cpu_s", cpu_s, "s"),
            metric("peak_rss_mib", peak_rss_mib(), "MiB"),
            metric("setup_s", setup_s, "s"),
        ],
    );
}

/// Median wall time and mean user and system CPU time of untraced
/// passes: at least two passes and one second.
fn untraced_passes(cfg: &Pass, checks: &mut Checks, reference: &[u64]) -> (f64, f64, f64) {
    let (user0, sys0) = cpu_times();
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < 2 || start.elapsed().as_secs_f64() < 1.0 {
        let t = Instant::now();
        let out = workloads::run_pass(cfg);
        walls.push(t.elapsed().as_secs_f64());
        checks.pass("untraced pass", &out, reference);
    }
    let (user1, sys1) = cpu_times();
    let n = walls.len() as f64;
    (median(&walls), (user1 - user0) / n, (sys1 - sys0) / n)
}

fn traced_run(args: &Args) {
    let cfg = workloads::set_up(args.workload, args.seed);
    let timer_ns = trace::calibrate_timer_ns();
    let mut checks = Checks::default();
    // Warm-up pass, and the reference every later pass must reproduce.
    let reference = workloads::run_pass(&cfg).fingerprints();

    // Untraced passes: the host view, and the baseline of the overhead
    // ratio (on one worker, as the traced passes run).
    let (wall_1, user_1, sys_1) = untraced_passes(&cfg, &mut checks, &reference);

    struct TracedPass {
        snap: trace::Snapshot,
        wall: f64,
        expected_work_s: f64,
    }
    let start = Instant::now();
    let mut traced: Vec<TracedPass> = Vec::new();
    let mut first_out = None;
    let mut counts_repeat = true;
    while traced.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        trace::reset(true);
        let t = Instant::now();
        let (out, expected_work_s) = workloads::run_traced_pass(&cfg, 1, &mut Vec::new());
        let wall = t.elapsed().as_secs_f64();
        let snap = trace::snapshot();
        trace::reset(false);
        checks.pass("traced pass", &out, &reference);
        if traced
            .first()
            .is_some_and(|first| first.snap.counts() != snap.counts())
        {
            counts_repeat = false;
            checks
                .notes
                .push("per-layer counts differ between traced passes".into());
        }
        first_out.get_or_insert(out);
        traced.push(TracedPass {
            snap,
            wall,
            expected_work_s,
        });
    }
    let (snap, out) = (traced[0].snap, first_out.expect("at least one traced pass"));
    let med = |f: &dyn Fn(&TracedPass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let ns = |f: fn(&trace::Snapshot) -> trace::LayerStats| med(&|t| f(&t.snap).mean_ns(timer_ns));
    let traced_wall = med(&|t| t.wall);
    let expected_work_s = med(&|t| t.expected_work_s);
    let wrapped_s = med(&|t| t.snap.wrapped_s(timer_ns)) + expected_work_s;

    let groups = match &cfg.0[0] {
        Config::Open(open) => u64::from(open.groups),
        Config::Closed { .. } => 0,
    };
    let rows = out.0.iter().flat_map(|o| match o {
        Outputs::Open(rows) => rows.as_slice(),
        Outputs::Closed(..) => &[],
    });
    let points = 2 * rows.clone().count() as u64;
    let arrivals: u64 = rows.map(|r| r.abg.arrivals + r.agreedy.arrivals).sum();
    // Hierarchical epochs, timed with only the group allocator wrapped,
    // on one worker and on every CPU.
    let (mut epoch_us, mut thread_speedup) = (0.0, 0.0);
    if groups > 1 {
        let mut epoch_median = |workers: usize| {
            let mut epochs = Vec::new();
            let (out, _) = workloads::run_traced_pass(&cfg, workers, &mut epochs);
            checks.pass("epoch-timing pass", &out, &reference);
            median(&epochs.iter().map(|&ns| ns as f64).collect::<Vec<_>>())
        };
        let one = epoch_median(1);
        let many = epoch_median(nproc());
        epoch_us = one / 1e3;
        thread_speedup = one / many;
    }

    let share = |n: f64, d: f64| if d == 0.0 { 0.0 } else { n / d };
    let ratio = |n: u64, d: u64| share(n as f64, d as f64);
    let count = |name, value: u64| metric(name, value as f64, "count");
    let metrics = [
        count("dag.generate_calls", snap.generate.calls),
        metric("dag.generate_ns", ns(|s| s.generate), "ns"),
        metric("workload.expected_work_s", expected_work_s, "s"),
        metric("sched.executor_new_ns", ns(|s| s.executor_new), "ns"),
        count("sched.run_quantum_calls", snap.run_quantum.calls),
        metric("sched.run_quantum_ns", ns(|s| s.run_quantum), "ns"),
        metric(
            "sched.steps_per_call",
            ratio(snap.steps, snap.run_quantum.calls),
            "steps",
        ),
        count("sched.steady_quanta_calls", snap.steady_quanta.calls),
        metric(
            "sched.steady_hit_ratio",
            ratio(snap.steady_hits, snap.steady_quanta.calls),
            "fraction",
        ),
        metric(
            "sim.frozen_share",
            1.0 - ratio(snap.allocate.calls, snap.quanta),
            "fraction",
        ),
        count("control.observe_calls", snap.observe.calls),
        metric("control.observe_ns", ns(|s| s.observe), "ns"),
        count("alloc.allocate_calls", snap.allocate.calls),
        metric("alloc.allocate_ns", ns(|s| s.allocate), "ns"),
        metric(
            "alloc.jobs_per_call",
            ratio(snap.jobs_allocated, snap.allocate.calls),
            "jobs",
        ),
        count("queue.points", points),
        count("queue.arrivals", arrivals),
        metric("queue.residual_s", wall_1 - wrapped_s, "s"),
        count("hier.epochs", snap.reallocate.calls),
        metric("hier.epoch_us", epoch_us, "us"),
        metric("hier.reallocate_ns", ns(|s| s.reallocate), "ns"),
        count(
            "hier.allocator_rebuilds",
            snap.allocator_builds.saturating_sub(groups * points),
        ),
        metric("hier.thread_speedup", thread_speedup, "x"),
        metric("host.cpu_util", (user_1 + sys_1) / wall_1, "fraction"),
        metric("host.sys_share", share(sys_1, user_1 + sys_1), "fraction"),
        metric("trace.timer_ns", timer_ns, "ns"),
        metric("trace.overhead_ratio", traced_wall / wall_1, "x"),
    ];
    let details = format!(
        "\"traced_passes\": {}, \"abg_threads\": {ABG_THREADS}, \"nproc\": {}, \"untraced_wall_s\": {wall_1:?}, \"traced_wall_s\": {traced_wall:?}, \"counts\": {:?}, \"fingerprints\": \"{reference:x?}\"",
        traced.len(),
        nproc(),
        snap.counts()
    );
    print_result(&details, &checks, counts_repeat, &metrics);
}

fn main() {
    std::env::set_var("ABG_THREADS", ABG_THREADS);
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("abg-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.trace {
        traced_run(&args);
    } else {
        untraced_run(&args);
    }
}
