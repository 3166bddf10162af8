//! The workload process of the benchmark (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload <paper-full|scan-sym|resume-warm> --seed <n>
//!           --seconds <s> --trace <0|1> --work <dir>
//!           [--setup-only] [--trace-out <file>]
//! ```
//!
//! The process sets the workload up (including a reference pass), prints
//! a `ready` line, then runs passes for `--seconds` and prints one JSON
//! result line. `run.py` builds this program, starts it, and turns its
//! result into the benchmark's output.

mod check;
mod paper;
mod probe;
mod scan;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use layered_core::telemetry::{MetricsRegistry, Observer, NOOP};

use check::Checks;
use probe::{Count, Op, Probe, Totals};

/// One workload: a set-up, an untraced pass through the public experiment
/// functions, and a mirrored pass whose layer calls are made from here.
pub trait Workload {
    /// Prepares the workload and runs its reference pass.
    fn setup(&mut self, checks: &mut Checks);
    /// One untraced pass; returns each item's wall time in seconds.
    fn pass(&mut self, checks: &mut Checks) -> Vec<(String, f64)>;
    /// One pass with the layer calls mirrored over timed models, reporting
    /// to `obs`. With `full` false, items that have no mirror are skipped.
    fn mirror(&mut self, obs: &dyn Observer, checks: &mut Checks, full: bool);
    /// Layer calls that belong to the set-up, timed in traced runs.
    fn setup_layers(&mut self, _obs: &dyn Observer, _checks: &mut Checks) {}
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    work: PathBuf,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        setup_only: false,
        work: PathBuf::new(),
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            "--work" => args.work = PathBuf::from(&value),
            "--trace-out" => args.trace_out = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.work.as_os_str().is_empty() {
        return Err("--work is required".into());
    }
    Ok(args)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Appends `value` to the samples of `name`, keeping first-seen order.
fn add_sample<K: PartialEq>(samples: &mut Vec<(K, Vec<f64>)>, name: K, value: f64) {
    match samples.iter_mut().find(|(n, _)| *n == name) {
        Some((_, v)) => v.push(value),
        None => samples.push((name, vec![value])),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// User + system CPU seconds of this process so far (USER_HZ = 100).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit(')').next().unwrap_or_default();
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-layer metrics of one traced pass that took `wall` seconds.
fn layer_metrics(t: &Totals, wall: f64) -> Vec<(&'static str, f64)> {
    let probes = t.count(Count::InternHits) + t.count(Count::InternMisses);
    let n = |c: Count| t.count(c) as f64;
    vec![
        ("model.successors.calls", t.calls(Op::Successors) as f64),
        ("model.successors.self_s", t.self_s(Op::Successors)),
        ("model.successors.states_out", n(Count::StatesOut)),
        ("model.queries.self_s", t.self_s(Op::Queries)),
        ("sym.canonicalize.calls", t.calls(Op::Canonicalize) as f64),
        ("sym.canonicalize.self_s", t.self_s(Op::Canonicalize)),
        ("space.build.self_s", t.self_s(Op::SpaceBuild)),
        ("space.states", n(Count::States)),
        (
            "space.intern.hit_ratio",
            ratio(n(Count::InternHits), probes as f64),
        ),
        (
            "space.snapshot.load_s",
            t.total_s[Op::SnapshotLoad as usize],
        ),
        ("space.snapshot.bytes", n(Count::SnapshotBytes)),
        ("valence.classify.self_s", t.self_s(Op::ValenceClassify)),
        ("valence.queries", n(Count::ValenceQueries)),
        (
            "valence.memo_hit_ratio",
            ratio(n(Count::ValenceMemoHits), n(Count::ValenceQueries)),
        ),
        (
            "connectivity.report.self_s",
            t.self_s(Op::ConnectivityReport),
        ),
        ("connectivity.pairs_tested", n(Count::PairsTested)),
        ("layering.scan.self_s", t.self_s(Op::LayeringScan)),
        ("layering.layers_scanned", n(Count::LayersScanned)),
        ("layering.bivalent_run.self_s", t.self_s(Op::BivalentRun)),
        ("witness.build.self_s", t.self_s(Op::WitnessBuild)),
        ("witness.verify.self_s", t.self_s(Op::WitnessVerify)),
        ("checker.check.self_s", t.self_s(Op::CheckerCheck)),
        ("checker.states_explored", n(Count::CheckerStates)),
        ("topology.solve.self_s", t.self_s(Op::TopologySolve)),
        ("cert.store.get_s", t.total_s[Op::CertGet as usize]),
        ("cert.verify.self_s", t.self_s(Op::CertVerify)),
        (
            "trace.unattributed_ratio",
            (1.0 - ratio(t.covered_s, wall)).max(0.0),
        ),
    ]
}

/// Appends `"key": value` to a JSON object under construction.
fn field(out: &mut String, key: &str, value: f64) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(out, "\"{key}\": {value:?}");
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes the recorded spans as Chrome trace-event JSON.
fn write_trace(path: &PathBuf, spans: &[probe::SpanRecord]) -> std::io::Result<()> {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}}}",
            s.op.name(),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3
        );
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Scan instances run with at most one worker per core, and no more
    // than the scan experiments' default of four.
    let threads = nproc.min(4);
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "paper-full" => Box::new(paper::PaperFull::new(args.seed)),
        "scan-sym" => Box::new(scan::ScanSym::new(args.seed, threads)),
        "resume-warm" => Box::new(scan::ResumeWarm::new(threads, &args.work)),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    probe::mark_pass_thread();

    let mut checks = Checks::default();
    workload.setup(&mut checks);
    println!("{{\"ready\": {:?}}}", started.elapsed().as_secs_f64());
    let _ = std::io::stdout().flush();

    let mut result = String::from("{");
    let mut pass_s = Vec::new();
    let mut items: Vec<(String, Vec<f64>)> = Vec::new();
    let mut layers: Vec<(&'static str, Vec<f64>)> = Vec::new();
    if !args.setup_only {
        let mut setup_totals = None;
        if args.trace {
            probe::reset();
            probe::enable(true);
            workload.setup_layers(&Probe, &mut checks);
            probe::enable(false);
            setup_totals = Some(probe::totals());
        }
        let (mut traced_s, mut noop_s, mut registry_s) = (Vec::new(), Vec::new(), Vec::new());
        let mut cpu_s = 0.0;
        let measuring = Instant::now();
        let mut cycle = 0usize;
        // Untraced runs measure at least three passes; traced runs at
        // least one cycle of untraced, traced and overhead passes.
        while cycle < if args.trace { 1 } else { 3 }
            || measuring.elapsed().as_secs_f64() < args.seconds
        {
            let cpu = cpu_seconds();
            let start = Instant::now();
            let times = workload.pass(&mut checks);
            pass_s.push(start.elapsed().as_secs_f64());
            cpu_s += cpu_seconds() - cpu;
            for (name, t) in times {
                add_sample(&mut items, name, t);
            }
            if args.trace {
                probe::reset();
                probe::enable(true);
                let start = Instant::now();
                workload.mirror(&Probe, &mut checks, true);
                let wall = start.elapsed().as_secs_f64();
                probe::enable(false);
                traced_s.push(wall);
                for (name, value) in layer_metrics(&probe::totals(), wall) {
                    add_sample(&mut layers, name, value);
                }
                // The same mirrored layer calls with the metrics registry
                // and with the no-op observer, alternating which goes first.
                let registry = MetricsRegistry::new();
                let sides: [(&dyn Observer, bool); 2] = if cycle.is_multiple_of(2) {
                    [(&NOOP, false), (&registry, true)]
                } else {
                    [(&registry, true), (&NOOP, false)]
                };
                for (obs, is_registry) in sides {
                    let start = Instant::now();
                    workload.mirror(obs, &mut checks, false);
                    let wall = start.elapsed().as_secs_f64();
                    if is_registry {
                        registry_s.push(wall);
                    } else {
                        noop_s.push(wall);
                    }
                }
            }
            cycle += 1;
        }
        if args.trace {
            let untraced = median(&pass_s);
            let save_s = setup_totals.map_or(0.0, |t| t.total_s[Op::SnapshotSave as usize]);
            layers.push(("space.snapshot.save_s", vec![save_s]));
            layers.push(("process.cpu_s", vec![cpu_s / pass_s.len() as f64]));
            layers.push(("trace.overhead_ratio", vec![median(&traced_s) / untraced]));
            layers.push((
                "telemetry.registry_overhead_ratio",
                vec![median(&registry_s) / median(&noop_s)],
            ));
            if let Some(path) = &args.trace_out {
                probe::reset();
                probe::record(true);
                probe::enable(true);
                workload.mirror(&Probe, &mut checks, true);
                probe::enable(false);
                probe::record(false);
                if let Err(e) = write_trace(path, &probe::take_spans()) {
                    eprintln!("perfbench: cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
    }

    field(&mut result, "attempted", checks.attempted as f64);
    field(&mut result, "failed", checks.failed as f64);
    field(&mut result, "threads", threads as f64);
    field(&mut result, "peak_rss_mb", peak_rss_mb());
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = write!(result, ", \"pass_s\": [{}]", list(&pass_s));
    let mut per_layer = String::from("{");
    for (name, values) in &layers {
        field(&mut per_layer, name, median(values));
    }
    for (name, values) in &items {
        field(
            &mut per_layer,
            &format!("experiment.{name}.wall_s"),
            median(values),
        );
    }
    field(
        &mut per_layer,
        "fail_ratio",
        ratio(checks.failed as f64, checks.attempted as f64),
    );
    per_layer.push('}');
    let _ = write!(result, ", \"per_layer\": {per_layer}");
    let failures: Vec<String> = checks.failures.iter().map(|f| json_str(f)).collect();
    let _ = write!(result, ", \"failures\": [{}]}}", failures.join(", "));
    println!("{result}");
}
