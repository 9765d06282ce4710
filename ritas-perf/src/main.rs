//! The RITAS benchmark: runs one workload against an `n = 4, f = 1`
//! group, checks every output, and prints each metric by name with its
//! unit; the last line of standard output is one JSON object.
//!
//! ```text
//! ritas-perf --workload <svc-tcp|ab-open|ab-saturate> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run is [`ROUNDS`] rounds, each on a freshly built group, sharing
//! the `--seconds` between them. `--trace 0` reports the end-to-end
//! metrics with span tracing off. `--trace 1` runs, in each round, an
//! untraced half window and then a traced half window, and reports the
//! per-layer ledger. See `README.md`.

mod ab;
mod harness;
mod probe;
mod stats;
mod svc;

use harness::{ms, ratio, Values};
use stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Warm-up before the first measured window of a round; excluded from
/// every timing.
pub const WARMUP: Duration = Duration::from_millis(1000);

/// Time a run may take beyond `--seconds` before the watchdog ends it:
/// set-up, warm-up, drains and teardown take about 10 s in all.
pub const WATCHDOG_SLACK: Duration = Duration::from_secs(90);

/// Rounds per run. Each builds its own group, so state a group settles
/// into (thread placement, hash seeds, batch phase) is sampled ten
/// times and the run reports medians or means over rounds.
pub const ROUNDS: u64 = 10;

/// Metrics reported as the mean over rounds, not the median. The two
/// `svc-tcp` clients lock into a phase that can last the whole round:
/// either their writes share agreements, or they alternate, each write
/// with agreements of its own at about 25 % more frames per operation.
/// The median of a run jumps between the two; the mean weighs them by
/// how often they occur.
const MEAN_OVER_ROUNDS: [&str; 2] = ["msgs_per_op", "wire_bytes_per_op"];

/// What one run measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured time, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Plan {
    /// The phases of one round: the warm-up, then one untraced window,
    /// or an untraced and a traced half window.
    pub fn phases(&self) -> Vec<Duration> {
        let full = Duration::from_secs_f64(self.seconds / ROUNDS as f64);
        if self.trace {
            vec![WARMUP, full / 2, full / 2]
        } else {
            vec![WARMUP, full]
        }
    }

    /// Index of the untraced measured phase.
    pub const MEASURED: usize = 1;
    /// Index of the traced phase of a `--trace 1` run.
    pub const TRACED: usize = 2;
}

/// What a workload hands back from one round, or a whole run.
#[derive(Default)]
pub struct Outcome {
    /// Operations started in the measured phases.
    pub attempted: u64,
    /// Of those, the ones that failed or never completed.
    pub failed: u64,
    /// Correctness violations; any one fails the run.
    pub violations: Vec<String>,
    /// Metric values by name.
    pub values: Values,
    /// Human-readable lines (sample counts) printed before the result.
    pub notes: Vec<String>,
    /// Seconds from the start of building a group to its first reply,
    /// once per build.
    pub setups: Vec<f64>,
    /// Write or command latencies of the untraced window, nanoseconds.
    pub latencies: Vec<u64>,
    /// Read latencies of the untraced window, nanoseconds.
    pub read_latencies: Vec<u64>,
    /// Bench-side spans of the traced window.
    pub spans: Vec<Span>,
}

/// Folds the rounds of a run into one outcome: counts add up, each
/// metric is the median over rounds (the mean for [`MEAN_OVER_ROUNDS`]),
/// `setup_s` the median over every
/// build, medians of latency the median of the rounds' medians, and
/// 99th percentiles come from the pooled samples of all rounds.
fn merge(rounds: Vec<Outcome>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut per_round: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (r, round) in rounds.into_iter().enumerate() {
        out.attempted += round.attempted;
        out.failed += round.failed;
        out.violations.extend(
            round
                .violations
                .into_iter()
                .map(|v| format!("round {r}: {v}")),
        );
        out.notes
            .extend(round.notes.into_iter().map(|n| format!("round {r}: {n}")));
        for (name, value) in round.values {
            per_round.entry(name).or_default().push(value);
        }
        for (name, samples) in [
            ("p50_ms", &round.latencies),
            ("read_p50_ms", &round.read_latencies),
        ] {
            let s = Summary::of(samples.clone())
                .ok_or_else(|| format!("round {r} completed no operation for {name}"))?;
            per_round.entry(name).or_default().push(ms(s.p50_ns));
        }
        out.setups.extend(round.setups);
        out.latencies.extend(round.latencies);
        out.read_latencies.extend(round.read_latencies);
        out.spans.extend(round.spans);
    }
    for (name, values) in per_round {
        if name.ends_with("p50_ms") || name.ends_with("per_op") || name == "ops_per_s" {
            out.notes.push(format!("{name} by round: {values:.4?}"));
        }
        let value = if MEAN_OVER_ROUNDS.contains(&name) {
            values.iter().sum::<f64>() / values.len() as f64
        } else {
            stats::median_f64(&values).expect("one value per round")
        };
        out.values.insert(name, value);
    }
    out.values.insert(
        "setup_s",
        stats::median_f64(&out.setups).ok_or("no group was built")?,
    );
    for (name, what, samples) in [
        ("p99_ms", "latency", &out.latencies),
        ("read_p99_ms", "read", &out.read_latencies),
    ] {
        let s = Summary::of(samples.clone()).ok_or("no operation completed")?;
        out.notes.push(s.describe(what));
        out.values.insert(name, ms(s.p99_ns));
    }
    Ok(out)
}

/// End-to-end metrics: `(name, unit)`, reported by `--trace 0` and
/// gated. Only metrics that do not scale with the host's speed are
/// here: on a shared 2-core host, the run-to-run spread of every time
/// exceeds any useful bound (see `README.md`).
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("msgs_per_op", "frames/op"),
    ("wire_bytes_per_op", "B/op"),
];

/// Per-layer metrics: `(name, unit)`, reported by `--trace 1`. The
/// user-facing times, rates and memory come first, from the untraced
/// half windows; they sit here, ungated, because they follow the speed
/// the host lends the run.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms/op"),
    ("rss_mb", "MiB"),
    ("p99_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("failed_ratio", "ratio"),
    ("client.to_first_apply_ms", "ms"),
    ("client.apply_spread_ms", "ms"),
    ("client.reply_ms", "ms"),
    ("client.retries", "count"),
    ("client.vote_failures", "count"),
    ("client.read_fallback_ratio", "ratio"),
    ("service.ordered_per_write", "cmd/write"),
    ("service.dedup_hits_per_write", "hit/write"),
    ("service.busy_rejected", "count"),
    ("rsm.submit_call_us", "us"),
    ("rsm.submit_to_own_apply_ms", "ms"),
    ("rsm.quorum_to_all_ms", "ms"),
    ("rsm.apply_us", "us"),
    ("ab.commands_per_batch", "cmd/batch"),
    ("ab.commands_per_agreement", "cmd/agreement"),
    ("ab.flush_size_share", "ratio"),
    ("ab.flush_age_share", "ratio"),
    ("ab.flush_idle_share", "ratio"),
    ("ab.seg.queue_ms", "ms"),
    ("ab.seg.rb_ms", "ms"),
    ("ab.seg.wait_ms", "ms"),
    ("ab.seg.vect_ms", "ms"),
    ("ab.seg.mvc_ms", "ms"),
    ("ab.seg.bc_ms", "ms"),
    ("ab.seg.mvc_decide_ms", "ms"),
    ("ab.seg.conclude_ms", "ms"),
    ("ab.seg.deliver_ms", "ms"),
    ("bc.rounds_mean", "rounds"),
    ("bc.coin_flips_per_agreement", "flips/agreement"),
    ("mvc.bottom_ratio", "ratio"),
    ("vc.rounds_mean", "rounds"),
    ("rb.delivered_per_op", "1/op"),
    ("eb.delivered_per_op", "1/op"),
    ("stack.frames_in_per_op", "frames/op"),
    ("stack.ooc_parked_ratio", "ratio"),
    ("stack.ooc_high_water", "count"),
    ("transport.frames_per_op", "frames/op"),
    ("transport.bytes_per_op", "B/op"),
    ("transport.retransmits", "count"),
    ("transport.backpressure", "count"),
    ("crypto.hmac_ns_per_kib", "ns/KiB"),
    ("crypto.sha1_ns_per_kib", "ns/KiB"),
    ("process.cpu_ms_per_op", "ms/op"),
    ("process.threads_peak", "count"),
    ("gen.late_p99_ms", "ms"),
    ("trace.overhead_p50_ratio", "ratio"),
    ("trace.spans_dropped", "count"),
];

/// Ungated per-layer metrics that `--trace 0` prints too, above its
/// result line: what a user of the service sees.
pub const USER_FACING: [&str; 8] = [
    "p50_ms",
    "p99_ms",
    "ops_per_s",
    "read_p50_ms",
    "read_p99_ms",
    "failed_ratio",
    "cpu_ms_per_op",
    "rss_mb",
];

/// One bench-side span: a call into the stack, or one apply of the
/// request at one replica. Spans of a request share its `req`.
pub struct Span {
    /// Request identifier.
    pub req: u64,
    /// What was timed.
    pub name: &'static str,
    /// Name of the enclosing span, if any.
    pub parent: Option<&'static str>,
    /// Replica the span ran at, if any.
    pub replica: Option<usize>,
    /// Start, nanoseconds.
    pub start_ns: u64,
    /// End, nanoseconds.
    pub end_ns: u64,
}

/// Writes the traced run's spans as JSON lines under `out/`, one file
/// per workload, and returns its path.
pub fn write_spans(workload: &str, spans: &[Span]) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.spans.jsonl"));
    let mut text = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = write!(text, "{{\"req\":{},\"name\":\"{}\"", s.req, s.name);
        if let Some(p) = s.parent {
            let _ = write!(text, ",\"parent\":\"{p}\"");
        }
        if let Some(r) = s.replica {
            let _ = write!(text, ",\"replica\":{r}");
        }
        let _ = writeln!(
            text,
            ",\"start_ns\":{},\"end_ns\":{}}}",
            s.start_ns, s.end_ns
        );
    }
    std::fs::write(&path, text)?;
    Ok(path)
}

struct Args {
    workload: String,
    plan: Plan,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1.0..=120.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 120".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        plan: Plan {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ritas-perf: {e}");
            eprintln!(
                "usage: ritas-perf --workload <svc-tcp|ab-open|ab-saturate> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    harness::watchdog(Duration::from_secs_f64(args.plan.seconds) + WATCHDOG_SLACK);
    let mut rounds = Vec::new();
    // Peak memory of the first round: later rounds start on memory the
    // allocator kept from torn-down groups.
    let mut rss_mb = 0.0;
    for round in 0..ROUNDS {
        let run = match args.workload.as_str() {
            "svc-tcp" => svc::run(&args.plan, round),
            "ab-open" => ab::run(&args.plan, round, ab::Shape::Open),
            "ab-saturate" => ab::run(&args.plan, round, ab::Shape::Saturate),
            other => Err(format!("unknown workload {other}")),
        };
        match run {
            Ok(o) => rounds.push(o),
            Err(e) => {
                eprintln!("ritas-perf: {} round {round} failed: {e}", args.workload);
                std::process::exit(1);
            }
        }
        if round == 0 {
            rss_mb = probe::peak_rss_mb();
        }
    }
    let mut out = match merge(rounds) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ritas-perf: {e}");
            std::process::exit(1);
        }
    };
    out.values.insert("rss_mb", rss_mb);
    out.values.insert(
        "failed_ratio",
        ratio(out.failed as f64, out.attempted as f64),
    );
    if args.plan.trace {
        match write_spans(&args.workload, &out.spans) {
            Ok(path) => out.notes.push(format!("spans: {}", path.display())),
            Err(e) => {
                eprintln!("ritas-perf: writing spans: {e}");
                std::process::exit(1);
            }
        }
        // Outside the workload window: the stack is shut down.
        out.values
            .insert("crypto.hmac_ns_per_kib", probe::hmac_ns_per_kib());
        out.values
            .insert("crypto.sha1_ns_per_kib", probe::sha1_ns_per_kib());
    }
    let catalogue: &[(&str, &str)] = if args.plan.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    match render(&args.workload, catalogue, &out, !args.plan.trace) {
        Ok(lines) => {
            let mut stdout = std::io::stdout().lock();
            let _ = stdout.write_all(lines.as_bytes());
            let _ = stdout.flush();
        }
        Err(e) => {
            eprintln!("ritas-perf: {e}");
            std::process::exit(1);
        }
    }
    if !out.violations.is_empty() {
        for v in &out.violations {
            eprintln!("ritas-perf: VIOLATION: {v}");
        }
        std::process::exit(1);
    }
}

/// The human-readable table and, as the last line, the JSON result.
/// Fails when the workload left a catalogue metric unreported, or an
/// end-to-end metric reads 0 or not a number.
fn render(
    workload: &str,
    catalogue: &[(&str, &str)],
    out: &Outcome,
    end_to_end: bool,
) -> Result<String, String> {
    let mut text = String::new();
    let mut json = String::new();
    let _ = writeln!(text, "# {workload}");
    for note in &out.notes {
        let _ = writeln!(text, "# {note}");
    }
    for (i, &(name, unit)) in catalogue.iter().enumerate() {
        if !stats::valid_name(name) || !stats::valid_unit(unit) {
            return Err(format!(
                "metric {name:?} in {unit:?} breaks the name grammar"
            ));
        }
        let value = *out
            .values
            .get(name)
            .ok_or_else(|| format!("{workload} did not report {name}"))?;
        if !value.is_finite() || (end_to_end && value <= 0.0) {
            return Err(format!("{workload} reported {name} = {value}"));
        }
        let _ = writeln!(text, "{name:<32} {value:>16.4} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    if end_to_end {
        for (name, unit) in PER_LAYER.iter().filter(|(n, _)| USER_FACING.contains(n)) {
            if let Some(value) = out.values.get(name) {
                let _ = writeln!(text, "{name:<32} {value:>16.4} {unit} (not gated)");
            }
        }
    }
    let _ = writeln!(
        text,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.violations.is_empty(),
        out.attempted,
        out.failed
    );
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_and_units_follow_the_grammar() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(stats::valid_name(name), "{name}");
            assert!(stats::valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for name in USER_FACING {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let (e2e, layers) = text.split_once("\"per_layer\"").expect("per_layer section");
        let e2e = e2e
            .split_once("\"end_to_end\"")
            .expect("end_to_end section")
            .1;
        let entries = |section: &str| -> Vec<(String, String)> {
            section
                .split("\"name\": \"")
                .skip(1)
                .map(|s| {
                    let name = s.split('"').next().unwrap().to_string();
                    let unit = s.split("\"unit\": \"").nth(1).unwrap();
                    (name, unit.split('"').next().unwrap().to_string())
                })
                .collect()
        };
        let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(entries(e2e), owned(&END_TO_END));
        assert_eq!(entries(layers), owned(&PER_LAYER));
    }

    #[test]
    fn result_line_is_last_and_rejects_gaps() {
        let mut out = Outcome {
            attempted: 4,
            failed: 0,
            ..Outcome::default()
        };
        out.values.insert("setup_s", 0.25);
        let text = render("w", &[("setup_s", "s")], &out, true).unwrap();
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(render("w", &[("p50_ms", "ms")], &out, true).is_err());
        out.values.insert("setup_s", 0.0);
        assert!(render("w", &[("setup_s", "s")], &out, true).is_err());
        assert!(render("w", &[("setup_s", "s")], &out, false).is_ok());
    }
}
