//! `ab-open` and `ab-saturate`: commands submitted through
//! `rsm::Replica::submit`, round-robin over the replicas of an in-memory
//! hub mesh, each complete once `f+1` replicas have applied it.
//!
//! * `ab-open` — one generator thread offers 1 000 cmd/s of 64 B on a
//!   fixed schedule, timing each command from when it was due.
//! * `ab-saturate` — one thread keeps 256 commands of 1 KiB outstanding;
//!   each completion releases the next command, which is timed from that
//!   release, so time the generator takes to get it out counts.
//!
//! Beside the generator, a second thread reads the replicated total in a
//! closed loop, linearizably: `rsm::Replica::barrier` then
//! `rsm::Replica::read` at a seeded replica.

use crate::harness::{
    audit, book_barriers, command, final_barriers, mesh_cost, ms, now_ns, protocol_ledger, ratio,
    req_id, stage, us, ApplyLog, BenchState, Rng, Window, N, QUORUM, SETUPS,
};
use crate::stats::{self, Schedule, Summary};
use crate::{probe, Outcome, Plan, Span};
use crossbeam_channel::{unbounded, Receiver};
use ritas::node::{Node, SessionConfig};
use ritas::rsm::Replica;
use ritas_metrics::MetricsSnapshot;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which generator drives the group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Open loop at [`OPEN_RATE`].
    Open,
    /// [`OUTSTANDING`] commands in flight.
    Saturate,
}

/// Offered load of `ab-open`, commands per second.
const OPEN_RATE: f64 = 1_000.0;
/// Commands `ab-saturate` keeps in flight.
const OUTSTANDING: usize = 256;
/// How long in-flight commands may take to complete after the last
/// phase before they count as failed.
const DRAIN: Duration = Duration::from_secs(20);
/// Requests of the generator use this client id.
const GEN: u64 = 0;

impl Shape {
    fn bytes(self) -> usize {
        match self {
            Shape::Open => 64,
            Shape::Saturate => 1024,
        }
    }
}

/// One submitted command.
struct Sub {
    phase: usize,
    seq: u64,
    replica: usize,
    /// When it was due (open loop) or its slot was released (saturate).
    due_ns: u64,
    /// The `Replica::submit` call.
    start_ns: u64,
    end_ns: u64,
    ok: bool,
}

/// One linearizable read of the replicated total.
struct Read {
    start_ns: u64,
    end_ns: u64,
    /// The total read, `None` when the barrier failed.
    value: Option<u64>,
    /// Commands complete when the read started: the least it may see.
    completed: u64,
    /// Commands submitted when the read returned: the most it may see.
    submitted: u64,
}

struct Group {
    replicas: Vec<Arc<Replica<BenchState>>>,
    log: Arc<ApplyLog>,
    done: Receiver<(u64, u64)>,
}

impl Group {
    fn build(seed: u64, first: bytes::Bytes) -> Result<(Group, f64), String> {
        let t0 = Instant::now();
        let session = SessionConfig::new(N)
            .map_err(|e| format!("{e:?}"))?
            .with_master_seed(seed);
        let nodes = Node::cluster(session).map_err(|e| format!("hub mesh: {e}"))?;
        let (tx, done) = unbounded();
        let log = Arc::new(ApplyLog::new(true, Some(tx)));
        let replicas: Vec<_> = nodes
            .into_iter()
            .enumerate()
            .map(|(i, node)| {
                node.metrics().set_tracing(false);
                let log = Arc::clone(&log);
                Arc::new(Replica::new(
                    node,
                    BenchState::default(),
                    move |s, _from, cmd| {
                        log.apply(s, i, GEN, cmd);
                    },
                ))
            })
            .collect();
        let group = Group {
            replicas,
            log,
            done,
        };
        let first_done = group.replicas[0]
            .submit(first)
            .map_err(|e| format!("first submit: {e}"))
            .and_then(|_| {
                group
                    .done
                    .recv_timeout(Duration::from_secs(30))
                    .map_err(|_| "first command never reached f+1 applies".to_string())
            });
        let setup = t0.elapsed().as_secs_f64();
        match first_done {
            Ok(_) => Ok((group, setup)),
            Err(e) => {
                group.shutdown();
                Err(e)
            }
        }
    }

    fn snapshots(&self) -> Vec<MetricsSnapshot> {
        self.replicas
            .iter()
            .map(|r| r.node().metrics_snapshot())
            .collect()
    }

    fn shutdown(self) {
        for r in &self.replicas {
            r.shutdown();
        }
    }
}

/// Per-phase bookkeeping the generator does at phase boundaries.
struct Phases {
    bounds: Vec<u64>,
    current: usize,
    /// Process CPU time when each phase began, then when the last ended.
    cpu_ms: Vec<f64>,
    /// Counter snapshots at the same instants; the traced phase's start
    /// is taken with tracing on.
    snaps: Vec<Vec<MetricsSnapshot>>,
    threads_peak: u64,
}

impl Phases {
    fn new(start_ns: u64, lengths: &[Duration], group: &Group) -> Phases {
        let mut bounds = vec![start_ns];
        for l in lengths {
            bounds.push(bounds.last().expect("non-empty") + l.as_nanos() as u64);
        }
        Phases {
            bounds,
            current: 0,
            cpu_ms: vec![probe::cpu_ms()],
            snaps: vec![group.snapshots()],
            threads_peak: probe::threads(),
        }
    }

    fn end_ns(&self) -> u64 {
        *self.bounds.last().expect("non-empty")
    }

    /// The phase `t` falls in, crossing boundaries on the way: the traced
    /// phase switches tracing on and opens the counter window.
    fn at(&mut self, t: u64, group: &Group) -> usize {
        while self.current + 1 < self.bounds.len() - 1 && t >= self.bounds[self.current + 1] {
            self.current += 1;
            stage(format!("measured phase {}", self.current));
            self.threads_peak = self.threads_peak.max(probe::threads());
            if self.current == Plan::TRACED {
                for r in &group.replicas {
                    r.node().metrics().set_tracing(true);
                }
            }
            self.snaps.push(group.snapshots());
            self.cpu_ms.push(probe::cpu_ms());
        }
        self.current
    }

    fn finish(&mut self, group: &Group) {
        self.cpu_ms.push(probe::cpu_ms());
        self.threads_peak = self.threads_peak.max(probe::threads());
        self.snaps.push(group.snapshots());
    }

    /// Counter growth over phase `p`.
    fn window(&self, p: usize) -> Window {
        Window::new(self.snaps[p].clone(), self.snaps[p + 1].clone())
    }

    /// Process CPU milliseconds spent in phase `p`.
    fn cpu_in(&self, p: usize) -> f64 {
        self.cpu_ms[p + 1] - self.cpu_ms[p]
    }

    /// Whether `t` lies in phase `p`.
    fn contains(&self, p: usize, t: u64) -> bool {
        self.bounds[p] <= t && t < self.bounds[p + 1]
    }
}

/// Runs one round of `ab-open` or `ab-saturate` on a fresh group.
pub fn run(plan: &Plan, round: u64, shape: Shape) -> Result<Outcome, String> {
    let mut rng = Rng::new(plan.seed, round << 8);
    let mut out = Outcome::default();
    let mut built = None;
    for _ in 0..SETUPS {
        stage(format!("{shape:?} round {round}: building the group"));
        if let Some(old) = built.take() {
            Group::shutdown(old);
        }
        let (g, setup) = Group::build(plan.seed ^ round, command(0, shape.bytes(), &mut rng))?;
        out.setups.push(setup);
        built = Some(g);
    }
    let group = built.expect("SETUPS > 0");
    // The seed picks where the round-robin starts.
    let offset = rng.below(N as u64) as usize;
    let lengths = plan.phases();
    let mut phases = Phases::new(now_ns() + 1_000_000, &lengths, &group);
    let mut subs: Vec<Sub> = Vec::new();
    let mut next_seq = 1u64;
    // The set-up command counts as submitted.
    let submitted = AtomicU64::new(1);
    let stop = AtomicBool::new(false);

    let mut submit = |due_ns: u64, phase: usize, rng: &mut Rng, subs: &mut Vec<Sub>| {
        let seq = next_seq;
        next_seq += 1;
        let replica = (offset + seq as usize) % N;
        let cmd = command(seq, shape.bytes(), rng);
        submitted.fetch_add(1, Ordering::SeqCst);
        let start_ns = now_ns();
        let ok = group.replicas[replica].submit(cmd).is_ok();
        subs.push(Sub {
            phase,
            seq,
            replica,
            due_ns,
            start_ns,
            end_ns: now_ns(),
            ok,
        });
    };
    let reader = |mut rng: Rng| {
        let mut reads = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            let r = &group.replicas[rng.below(N as u64) as usize];
            let completed = group.log.completed();
            let start_ns = now_ns();
            let value = r.barrier().ok().map(|()| r.read(|s| s.total));
            reads.push(Read {
                start_ns,
                end_ns: now_ns(),
                value,
                completed,
                submitted: submitted.load(Ordering::SeqCst),
            });
        }
        reads
    };

    let schedule = Schedule::new(phases.bounds[0], OPEN_RATE);
    let reads: Vec<Read> = std::thread::scope(|scope| {
        let reads = scope.spawn(|| reader(Rng::new(plan.seed, (round << 8) + 1)));
        match shape {
            Shape::Open => {
                let mut i = 0u64;
                loop {
                    let due = schedule.due_ns(i);
                    if due >= phases.end_ns() {
                        break;
                    }
                    let now = now_ns();
                    if due > now {
                        std::thread::sleep(Duration::from_nanos(due - now));
                    }
                    let phase = phases.at(due, &group);
                    submit(due, phase, &mut rng, &mut subs);
                    i += 1;
                }
            }
            Shape::Saturate => {
                // Release times of the free slots; the first fill is due
                // at the start, every later command when its slot's
                // previous command completed.
                let mut released: VecDeque<u64> =
                    std::iter::repeat_n(phases.bounds[0], OUTSTANDING).collect();
                while now_ns() < phases.end_ns() {
                    let phase = phases.at(now_ns(), &group);
                    while let Some(due) = released.pop_front() {
                        submit(due, phase, &mut rng, &mut subs);
                    }
                    if let Ok(first) = group.done.recv_timeout(Duration::from_secs(1)) {
                        let freed = std::iter::once(first).chain(group.done.try_iter());
                        released.extend(freed.map(|(_, end_ns)| end_ns));
                    }
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
        stage(format!("{shape:?} round {round}: joining the reader"));
        reads.join().expect("reader thread panicked")
    });
    phases.finish(&group);

    // Drain: every submitted command (and the set-up one) must reach a
    // reply quorum, or it counts as failed.
    stage(format!("{shape:?} round {round}: draining"));
    let submitted_ok = subs.iter().filter(|s| s.ok).count() as u64 + 1;
    let deadline = Instant::now() + DRAIN;
    while group.log.completed() < submitted_ok && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }

    stage(format!("{shape:?} round {round}: final barrier"));
    let finished = final_barriers(&group.replicas, |r| r.barrier().is_ok());
    book_barriers(&mut out, &finished, &group.snapshots());
    // Completion of each command: its (f+1)-th apply.
    let done: Vec<Option<u64>> = subs
        .iter()
        .map(|s| {
            s.ok.then(|| group.log.kth_end(req_id(GEN, s.seq), QUORUM))
                .flatten()
        })
        .collect();
    let measured = subs
        .iter()
        .zip(&done)
        .filter(|(s, _)| s.phase >= Plan::MEASURED);
    for (_, d) in measured {
        out.attempted += 1;
        out.failed += u64::from(d.is_none());
    }
    let states: Vec<BenchState> = group
        .replicas
        .iter()
        .zip(&finished)
        .filter(|(_, d)| **d)
        .map(|(r, _)| r.read(BenchState::clone))
        .collect();
    let mut acknowledged: Vec<(u64, u64)> = subs
        .iter()
        .zip(&done)
        .filter(|(_, d)| d.is_some())
        .map(|(s, _)| (GEN, s.seq))
        .collect();
    acknowledged.push((GEN, 0));
    out.violations
        .extend(audit(&states.iter().collect::<Vec<_>>(), &acknowledged));
    for r in &reads {
        match r.value {
            Some(v) if v > r.submitted => out.violations.push(format!(
                "read returned {v} with only {} commands submitted",
                r.submitted
            )),
            Some(v) if v < r.completed => out.violations.push(format!(
                "read returned {v} after {} commands completed",
                r.completed
            )),
            _ => {}
        }
    }

    let latency = |p: usize| -> Vec<u64> {
        subs.iter()
            .zip(&done)
            .filter(|(s, _)| s.phase == p)
            .filter_map(|(s, d)| d.map(|d| stats::since(s.due_ns, d)))
            .collect()
    };
    let completed_in = |p: usize| {
        done.iter()
            .flatten()
            .filter(|&&d| phases.contains(p, d))
            .count() as f64
    };
    out.latencies = latency(Plan::MEASURED);
    out.read_latencies = reads
        .iter()
        .filter(|r| phases.contains(Plan::MEASURED, r.start_ns) && r.value.is_some())
        .map(|r| r.end_ns - r.start_ns)
        .collect();
    for r in reads
        .iter()
        .filter(|r| r.start_ns >= phases.bounds[Plan::MEASURED])
    {
        out.attempted += 1;
        out.failed += u64::from(r.value.is_none());
    }
    let commands = Summary::of(out.latencies.clone()).ok_or("no command completed")?;
    out.values.insert(
        "ops_per_s",
        completed_in(Plan::MEASURED) / lengths[Plan::MEASURED].as_secs_f64(),
    );
    out.values.insert(
        "cpu_ms_per_op",
        ratio(
            phases.cpu_in(Plan::MEASURED),
            completed_in(Plan::MEASURED) + out.read_latencies.len() as f64,
        ),
    );
    mesh_cost(
        &phases.window(Plan::MEASURED),
        completed_in(Plan::MEASURED) + out.read_latencies.len() as f64,
        &mut out.values,
    );

    if plan.trace {
        let w = phases.window(Plan::TRACED);
        let committed = completed_in(Plan::TRACED);
        let (mut call, mut own, mut straggle, mut apply) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut spans = Vec::new();
        for s in subs.iter().filter(|s| s.phase == Plan::TRACED && s.ok) {
            let req = req_id(GEN, s.seq);
            let applies = group.log.get(req);
            call.push(s.end_ns - s.start_ns);
            if let Some(a) = applies.iter().find(|a| a.replica == s.replica) {
                own.push(a.end_ns.saturating_sub(s.start_ns));
            }
            let ends: Vec<u64> = applies.iter().map(|a| a.end_ns).collect();
            if let (Some(q), Some(all)) = (
                stats::kth_earliest(&ends, QUORUM),
                stats::kth_earliest(&ends, N),
            ) {
                straggle.push(all - q);
            }
            spans.push(Span {
                req,
                name: "submit",
                parent: None,
                replica: Some(s.replica),
                start_ns: s.start_ns,
                end_ns: s.end_ns,
            });
            for a in applies {
                apply.push(a.end_ns - a.start_ns);
                spans.push(Span {
                    req,
                    name: "apply",
                    parent: Some("submit"),
                    replica: Some(a.replica),
                    start_ns: a.start_ns,
                    end_ns: a.end_ns,
                });
            }
        }
        let med = |xs: &[u64]| stats::median(xs).unwrap_or(0);
        let mut late: Vec<u64> = subs
            .iter()
            .filter(|s| s.phase == Plan::MEASURED)
            .map(|s| stats::since(s.due_ns, s.start_ns))
            .collect();
        late.sort_unstable();
        let v = &mut out.values;
        for name in [
            "client.to_first_apply_ms",
            "client.apply_spread_ms",
            "client.reply_ms",
            "client.retries",
            "client.vote_failures",
            "client.read_fallback_ratio",
            "service.ordered_per_write",
            "service.dedup_hits_per_write",
            "service.busy_rejected",
        ] {
            // No client or service front-end on this workload's path.
            v.insert(name, 0.0);
        }
        v.insert("rsm.submit_call_us", us(med(&call)));
        v.insert("rsm.submit_to_own_apply_ms", ms(med(&own)));
        v.insert("rsm.quorum_to_all_ms", ms(med(&straggle)));
        v.insert("rsm.apply_us", us(med(&apply)));
        v.insert(
            "process.cpu_ms_per_op",
            ratio(phases.cpu_in(Plan::TRACED), committed),
        );
        v.insert("process.threads_peak", phases.threads_peak as f64);
        v.insert(
            "gen.late_p99_ms",
            ms(stats::percentile(&late, 0.99).unwrap_or(0)),
        );
        let traced_p50 = Summary::of(latency(Plan::TRACED)).map_or(0, |s| s.p50_ns);
        v.insert(
            "trace.overhead_p50_ratio",
            ratio(traced_p50 as f64, commands.p50_ns as f64) - 1.0,
        );
        if let Err(e) = protocol_ledger(&w, committed as u64, v) {
            out.violations.push(e);
        }
        out.spans = spans;
    }
    stage(format!("{shape:?} round {round}: shutting the group down"));
    group.shutdown();
    Ok(out)
}
