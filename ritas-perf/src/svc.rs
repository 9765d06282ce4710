//! `svc-tcp`: two closed-loop `ServiceClient`s against four TCP service
//! front-ends over a TCP replica mesh. Writes are 64 B; one operation in
//! every four, at a seeded position, is an optimistic read.

use crate::harness::{
    audit, book_barriers, command, final_barriers, mesh_cost, ms, now_ns, protocol_ledger, ratio,
    req_id, stage, us, ApplyLog, BenchState, Rng, Window, N, QUORUM, SETUPS,
};
use crate::stats::{self, Summary};
use crate::{probe, Outcome, Plan, Span};
use bytes::Bytes;
use ritas::node::{Node, SessionConfig};
use ritas::service::{ServiceConfig, ServiceReplica};
use ritas_crypto::ClientKeyDealer;
use ritas_metrics::{Metrics, MetricsSnapshot};
use ritas_service::client::{ClientConfig, ServiceClient};
use ritas_service::server::{ServerConfig, ServiceServer};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const WRITE_BYTES: usize = 64;

/// One client operation.
struct Op {
    phase: usize,
    client: u64,
    /// The write's sequence number; 0 for reads.
    seq: u64,
    start_ns: u64,
    end_ns: u64,
    /// The reply value, `None` when the operation failed.
    value: Option<u64>,
    /// Writes issued by any client when a read returned.
    issued: u64,
}

struct Group {
    servers: Vec<ServiceServer<BenchState>>,
    clients: Vec<ServiceClient>,
    log: Arc<ApplyLog>,
    client_metrics: Metrics,
}

fn reply_value(b: &Bytes) -> Option<u64> {
    Some(u64::from_be_bytes(b.as_ref().try_into().ok()?))
}

impl Group {
    /// Builds the group and returns it with the time from the start of
    /// construction to the first successful reply.
    fn build(seed: u64, ids: [u64; CLIENTS], first: Bytes) -> Result<(Group, f64), String> {
        let t0 = Instant::now();
        let session = SessionConfig::new(N)
            .map_err(|e| format!("{e:?}"))?
            .with_master_seed(seed);
        let key_seed = session.client_key_seed();
        let nodes = Node::tcp_cluster(session, Duration::from_secs(10))
            .map_err(|e| format!("tcp mesh: {e}"))?;
        let log = Arc::new(ApplyLog::new(false, None));
        let mut servers = Vec::with_capacity(N);
        for (i, node) in nodes.into_iter().enumerate() {
            node.metrics().set_tracing(false);
            let log = Arc::clone(&log);
            let replica = Arc::new(ServiceReplica::new(
                node,
                BenchState::default(),
                ServiceConfig::default(),
                move |s: &mut BenchState, client, cmd: &[u8]| {
                    Bytes::copy_from_slice(&log.apply(s, i, client, cmd).to_be_bytes())
                },
                |s: &BenchState, _q: &[u8]| Bytes::copy_from_slice(&s.total.to_be_bytes()),
            ));
            let server = ServiceServer::spawn(
                replica,
                ClientKeyDealer::new(key_seed),
                ServerConfig::default(),
            )
            .map_err(|e| format!("front-end: {e}"))?;
            servers.push(server);
        }
        let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
        let client_metrics = Metrics::new();
        client_metrics.set_tracing(false);
        let mut clients: Vec<ServiceClient> = ids
            .iter()
            .map(|&id| {
                let config = ClientConfig {
                    key_seed,
                    metrics: client_metrics.clone(),
                    ..ClientConfig::default()
                };
                ServiceClient::new(id, addrs.clone(), config)
            })
            .collect();
        let reply = clients[0]
            .invoke(first)
            .map_err(|e| format!("first reply: {e}"))?;
        let setup = t0.elapsed().as_secs_f64();
        let group = Group {
            servers,
            clients,
            log,
            client_metrics,
        };
        if reply_value(&reply) != Some(1) {
            group.shutdown();
            return Err(format!("first write replied {reply:?}, not 1"));
        }
        Ok((group, setup))
    }

    /// The replicas' snapshots, then the clients' shared registry.
    fn snapshots(&self) -> Vec<MetricsSnapshot> {
        self.servers
            .iter()
            .map(|s| s.replica().metrics().snapshot())
            .chain([self.client_metrics.snapshot()])
            .collect()
    }

    /// Switches span tracing and the apply log on for the traced phase.
    fn trace_on(&self) {
        for s in &self.servers {
            s.replica().metrics().set_tracing(true);
        }
        self.client_metrics.set_tracing(true);
        self.log.set_enabled(true);
    }

    fn shutdown(mut self) {
        for c in &mut self.clients {
            c.shutdown();
        }
        for s in &mut self.servers {
            s.replica().shutdown();
            s.shutdown();
        }
    }
}

/// One client thread: runs each phase between two rendezvous with the
/// main thread, writing and reading in a seeded four-operation pattern.
fn drive(
    client: &mut ServiceClient,
    mut next_seq: u64,
    mut rng: Rng,
    phases: &[Duration],
    barrier: &Barrier,
    issued: &AtomicU64,
) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut k = 0u64;
    let mut read_slot = 0;
    for (phase, &length) in phases.iter().enumerate() {
        barrier.wait();
        let end = Instant::now() + length;
        while Instant::now() < end {
            if k.is_multiple_of(4) {
                read_slot = rng.below(4);
            }
            let write = k % 4 != read_slot;
            k += 1;
            let start_ns = now_ns();
            let (seq, value) = if write {
                let seq = next_seq;
                next_seq += 1;
                let cmd = command(seq, WRITE_BYTES, &mut rng);
                issued.fetch_add(1, Ordering::SeqCst);
                (seq, client.invoke(cmd).ok().and_then(|r| reply_value(&r)))
            } else {
                (
                    0,
                    client.read(Bytes::new()).ok().and_then(|r| reply_value(&r)),
                )
            };
            ops.push(Op {
                phase,
                client: client.id(),
                seq,
                start_ns,
                end_ns: now_ns(),
                value,
                issued: issued.load(Ordering::SeqCst),
            });
        }
        barrier.wait();
    }
    ops
}

/// Runs one round of `svc-tcp` on a fresh group.
pub fn run(plan: &Plan, round: u64) -> Result<Outcome, String> {
    let mut rng = Rng::new(plan.seed, round << 8);
    let mut out = Outcome::default();
    // The seed picks the client ids, and with them the replicas each
    // request is submitted at.
    let base = 1 + rng.below(1 << 20);
    let ids = [base, base + 1];
    let mut built = None;
    for _ in 0..SETUPS {
        stage(format!("svc-tcp round {round}: building the group"));
        if let Some(old) = built.take() {
            Group::shutdown(old);
        }
        let (g, setup) = Group::build(plan.seed ^ round, ids, command(1, WRITE_BYTES, &mut rng))?;
        out.setups.push(setup);
        built = Some(g);
    }
    let mut group = built.expect("SETUPS > 0");
    let phases = plan.phases();
    let barrier = Barrier::new(CLIENTS + 1);
    // Client 0's first write built the group.
    let issued = AtomicU64::new(1);
    let mut phase_start = vec![0u64; phases.len()];
    // Process CPU time at each phase's start and end.
    let mut cpu_ms = vec![(0.0, 0.0); phases.len()];
    let mut threads_peak = probe::threads();
    // Counter snapshots at the start of each phase and the end of the
    // last; the traced phase's start is taken with tracing on.
    let mut snaps = Vec::with_capacity(phases.len() + 1);

    let streams: Vec<Rng> = (0..CLIENTS)
        .map(|c| Rng::new(plan.seed, (round << 8) + 1 + c as u64))
        .collect();
    let mut clients = std::mem::take(&mut group.clients);
    let ops: Vec<Op> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .enumerate()
            .map(|(c, (client, stream))| {
                let (phases, barrier, issued) = (&phases, &barrier, &issued);
                let first_seq = if c == 0 { 2 } else { 1 };
                scope.spawn(move || drive(client, first_seq, stream, phases, barrier, issued))
            })
            .collect();
        for (p, (start, cpu)) in phase_start.iter_mut().zip(&mut cpu_ms).enumerate() {
            if p == Plan::TRACED {
                group.trace_on();
            }
            snaps.push(group.snapshots());
            barrier.wait();
            *start = now_ns();
            cpu.0 = probe::cpu_ms();
            stage(format!("svc-tcp round {round}: phase {p}"));
            barrier.wait();
            cpu.1 = probe::cpu_ms();
            threads_peak = threads_peak.max(probe::threads());
        }
        snaps.push(group.snapshots());
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    group.clients = clients;

    let measured = |p: usize| ops.iter().filter(move |o| o.phase == p);
    for o in ops.iter().filter(|o| o.phase >= Plan::MEASURED) {
        out.attempted += 1;
        out.failed += u64::from(o.value.is_none());
    }

    // Correctness, after a barrier at every replica that has not stalled.
    stage(format!("svc-tcp round {round}: final barrier"));
    let replicas: Vec<_> = group
        .servers
        .iter()
        .map(|s| Arc::clone(s.replica()))
        .collect();
    let done = final_barriers(&replicas, |r| r.barrier().is_ok());
    book_barriers(&mut out, &done, &group.snapshots());
    let states: Vec<BenchState> = replicas
        .iter()
        .zip(&done)
        .filter(|(_, d)| **d)
        .map(|(r, _)| r.read_state(BenchState::clone))
        .collect();
    let writes_ok: Vec<&Op> = ops
        .iter()
        .filter(|o| o.seq != 0 && o.value.is_some())
        .collect();
    let mut acknowledged: Vec<(u64, u64)> = writes_ok.iter().map(|o| (o.client, o.seq)).collect();
    acknowledged.push((ids[0], 1));
    out.violations
        .extend(audit(&states.iter().collect::<Vec<_>>(), &acknowledged));
    let mut replies = HashSet::new();
    replies.insert(1);
    for o in &writes_ok {
        if !replies.insert(o.value.expect("filtered")) {
            out.violations
                .push(format!("two writes replied {}", o.value.unwrap_or(0)));
        }
    }
    for o in ops.iter().filter(|o| o.seq == 0) {
        if let Some(v) = o.value.filter(|&v| v > o.issued) {
            out.violations.push(format!(
                "read returned {v} with only {} writes issued",
                o.issued
            ));
        }
    }

    let latencies = |p: usize, write: bool| -> Vec<u64> {
        measured(p)
            .filter(|o| (o.seq != 0) == write && o.value.is_some())
            .map(|o| o.end_ns - o.start_ns)
            .collect()
    };
    out.latencies = latencies(Plan::MEASURED, true);
    out.read_latencies = latencies(Plan::MEASURED, false);
    let writes = Summary::of(out.latencies.clone()).ok_or("no write succeeded")?;
    let window_end = phase_start[Plan::MEASURED] + phases[Plan::MEASURED].as_nanos() as u64;
    let completed = measured(Plan::MEASURED)
        .filter(|o| o.value.is_some() && o.end_ns <= window_end)
        .count();
    out.values.insert(
        "ops_per_s",
        completed as f64 / phases[Plan::MEASURED].as_secs_f64(),
    );
    let cpu_in = |p: usize| cpu_ms[p].1 - cpu_ms[p].0;
    let done_in = |p: usize| measured(p).filter(|o| o.value.is_some()).count() as f64;
    out.values.insert(
        "cpu_ms_per_op",
        ratio(cpu_in(Plan::MEASURED), done_in(Plan::MEASURED)),
    );
    let window = |p: usize| Window::new(snaps[p].clone(), snaps[p + 1].clone());
    mesh_cost(
        &window(Plan::MEASURED),
        done_in(Plan::MEASURED),
        &mut out.values,
    );

    if plan.trace {
        let w = window(Plan::TRACED);
        let traced_writes: Vec<&&Op> = writes_ok
            .iter()
            .filter(|o| o.phase == Plan::TRACED)
            .collect();
        let traced_reads = measured(Plan::TRACED).filter(|o| o.seq == 0).count();
        let mut segs = [Vec::new(), Vec::new(), Vec::new()];
        let (mut straggle, mut apply) = (Vec::new(), Vec::new());
        let mut spans = Vec::new();
        for o in &traced_writes {
            let req = req_id(o.client, o.seq);
            let applies = group.log.get(req);
            let mut ends: Vec<u64> = applies.iter().map(|a| a.end_ns).collect();
            ends.sort_unstable();
            if ends.len() < QUORUM {
                out.violations.push(format!(
                    "write {}:{} replied with {} applies recorded",
                    o.client,
                    o.seq,
                    ends.len()
                ));
                continue;
            }
            match stats::segments(&[o.start_ns, ends[0], ends[QUORUM - 1], o.end_ns]).and_then(
                |s| {
                    stats::check_sum("client segments", &s, o.end_ns - o.start_ns)?;
                    Ok(s)
                },
            ) {
                Ok(s) => {
                    for (acc, d) in segs.iter_mut().zip(s) {
                        acc.push(d);
                    }
                }
                Err(e) => out
                    .violations
                    .push(format!("write {}:{}: {e}", o.client, o.seq)),
            }
            if ends.len() == N {
                straggle.push(ends[N - 1] - ends[QUORUM - 1]);
            }
            spans.push(Span {
                req,
                name: "invoke",
                parent: None,
                replica: None,
                start_ns: o.start_ns,
                end_ns: o.end_ns,
            });
            for a in applies {
                apply.push(a.end_ns - a.start_ns);
                spans.push(Span {
                    req,
                    name: "apply",
                    parent: Some("invoke"),
                    replica: Some(a.replica),
                    start_ns: a.start_ns,
                    end_ns: a.end_ns,
                });
            }
        }
        for o in measured(Plan::TRACED).filter(|o| o.seq == 0) {
            spans.push(Span {
                req: req_id(o.client, 0),
                name: "read",
                parent: None,
                replica: None,
                start_ns: o.start_ns,
                end_ns: o.end_ns,
            });
        }
        let med = |xs: &[u64]| stats::median(xs).unwrap_or(0);
        let writes_n = traced_writes.len() as f64;
        let v = &mut out.values;
        v.insert("client.to_first_apply_ms", ms(med(&segs[0])));
        v.insert("client.apply_spread_ms", ms(med(&segs[1])));
        v.insert("client.reply_ms", ms(med(&segs[2])));
        v.insert("client.retries", w.delta("service_client_retries") as f64);
        v.insert(
            "client.vote_failures",
            w.delta("service_client_vote_failures") as f64,
        );
        v.insert(
            "client.read_fallback_ratio",
            ratio(
                w.delta("service_client_read_fallbacks") as f64,
                traced_reads as f64,
            ),
        );
        v.insert(
            "service.ordered_per_write",
            ratio(w.delta("ab_broadcast") as f64, writes_n),
        );
        v.insert(
            "service.dedup_hits_per_write",
            ratio(w.delta("service_dedup_hits") as f64, writes_n),
        );
        v.insert(
            "service.busy_rejected",
            w.delta("service_busy_rejected") as f64,
        );
        // svc-tcp never calls `Replica::submit` itself.
        v.insert("rsm.submit_call_us", 0.0);
        v.insert("rsm.submit_to_own_apply_ms", 0.0);
        v.insert("rsm.quorum_to_all_ms", ms(med(&straggle)));
        v.insert("rsm.apply_us", us(med(&apply)));
        v.insert(
            "process.cpu_ms_per_op",
            ratio(cpu_in(Plan::TRACED), done_in(Plan::TRACED)),
        );
        v.insert("process.threads_peak", threads_peak as f64);
        v.insert("gen.late_p99_ms", 0.0);
        let traced_p50 = Summary::of(latencies(Plan::TRACED, true)).map_or(0, |s| s.p50_ns);
        v.insert(
            "trace.overhead_p50_ratio",
            ratio(traced_p50 as f64, writes.p50_ns as f64) - 1.0,
        );
        if let Err(e) = protocol_ledger(&w, traced_writes.len() as u64, v) {
            out.violations.push(e);
        }
        out.spans = spans;
    }
    stage(format!("svc-tcp round {round}: shutting the group down"));
    group.shutdown();
    Ok(out)
}
