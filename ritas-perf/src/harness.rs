//! Pieces every workload shares: the clock, the seeded input generator,
//! the replicated state with its correctness audit, the bench-side apply
//! log, and the counter deltas read from the public metric snapshots.

use crate::stats;
use bytes::Bytes;
use crossbeam_channel::Sender;
use ritas_metrics::MetricsSnapshot;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Group size of every workload.
pub const N: usize = 4;
/// Faults tolerated by the group.
pub const F: usize = 1;
/// Applies after which a command has a reply quorum.
pub const QUORUM: usize = F + 1;
/// Times the group is built per round; `setup_s` is the median over
/// all builds of a run.
pub const SETUPS: usize = 2;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static STAGE: Mutex<String> = Mutex::new(String::new());

/// Records what the run is doing, for the watchdog's report.
pub fn stage(what: String) {
    *STAGE.lock().unwrap_or_else(PoisonError::into_inner) = what;
}

/// Ends the process with exit code 3, naming the stage it was in, if it
/// is still running after `limit`: a group that stops making progress
/// would otherwise block a barrier or a join for ever. The thread is
/// left detached; it dies with the process.
pub fn watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        let stage = STAGE.lock().unwrap_or_else(PoisonError::into_inner);
        eprintln!(
            "ritas-perf: no result after {} s; stuck at: {stage}",
            limit.as_secs()
        );
        std::process::exit(3);
    });
}

/// How long the final barrier at a replica may take before the replica
/// counts as stalled.
pub const BARRIER_LIMIT: Duration = Duration::from_secs(10);

/// Runs `barrier` at every replica at once; returns which replicas
/// completed it within [`BARRIER_LIMIT`]. A replica that has stopped
/// applying blocks its barrier for ever, so each barrier runs on a thread
/// of its own, and the thread of a stalled replica is left detached.
pub fn final_barriers<R: Send + Sync + 'static>(
    replicas: &[Arc<R>],
    barrier: fn(&R) -> bool,
) -> Vec<bool> {
    let (tx, rx) = crossbeam_channel::unbounded();
    for (i, r) in replicas.iter().enumerate() {
        let (r, tx) = (Arc::clone(r), tx.clone());
        std::thread::spawn(move || {
            let _ = tx.send((i, barrier(&r)));
        });
    }
    let deadline = Instant::now() + BARRIER_LIMIT;
    let mut done = vec![false; replicas.len()];
    for _ in replicas {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok((i, ok)) => done[i] = ok,
            Err(_) => break,
        }
    }
    done
}

/// Books the final barriers as operations: each stalled replica is a
/// failed one, named in the notes with every replica's progress
/// counters. More than `f` stalled replicas leave no service at all,
/// which is a violation.
pub fn book_barriers(out: &mut crate::Outcome, done: &[bool], snapshots: &[MetricsSnapshot]) {
    let stalled = done.iter().filter(|d| !**d).count();
    out.attempted += done.len() as u64;
    out.failed += stalled as u64;
    if stalled == 0 {
        return;
    }
    let progress: Vec<String> = snapshots
        .iter()
        .take(done.len())
        .map(|s| {
            format!(
                "applied {} delivered {} agreements {}",
                s.counter("rsm_applied_total"),
                s.counter("ab_delivered"),
                s.counter("ab_agreements")
            )
        })
        .collect();
    out.notes.push(format!(
        "final barrier done within {} s by replicas {done:?}; progress by replica: {progress:?}",
        BARRIER_LIMIT.as_secs()
    ));
    if stalled > F {
        out.violations
            .push(format!("{stalled} replicas stalled, more than f = {F}"));
    }
}

/// A splitmix64 stream: every input a workload makes comes from one of
/// these, seeded from `--seed`.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A `size`-byte command: the sequence number, then seeded filler.
pub fn command(seq: u64, size: usize, rng: &mut Rng) -> Bytes {
    let mut buf = Vec::with_capacity(size.max(8));
    buf.extend_from_slice(&seq.to_be_bytes());
    while buf.len() < size {
        buf.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    buf.truncate(size.max(8));
    Bytes::from(buf)
}

/// The sequence number a [`command`] carries.
pub fn command_seq(cmd: &[u8]) -> u64 {
    let mut seq = [0u8; 8];
    let n = cmd.len().min(8);
    seq[..n].copy_from_slice(&cmd[..n]);
    u64::from_be_bytes(seq)
}

/// One request identifier per `(client, seq)`, shared by every span of
/// that request.
pub fn req_id(client: u64, seq: u64) -> u64 {
    (client << 32) | (seq & 0xFFFF_FFFF)
}

/// The replicated state every workload runs: a running total (the write
/// reply), a per-`(client, seq)` apply tally for the exactly-once audit,
/// and a running digest of the applied stream for the total-order audit.
#[derive(Default, Clone)]
pub struct BenchState {
    /// Commands applied.
    pub total: u64,
    tally: HashMap<(u64, u64), u32>,
    /// Digest of the applied stream after each apply.
    digests: Vec<u64>,
}

impl BenchState {
    /// Applies one command from `client`; returns the new total.
    pub fn apply(&mut self, client: u64, cmd: &[u8]) -> u64 {
        *self.tally.entry((client, command_seq(cmd))).or_insert(0) += 1;
        self.total += 1;
        // FNV-1a over (previous digest, client, command).
        let mut h = self
            .digests
            .last()
            .copied()
            .unwrap_or(0xCBF2_9CE4_8422_2325);
        for b in client.to_le_bytes().iter().chain(cmd) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.digests.push(h);
        self.total
    }

    /// Applies beyond the first, over all commands.
    pub fn duplicate_applies(&self) -> u64 {
        self.tally.values().map(|&c| u64::from(c) - 1).sum()
    }

    /// Whether `(client, seq)` was applied.
    pub fn applied(&self, client: u64, seq: u64) -> bool {
        self.tally.contains_key(&(client, seq))
    }

    /// The digest chain of the applied stream.
    pub fn digests(&self) -> &[u64] {
        &self.digests
    }
}

/// The correctness audit after the final barrier: no command applied
/// twice, every acknowledged command applied at every replica, and the
/// same applied stream on every replica up to their common length.
pub fn audit(states: &[&BenchState], acknowledged: &[(u64, u64)]) -> Vec<String> {
    let mut violations = Vec::new();
    for (i, s) in states.iter().enumerate() {
        let dups = s.duplicate_applies();
        if dups != 0 {
            violations.push(format!("replica {i}: {dups} duplicate applies"));
        }
        let lost = acknowledged
            .iter()
            .filter(|&&(c, q)| !s.applied(c, q))
            .count();
        if lost != 0 {
            violations.push(format!(
                "replica {i}: {lost} acknowledged commands never applied"
            ));
        }
    }
    let common = states.iter().map(|s| s.digests().len()).min().unwrap_or(0);
    if let Some(first) = states.first() {
        for (i, s) in states.iter().enumerate().skip(1) {
            if s.digests()[..common] != first.digests()[..common] {
                violations.push(format!(
                    "replicas 0 and {i} applied different streams within {common} commands"
                ));
            }
        }
    }
    violations
}

/// One apply of one request at one replica, timed inside the
/// benchmark's apply callback.
#[derive(Debug, Clone, Copy)]
pub struct ApplySpan {
    /// Replica that applied.
    pub replica: usize,
    /// Callback entry.
    pub start_ns: u64,
    /// Callback exit.
    pub end_ns: u64,
}

/// Bench-side record of every apply, keyed by request id. Announces a
/// request on `done`, with the end of its apply there, once [`QUORUM`]
/// replicas have applied it.
pub struct ApplyLog {
    applies: Mutex<HashMap<u64, Vec<ApplySpan>>>,
    enabled: AtomicBool,
    done: Option<Sender<(u64, u64)>>,
    completed: AtomicU64,
}

impl ApplyLog {
    /// A log that records while `enabled`, announcing quorums on `done`.
    pub fn new(enabled: bool, done: Option<Sender<(u64, u64)>>) -> ApplyLog {
        ApplyLog {
            applies: Mutex::new(HashMap::new()),
            enabled: AtomicBool::new(enabled),
            done,
            completed: AtomicU64::new(0),
        }
    }

    /// Starts or stops recording.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Requests that reached a reply quorum so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::SeqCst)
    }

    /// Applies `cmd` from `client` to `state` at `replica`, timing the
    /// call when recording.
    pub fn apply(&self, state: &mut BenchState, replica: usize, client: u64, cmd: &[u8]) -> u64 {
        if !self.enabled.load(Ordering::Relaxed) {
            return state.apply(client, cmd);
        }
        let start_ns = now_ns();
        let total = state.apply(client, cmd);
        let span = ApplySpan {
            replica,
            start_ns,
            end_ns: now_ns(),
        };
        let req = req_id(client, command_seq(cmd));
        let count = {
            let mut applies = self.applies.lock().expect("apply log lock poisoned");
            let entry = applies.entry(req).or_default();
            entry.push(span);
            entry.len()
        };
        if count == QUORUM {
            self.completed.fetch_add(1, Ordering::SeqCst);
            if let Some(done) = &self.done {
                let _ = done.send((req, span.end_ns));
            }
        }
        total
    }

    /// The applies of `req` recorded so far.
    pub fn get(&self, req: u64) -> Vec<ApplySpan> {
        self.applies
            .lock()
            .expect("apply log lock poisoned")
            .get(&req)
            .cloned()
            .unwrap_or_default()
    }

    /// End of the `k`-th earliest apply of `req`.
    pub fn kth_end(&self, req: u64, k: usize) -> Option<u64> {
        let ends: Vec<u64> = self.get(req).iter().map(|a| a.end_ns).collect();
        stats::kth_earliest(&ends, k)
    }
}

/// Counter deltas over one window, summed over public metric snapshots:
/// one per replica (replica 0 first), then, on `svc-tcp`, the clients'
/// shared registry.
pub struct Window {
    before: Vec<MetricsSnapshot>,
    after: Vec<MetricsSnapshot>,
}

impl Window {
    /// A window between two sets of snapshots, in the same order.
    pub fn new(before: Vec<MetricsSnapshot>, after: Vec<MetricsSnapshot>) -> Window {
        Window { before, after }
    }

    /// Growth of counter `name`, summed over the snapshots.
    pub fn delta(&self, name: &str) -> u64 {
        self.before
            .iter()
            .zip(&self.after)
            .map(|(b, a)| a.counter(name).saturating_sub(b.counter(name)))
            .sum()
    }

    /// Highest value of gauge `name` in any snapshot at the window's end.
    pub fn peak(&self, name: &str) -> u64 {
        self.after
            .iter()
            .map(|a| a.counter(name))
            .max()
            .unwrap_or(0)
    }

    /// Mean of the observations histogram `name` gained in the window.
    pub fn hist_mean(&self, name: &str) -> f64 {
        let (mut count, mut sum) = (0u64, 0u64);
        for (b, a) in self.before.iter().zip(&self.after) {
            let get = |s: &MetricsSnapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
            let (bc, bs) = get(b);
            let (ac, as_) = get(a);
            count += ac.saturating_sub(bc);
            sum += as_.saturating_sub(bs);
        }
        ratio(sum as f64, count as f64)
    }

    /// The snapshot of replica `i` at the window's end.
    pub fn end_of(&self, i: usize) -> &MetricsSnapshot {
        &self.after[i]
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Metric values by name, as a workload reports them.
pub type Values = BTreeMap<&'static str, f64>;

/// The protocol-layer part of the ledger, from counter deltas over the
/// traced window and the critical paths of replica 0's spans. Fails when
/// a critical path's segments do not sum to its a-deliver latency.
pub fn protocol_ledger(w: &Window, committed: u64, out: &mut Values) -> Result<(), String> {
    let per_op = |name: &str| ratio(w.delta(name) as f64, committed as f64);
    out.insert("ab.commands_per_batch", w.hist_mean("ab_batch_commands"));
    out.insert(
        "ab.commands_per_agreement",
        ratio(
            w.delta("ab_delivered") as f64,
            w.delta("ab_agreements") as f64,
        ),
    );
    let flushes =
        (w.delta("ab_flush_size") + w.delta("ab_flush_age") + w.delta("ab_flush_idle")) as f64;
    out.insert(
        "ab.flush_size_share",
        ratio(w.delta("ab_flush_size") as f64, flushes),
    );
    out.insert(
        "ab.flush_age_share",
        ratio(w.delta("ab_flush_age") as f64, flushes),
    );
    out.insert(
        "ab.flush_idle_share",
        ratio(w.delta("ab_flush_idle") as f64, flushes),
    );
    out.insert("bc.rounds_mean", w.hist_mean("bc_rounds"));
    out.insert(
        "bc.coin_flips_per_agreement",
        ratio(
            w.delta("bc_coin_flips") as f64,
            w.delta("ab_agreements") as f64,
        ),
    );
    let bottoms = w.delta("mvc_decided_bottom") as f64;
    out.insert(
        "mvc.bottom_ratio",
        ratio(bottoms, bottoms + w.delta("mvc_decided_value") as f64),
    );
    out.insert("vc.rounds_mean", w.hist_mean("vc_rounds"));
    out.insert("rb.delivered_per_op", per_op("rb_delivered"));
    out.insert("eb.delivered_per_op", per_op("eb_delivered"));
    out.insert("stack.frames_in_per_op", per_op("stack_frames_in"));
    out.insert(
        "stack.ooc_parked_ratio",
        ratio(
            w.delta("stack_ooc_parked") as f64,
            w.delta("stack_frames_in") as f64,
        ),
    );
    out.insert(
        "stack.ooc_high_water",
        w.peak("stack_ooc_high_water") as f64,
    );
    out.insert("transport.frames_per_op", per_op("transport_frames_sent"));
    out.insert("transport.bytes_per_op", per_op("transport_bytes_sent"));
    out.insert(
        "transport.retransmits",
        w.delta("transport_retransmits_total") as f64,
    );
    out.insert(
        "transport.backpressure",
        w.delta("transport_send_backpressure_total") as f64,
    );
    out.insert("trace.spans_dropped", w.delta("span_dropped") as f64);

    // Replica 0's own commands: only their spans open at a-broadcast, so
    // only their paths cover the whole a-broadcast → a-deliver chain.
    let paths: Vec<_> = ritas_metrics::critical_paths(&w.end_of(0).spans)
        .into_iter()
        .filter(|p| {
            p.path
                .rsplit('/')
                .next()
                .is_some_and(|m| m.starts_with("m:0:"))
        })
        .collect();
    if paths.is_empty() {
        return Err("no own a-delivered command span on replica 0 in the traced window".into());
    }
    for p in &paths {
        let parts: Vec<u64> = p.segments.iter().map(|&(_, ns)| ns).collect();
        stats::check_sum(&p.path, &parts, p.total_ns)?;
    }
    for (i, name) in AB_SEGMENTS.iter().enumerate() {
        let durations: Vec<u64> = paths.iter().map(|p| p.segments[i].1).collect();
        out.insert(name, ms(stats::median(&durations).unwrap_or(0)));
    }
    Ok(())
}

/// The gated end-to-end cost of the untraced window: frames and bytes
/// the replicas handed to their transport, per completed operation.
/// Unlike a time, these do not scale with the speed the host lends the
/// run, so two runs of the same code agree on them.
pub fn mesh_cost(w: &Window, ops: f64, out: &mut Values) {
    out.insert(
        "msgs_per_op",
        ratio(w.delta("transport_frames_sent") as f64, ops),
    );
    out.insert(
        "wire_bytes_per_op",
        ratio(w.delta("transport_bytes_sent") as f64, ops),
    );
}

/// Ledger names of `ritas_metrics::CRITICAL_PATH_SEGMENTS`, in order.
pub const AB_SEGMENTS: [&str; 9] = [
    "ab.seg.queue_ms",
    "ab.seg.rb_ms",
    "ab.seg.wait_ms",
    "ab.seg.vect_ms",
    "ab.seg.mvc_ms",
    "ab.seg.bc_ms",
    "ab.seg.mvc_decide_ms",
    "ab.seg.conclude_ms",
    "ab.seg.deliver_ms",
];

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nanoseconds as microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_carry_their_seq_and_size() {
        let mut rng = Rng::new(7, 0);
        let c = command(42, 64, &mut rng);
        assert_eq!(c.len(), 64);
        assert_eq!(command_seq(&c), 42);
        assert_eq!(command(1, 1024, &mut rng).len(), 1024);
        let again = command(42, 64, &mut Rng::new(7, 0));
        assert_eq!(c, again, "same seed, same input");
    }

    #[test]
    fn audit_catches_duplicates_losses_and_forks() {
        let mut a = BenchState::default();
        let mut b = BenchState::default();
        let mut rng = Rng::new(1, 0);
        let c1 = command(1, 16, &mut rng);
        let c2 = command(2, 16, &mut rng);
        for s in [&mut a, &mut b] {
            s.apply(9, &c1);
            s.apply(9, &c2);
        }
        assert!(audit(&[&a, &b], &[(9, 1), (9, 2)]).is_empty());
        assert_eq!(audit(&[&a, &b], &[(9, 3)]).len(), 2, "lost at both");

        let mut forked = BenchState::default();
        forked.apply(9, &c2);
        forked.apply(9, &c1);
        assert_eq!(audit(&[&a, &forked], &[]).len(), 1);

        a.apply(9, &c1);
        let v = audit(&[&a, &b], &[]);
        assert!(v.iter().any(|m| m.contains("duplicate")), "{v:?}");
    }

    #[test]
    fn quorum_is_announced_once() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let log = ApplyLog::new(true, Some(tx));
        let mut s = BenchState::default();
        let cmd = command(5, 16, &mut Rng::new(0, 0));
        for r in 0..N {
            log.apply(&mut s, r, 3, &cmd);
        }
        let announced: Vec<u64> = rx.try_iter().map(|(req, _)| req).collect();
        assert_eq!(announced, vec![req_id(3, 5)]);
        assert_eq!(log.completed(), 1);
        assert_eq!(log.get(req_id(3, 5)).len(), N);
        assert!(log.kth_end(req_id(3, 5), QUORUM).is_some());
    }
}
