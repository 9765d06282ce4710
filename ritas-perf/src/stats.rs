//! The benchmark's own arithmetic, kept free of I/O so it can be tested:
//! percentiles and the sample counts that back them, the `(f+1)`-th
//! apply, open-loop due times, segment-sum checks and the metric-name
//! grammar.

/// Samples a percentile needs beyond it before it is reported as
/// supported (the highest percentile with at least ten samples past it).
pub const SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether `count` samples leave at least [`SAMPLES_BEYOND`] above the
/// `p` percentile.
pub fn supported(count: usize, p: f64) -> bool {
    (count as f64 * (1.0 - p)).floor() as usize >= SAMPLES_BEYOND
}

/// Median and 99th percentile of a latency sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
}

impl Summary {
    /// Summarises `samples` (any order). `None` when empty.
    pub fn of(mut samples: Vec<u64>) -> Option<Summary> {
        samples.sort_unstable();
        Some(Summary {
            count: samples.len(),
            p50_ns: percentile(&samples, 0.50)?,
            p99_ns: percentile(&samples, 0.99)?,
        })
    }

    /// One line naming the sample count and whether the p99 is backed by
    /// enough samples beyond it.
    pub fn describe(&self, what: &str) -> String {
        let beyond = (self.count as f64 * 0.01).floor() as usize;
        format!(
            "{what}: n={} p50={:.3}ms p99={:.3}ms ({} samples beyond p99{})",
            self.count,
            self.p50_ns as f64 / 1e6,
            self.p99_ns as f64 / 1e6,
            beyond,
            if supported(self.count, 0.99) {
                ""
            } else {
                ", fewer than 10: p99 unsupported"
            }
        )
    }
}

/// The `k`-th earliest of `times` (1-based): with `k = f + 1` over the
/// apply times of one command at every replica, the moment a reply
/// quorum exists. `None` while fewer than `k` replicas applied it.
pub fn kth_earliest(times: &[u64], k: usize) -> Option<u64> {
    if k == 0 || times.len() < k {
        return None;
    }
    let mut sorted = times.to_vec();
    sorted.sort_unstable();
    Some(sorted[k - 1])
}

/// The open-loop schedule: command `i` is due at `start + i · interval`,
/// whatever happened to earlier commands. Latency is measured from the
/// due time, so a stalled submit charges its stall to every command
/// queued behind it instead of hiding it (coordinated omission).
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start_ns: u64,
    interval_ns: u64,
}

impl Schedule {
    /// A schedule of `rate` commands per second starting at `start_ns`.
    pub fn new(start_ns: u64, rate: f64) -> Schedule {
        Schedule {
            start_ns,
            interval_ns: (1e9 / rate).round() as u64,
        }
    }

    /// Due time of command `i`.
    pub fn due_ns(&self, i: u64) -> u64 {
        self.start_ns + i * self.interval_ns
    }
}

/// Time from `due_ns` to `t_ns`, 0 when `t_ns` is earlier: how late a
/// command went out, or its latency when `t_ns` is its completion.
pub fn since(due_ns: u64, t_ns: u64) -> u64 {
    t_ns.saturating_sub(due_ns)
}

/// Splits a chain of milestones into consecutive segments, failing when
/// the chain runs backwards. The segments then sum to
/// `last − first`, the latency the chain spans.
pub fn segments(milestones: &[u64]) -> Result<Vec<u64>, String> {
    milestones
        .windows(2)
        .map(|w| {
            w[1].checked_sub(w[0])
                .ok_or_else(|| format!("milestone {} precedes {}", w[1], w[0]))
        })
        .collect()
}

/// Checks that `parts` sum exactly to `total`.
pub fn check_sum(what: &str, parts: &[u64], total: u64) -> Result<(), String> {
    let sum: u64 = parts.iter().sum();
    if sum == total {
        Ok(())
    } else {
        Err(format!(
            "{what}: segments sum to {sum} ns, total is {total} ns"
        ))
    }
}

/// The metric-name grammar: starts with a letter or digit, at most 64
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit grammar: 1 to 16 letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Median of an arbitrary sample (lower median for even sizes), `None`
/// when empty.
pub fn median(samples: &[u64]) -> Option<u64> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, 0.5)
}

/// Median of floating-point samples (mean of the middle pair for even
/// sizes), `None` when empty.
pub fn median_f64(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 0.50), Some(50));
        assert_eq!(percentile(&xs, 0.99), Some(99));
        assert_eq!(percentile(&xs, 1.0), Some(100));
        assert_eq!(percentile(&xs, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn summary_sorts_and_counts() {
        let s = Summary::of(vec![30, 10, 20]).unwrap();
        assert_eq!((s.count, s.p50_ns, s.p99_ns), (3, 20, 30));
        assert!(Summary::of(Vec::new()).is_none());
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(!supported(999, 0.99));
        assert!(supported(1000, 0.99));
        assert!(supported(20, 0.50));
        assert!(!supported(19, 0.50));
        let few = Summary::of((0..500).collect()).unwrap();
        assert!(few.describe("w").contains("n=500"));
        assert!(few.describe("w").contains("p99 unsupported"));
        let many = Summary::of((0..1000).collect()).unwrap();
        assert!(!many.describe("w").contains("unsupported"));
    }

    #[test]
    fn quorum_apply_is_the_kth_earliest() {
        // f = 1: the reply quorum exists at the second apply, whatever
        // order the replicas reported in.
        assert_eq!(kth_earliest(&[40, 10, 30, 20], 2), Some(20));
        assert_eq!(kth_earliest(&[5, 5, 9], 2), Some(5));
        assert_eq!(kth_earliest(&[40, 10, 30, 20], 4), Some(40));
        assert_eq!(kth_earliest(&[10], 2), None);
        assert_eq!(kth_earliest(&[10], 0), None);
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_commands_behind_it() {
        // 1 000 cmd/s; the submit of command 0 stalls for 10 ms, so the
        // generator sends commands 1..=9 late, back to back at 10 ms.
        let s = Schedule::new(1_000, 1_000.0);
        let ms = 1_000_000;
        let mut now = s.due_ns(0);
        let mut late = Vec::new();
        let mut lat = Vec::new();
        for i in 0..12u64 {
            now = now.max(s.due_ns(i));
            late.push(since(s.due_ns(i), now));
            let submit = if i == 0 { 10 * ms } else { 0 };
            now += submit;
            // Each command completes 2 ms after its submit returns.
            lat.push(since(s.due_ns(i), now + 2 * ms));
        }
        assert_eq!(late[0], 0);
        assert_eq!(late[1], 9 * ms);
        assert_eq!(late[9], ms);
        assert_eq!(late[10], 0);
        // Timed from the send, command 1 would read 2 ms; from its due
        // time it reads the 9 ms it waited behind the stall as well.
        assert_eq!(lat[1], 11 * ms);
        assert_eq!(lat[0], 12 * ms);
        assert_eq!(lat[11], 2 * ms);
    }

    #[test]
    fn segments_of_a_monotone_chain_sum_to_its_span() {
        let chain = [100, 130, 130, 170];
        let segs = segments(&chain).unwrap();
        assert_eq!(segs, vec![30, 0, 40]);
        assert!(check_sum("chain", &segs, 70).is_ok());
        assert!(check_sum("chain", &segs, 71).is_err());
        assert!(segments(&[100, 90]).is_err());
        assert_eq!(segments(&[5]).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn metric_name_grammar() {
        for ok in ["p50_ms", "ab.seg.mvc-decide_ms", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
        assert!(valid_unit("ms") && valid_unit("1/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3, 1, 2]), Some(2));
        assert_eq!(median(&[]), None);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median_f64(&[]), None);
    }
}
