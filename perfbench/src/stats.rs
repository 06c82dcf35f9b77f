//! The benchmark's own arithmetic: percentiles, the freshness rule,
//! due-time latency and failure accounting.

/// Nearest-rank percentile (`p` in `0..=100`) of unsorted `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Median over consecutive `width`-wide windows of each window's median:
/// the run's typical value, which a slowdown confined to a minority of
/// its windows does not move. `samples` are `(time, value)` pairs.
pub fn median_of_windows(samples: &[(u64, f64)], width: u64) -> Option<f64> {
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(t, v) in samples {
        windows.entry(t / width.max(1)).or_default().push(v);
    }
    let medians: Vec<f64> = windows.values().filter_map(|w| median(w)).collect();
    median(&medians)
}

/// Freshness samples by the rule "an event is visible at the first response
/// whose `events_applied` is at least its applied index".
///
/// `appended_ns[k]` is when the `(base + k + 1)`-th applied event was
/// appended; `responses` are `(received_ns, events_applied)` in arrival
/// order. Returns, per covered event in order, the delay from append to
/// that first response, and the number of distinct boards (tick outcomes)
/// that made at least one event visible.
pub fn freshness(appended_ns: &[u64], base: u64, responses: &[(u64, u64)]) -> (Vec<u64>, u64) {
    let mut samples = Vec::with_capacity(appended_ns.len());
    let mut boards = 0u64;
    for &(received, applied) in responses {
        let covered = applied.saturating_sub(base).min(appended_ns.len() as u64) as usize;
        if covered > samples.len() {
            boards += 1;
            for &appended in &appended_ns[samples.len()..covered] {
                samples.push(received.saturating_sub(appended));
            }
        }
    }
    (samples, boards)
}

/// Latency of an open-loop request, counted from when it was due (not
/// when the generator got round to sending it), so a stall charges every
/// request queued behind it.
pub fn due_latency_ns(due_ns: u64, received_ns: u64) -> u64 {
    received_ns.saturating_sub(due_ns)
}

/// Operations attempted and failed in one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// A query fails unless answered 2xx within `deadline_ns` of its due time.
    pub fn query(&mut self, status: Option<u16>, latency_ns: u64, deadline_ns: u64) {
        self.attempted += 1;
        let ok = status.is_some_and(|s| (200..300).contains(&s)) && latency_ns <= deadline_ns;
        if !ok {
            self.failed += 1;
        }
    }

    /// Applied events appended, and how many of them the daemon's boards
    /// still did not cover after the drain.
    pub fn events(&mut self, expected: u64, visible: u64) {
        self.attempted += expected;
        self.failed += expected.saturating_sub(visible);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn window_medians_ignore_a_slow_minority_of_windows() {
        // Three 10-unit windows; the middle one is slow throughout.
        let mut samples = Vec::new();
        for t in 0..30u64 {
            let slow = (10..20).contains(&t);
            samples.push((t, if slow { 50.0 } else { 1.0 + (t % 3) as f64 }));
        }
        assert_eq!(median_of_windows(&samples, 10), Some(2.0));
        let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(median(&all), Some(3.0), "the plain median moves");
        assert_eq!(median_of_windows(&[], 10), None);
    }

    #[test]
    fn freshness_uses_the_first_covering_response() {
        // Three phase events (base 10 applied before the phase), appended at
        // 0, 5 and 20 ns.
        let appended = [0, 5, 20];
        let responses = [
            (3, 10),  // covers nothing new
            (30, 12), // first to cover events 11 and 12
            (31, 12), // already covered: no new samples
            (40, 13), // covers event 13
            (50, 13),
        ];
        let (samples, boards) = freshness(&appended, 10, &responses);
        assert_eq!(samples, vec![30, 25, 20]);
        assert_eq!(boards, 2);
    }

    #[test]
    fn freshness_ignores_counts_beyond_the_phase_and_uncovered_tail() {
        let appended = [0, 10, 20];
        let (samples, boards) = freshness(&appended, 0, &[(15, 1)]);
        assert_eq!(samples, vec![15], "events 2 and 3 never covered");
        assert_eq!(boards, 1);
        let (samples, _) = freshness(&appended, 0, &[(25, 99)]);
        assert_eq!(samples, vec![25, 15, 5], "counts past the phase clamp");
    }

    #[test]
    fn late_generator_is_charged_to_latency() {
        // Due at 1 ms, sent 4 ms late, answered 0.5 ms after sending.
        let due = 1_000_000;
        let received = due + 4_000_000 + 500_000;
        assert_eq!(due_latency_ns(due, received), 4_500_000);
        assert_eq!(due_latency_ns(10, 5), 0, "never negative");
    }

    #[test]
    fn failures_are_counted_against_attempts() {
        let mut t = Tally::default();
        let deadline = 1_000_000_000;
        t.query(Some(200), 10, deadline);
        t.query(Some(404), 10, deadline);
        t.query(Some(200), deadline + 1, deadline);
        t.query(None, 0, deadline);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 3
            }
        );
        t.events(100, 98);
        assert_eq!(
            t,
            Tally {
                attempted: 104,
                failed: 5
            }
        );
        t.events(5, 9);
        assert_eq!(
            t,
            Tally {
                attempted: 109,
                failed: 5
            },
            "over-coverage is not negative"
        );
    }
}
