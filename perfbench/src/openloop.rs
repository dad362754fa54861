//! Open-loop load generation: requests are due on a fixed schedule
//! whatever the server does, and each is timed from its due time, so a
//! stall also charges the requests that queued behind it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How one request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and the answer checked out.
    Ok,
    /// Transport error or an unexpected status.
    Failed,
    /// Refused by admission control (`503`).
    Shed,
    /// Answered `200` with the wrong answer.
    Wrong,
}

/// One request of an open-loop run. Times are nanoseconds since the
/// run started.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Schedule index of the request.
    pub index: usize,
    /// When the schedule said to send it.
    pub due_ns: u64,
    /// When the generator actually sent it.
    pub start_ns: u64,
    /// When the answer was complete.
    pub end_ns: u64,
    /// How it ended.
    pub outcome: Outcome,
}

impl Sample {
    /// Latency charged to the request: answer time minus due time.
    pub fn latency_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// How late the generator sent the request.
    pub fn lateness_ms(&self) -> f64 {
        self.start_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Sends `op(i)` for request `i` due at `i / rate` seconds, for every
/// `i` due before `duration` ends, from `clients` threads. `op` returns
/// how the request ended and when its answer was complete, so checking
/// the answer afterwards is not charged to it. A client that is still
/// busy when a request falls due sends it late; the lateness shows in
/// [`Sample::lateness_ms`] and the latency is still counted from the
/// due time. Returns the samples in schedule order.
pub fn run<F>(rate: f64, duration: Duration, clients: usize, op: F) -> Vec<Sample>
where
    F: Fn(usize) -> (Outcome, Instant) + Sync,
{
    assert!(rate > 0.0, "rate must be positive");
    let n = (rate * duration.as_secs_f64()).floor() as usize;
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(n));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let due = Duration::from_secs_f64(i as f64 / rate);
                    let now = t0.elapsed();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let start = t0.elapsed();
                    let (outcome, done) = op(i);
                    let end = done.saturating_duration_since(t0);
                    local.push(Sample {
                        index: i,
                        due_ns: due.as_nanos() as u64,
                        start_ns: start.as_nanos() as u64,
                        end_ns: end.as_nanos() as u64,
                        outcome,
                    });
                }
                samples
                    .lock()
                    .expect("a client thread panicked while recording")
                    .extend(local);
            });
        }
    });
    let mut all = samples.into_inner().expect("sample list poisoned");
    all.sort_by_key(|s| s.index);
    all
}

/// Summary of one open-loop run.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Requests sent.
    pub sent: usize,
    /// Latencies (ms, from due time) of every request, failed or not.
    pub latencies_ms: Vec<f64>,
    /// Requests that did not end [`Outcome::Ok`].
    pub failed: usize,
    /// Requests refused with `503`.
    pub shed: usize,
    /// Requests answered wrongly.
    pub wrong: usize,
    /// Median generator lateness (ms) over the whole run.
    pub lateness_p50_ms: f64,
    /// Median generator lateness (ms) over the last quarter of the
    /// schedule — a growing backlog shows here first.
    pub late_quarter_lateness_ms: f64,
}

/// Summarises `samples` (as returned by [`run`]).
pub fn summarize(samples: &[Sample]) -> Summary {
    let count = |o: Outcome| samples.iter().filter(|s| s.outcome == o).count();
    let lateness: Vec<f64> = samples.iter().map(Sample::lateness_ms).collect();
    let quarter = &lateness[lateness.len() - lateness.len() / 4..];
    Summary {
        sent: samples.len(),
        latencies_ms: samples.iter().map(Sample::latency_ms).collect(),
        failed: samples.len() - count(Outcome::Ok),
        shed: count(Outcome::Shed),
        wrong: count(Outcome::Wrong),
        lateness_p50_ms: crate::stats::median(&lateness),
        late_quarter_lateness_ms: if quarter.is_empty() {
            0.0
        } else {
            crate::stats::median(quarter)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_covers_the_duration_at_the_rate() {
        let samples = run(1000.0, Duration::from_millis(50), 2, |_| {
            (Outcome::Ok, Instant::now())
        });
        assert_eq!(samples.len(), 50);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.due_ns, i as u64 * 1_000_000);
            assert!(s.start_ns >= s.due_ns, "sent before it was due");
            assert!(s.end_ns >= s.start_ns);
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_due_behind_it() {
        // One client, a request every 2 ms; request 0 stalls for 60 ms.
        // Requests due while it stalls are sent late, and their latency
        // counts from when they were due, not from when they were sent.
        let samples = run(500.0, Duration::from_millis(100), 1, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(60));
            }
            (Outcome::Ok, Instant::now())
        });
        assert_eq!(samples.len(), 50);
        let s10 = samples[10]; // due at 20 ms, sent after 60 ms
        assert!(s10.lateness_ms() >= 39.0, "lateness {}", s10.lateness_ms());
        assert!(s10.latency_ms() >= s10.lateness_ms());
        // latency from send time alone would hide the stall
        let service_ms = (s10.end_ns - s10.start_ns) as f64 / 1e6;
        assert!(service_ms < 20.0 && s10.latency_ms() >= 39.0);
        let sum = summarize(&samples);
        assert!(sum.lateness_p50_ms > 0.0);
        assert_eq!((sum.sent, sum.failed), (50, 0));
    }

    #[test]
    fn latency_ends_when_the_answer_completed() {
        // work after the answer (checking it) is not charged
        let samples = run(100.0, Duration::from_millis(30), 1, |_| {
            let done = Instant::now();
            std::thread::sleep(Duration::from_millis(5));
            (Outcome::Ok, done)
        });
        assert_eq!(samples.len(), 3);
        assert!(samples.iter().all(|s| s.latency_ms() < 4.0), "{samples:?}");
    }

    #[test]
    fn summary_counts_each_failure_kind() {
        let samples = run(2000.0, Duration::from_millis(10), 1, |i| {
            let outcome = match i % 4 {
                0 => Outcome::Ok,
                1 => Outcome::Failed,
                2 => Outcome::Shed,
                _ => Outcome::Wrong,
            };
            (outcome, Instant::now())
        });
        let sum = summarize(&samples);
        assert_eq!(sum.sent, 20);
        assert_eq!((sum.failed, sum.shed, sum.wrong), (15, 5, 5));
        assert_eq!(sum.latencies_ms.len(), 20);
    }
}
