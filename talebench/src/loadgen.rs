//! The open-loop load generator.
//!
//! One process, a fixed pool of persistent connections (at most one
//! per core), and a seeded arrival schedule. Each connection's thread
//! claims the next arrival in due order, sleeps until it is due and
//! sends it; when every connection is busy the arrival waits, so the
//! generator runs late. Latency is timed from the due time, which
//! charges that wait to the request; lateness and backlog are reported
//! so a run whose generator fell behind shows it.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Answered (the answer itself is checked by the caller's oracle).
    Ok,
    /// Refused by admission control (`overloaded`).
    Shed,
    /// Transport failure or any other typed error.
    Failed(String),
}

/// One arrival as it was served.
#[derive(Debug, Clone)]
pub struct Record {
    /// Arrival index in the schedule.
    pub idx: usize,
    /// Connection that carried it.
    pub conn: usize,
    /// Position of the request on its connection (0-based).
    pub seq: u64,
    /// When it was due, since the schedule start.
    pub due: Duration,
    /// When it was sent.
    pub sent: Duration,
    /// When its answer arrived.
    pub done: Duration,
    /// How it ended.
    pub outcome: Outcome,
}

impl Record {
    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done.saturating_sub(self.due)).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, in milliseconds.
    pub fn lag_ms(&self) -> f64 {
        (self.sent.saturating_sub(self.due)).as_secs_f64() * 1e3
    }
}

/// The system under load, as the generator sees it.
pub trait Client: Sync {
    /// One persistent connection.
    type Conn: Send;
    /// Opens connection `i` (before the schedule starts).
    fn connect(&self, i: usize) -> Self::Conn;
    /// Sends arrival `idx` on `conn` and waits for its answer.
    fn call(&self, conn: &mut Self::Conn, idx: usize) -> Outcome;
}

/// Poisson arrivals at `rate` per second over `[0, secs)`, conditioned
/// on their count: exactly `round(rate × secs)` arrivals, uniformly
/// placed. Every seed offers the same load; only the placement varies.
pub fn poisson(seed: u64, rate: f64, secs: f64) -> Vec<Duration> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = (rate * secs).round() as usize;
    let mut at: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * secs).collect();
    at.sort_by(f64::total_cmp);
    at.into_iter().map(Duration::from_secs_f64).collect()
}

/// Runs `due` (ascending offsets) against `client` over `conns`
/// connections. Returns the records in arrival order and the instant
/// the schedule started.
pub fn run<C: Client>(client: &C, due: &[Duration], conns: usize) -> (Vec<Record>, Instant) {
    let conns = conns.max(1);
    let next = AtomicUsize::new(0);
    let records: Mutex<Vec<Record>> = Mutex::new(Vec::with_capacity(due.len()));
    let ready = Barrier::new(conns + 1);
    let start: Mutex<Option<Instant>> = Mutex::new(None);
    std::thread::scope(|s| {
        for c in 0..conns {
            let (next, records, ready, start) = (&next, &records, &ready, &start);
            s.spawn(move || {
                let mut conn = client.connect(c);
                ready.wait();
                ready.wait();
                let t0 = start.lock().expect("start lock").expect("start set");
                let mut seq = 0u64;
                loop {
                    let idx = next.fetch_add(1, Ordering::SeqCst);
                    let Some(&d) = due.get(idx) else { break };
                    let at = t0 + d;
                    let now = Instant::now();
                    if at > now {
                        std::thread::sleep(at - now);
                    }
                    let sent = t0.elapsed();
                    let outcome = client.call(&mut conn, idx);
                    let done = t0.elapsed();
                    records.lock().expect("records lock").push(Record {
                        idx,
                        conn: c,
                        seq,
                        due: d,
                        sent,
                        done,
                        outcome,
                    });
                    seq += 1;
                }
            });
        }
        // Every connection is open: start the clock a little ahead so the
        // first arrival is not late by the wake-up of the threads.
        ready.wait();
        *start.lock().expect("start lock") = Some(Instant::now() + Duration::from_millis(5));
        ready.wait();
    });
    let t0 = start.into_inner().expect("start lock").expect("start set");
    let mut records = records.into_inner().expect("records lock");
    records.sort_by_key(|r| r.idx);
    (records, t0)
}

/// The largest number of arrivals that were due but not yet sent at any
/// moment of the run.
pub fn backlog_max(records: &[Record]) -> usize {
    let mut events: Vec<(Duration, i64)> = Vec::with_capacity(records.len() * 2);
    for r in records {
        events.push((r.due, 1));
        events.push((r.sent, -1));
    }
    // at equal times count the send first: a request sent on time never
    // waited
    events.sort_by_key(|&(t, d)| (t, d));
    let (mut cur, mut max) = (0i64, 0i64);
    for (_, d) in events {
        cur += d;
        max = max.max(cur);
    }
    max as usize
}

/// Whether the backlog grew: the mean lateness of the last third of the
/// arrivals exceeds that of the first third by more than `slack_ms`.
pub fn backlog_growing(records: &[Record], slack_ms: f64) -> bool {
    let n = records.len() / 3;
    if n == 0 {
        return false;
    }
    let lag = |rs: &[Record]| rs.iter().map(Record::lag_ms).sum::<f64>() / rs.len() as f64;
    lag(&records[records.len() - n..]) > lag(&records[..n]) + slack_ms
}

/// Failures of a run: sheds, transport or typed errors, and answers the
/// oracle rejected all count.
#[derive(Debug, Default)]
pub struct Tally {
    /// Failed operations of every kind.
    pub failed: u64,
    /// Of those, refused by admission control.
    pub shed: u64,
    /// A description of each failure, in arrival order.
    pub wrong: Vec<String>,
}

impl Tally {
    /// Tallies `records`, asking `check` to judge each answered one.
    pub fn of(records: &[Record], mut check: impl FnMut(&Record) -> Result<(), String>) -> Tally {
        let mut t = Tally::default();
        for r in records {
            let verdict = match &r.outcome {
                Outcome::Ok => check(r),
                Outcome::Shed => {
                    t.shed += 1;
                    Err("shed".into())
                }
                Outcome::Failed(e) => Err(e.clone()),
            };
            if let Err(e) = verdict {
                t.failed += 1;
                t.wrong.push(format!("arrival {}: {e}", r.idx));
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(idx: usize, outcome: Outcome) -> Record {
        let t = Duration::from_millis(idx as u64);
        Record {
            idx,
            conn: 0,
            seq: idx as u64,
            due: t,
            sent: t,
            done: t,
            outcome,
        }
    }

    #[test]
    fn sheds_errors_and_wrong_answers_count_as_failed() {
        let recs = vec![
            rec(0, Outcome::Ok),
            rec(1, Outcome::Shed),
            rec(2, Outcome::Ok),
            rec(3, Outcome::Failed("transport".into())),
            rec(4, Outcome::Shed),
        ];
        // the oracle rejects arrival 2's answer
        let t = Tally::of(&recs, |r| {
            if r.idx == 2 {
                Err("wrong".into())
            } else {
                Ok(())
            }
        });
        assert_eq!(t.shed, 2);
        assert_eq!(t.failed, 4);
        // failed_frac = failed / attempted
        assert_eq!(crate::stats::ratio(t.failed as f64, recs.len() as f64), 0.8);
        assert_eq!(t.wrong.len(), 4);
        let clean = Tally::of(&recs[..1], |_| Ok(()));
        assert_eq!((clean.failed, clean.shed), (0, 0));
    }

    /// A fake service with one connection's worth of capacity: arrival
    /// `stall_idx` takes `stall`, every other arrival answers at once.
    struct Stalled {
        stall_idx: usize,
        stall: Duration,
    }

    impl Client for Stalled {
        type Conn = ();
        fn connect(&self, _i: usize) {}
        fn call(&self, _conn: &mut (), idx: usize) -> Outcome {
            if idx == self.stall_idx {
                std::thread::sleep(self.stall);
            }
            Outcome::Ok
        }
    }

    #[test]
    fn a_stall_makes_later_arrivals_late_and_is_charged_to_them() {
        // 20 arrivals 10 ms apart; arrival 0 stalls for 200 ms on the only
        // connection, so arrivals 1..19 are all due before it returns.
        let due: Vec<Duration> = (0..20).map(|i| Duration::from_millis(10 * i)).collect();
        let svc = Stalled {
            stall_idx: 0,
            stall: Duration::from_millis(200),
        };
        let (recs, _) = run(&svc, &due, 1);
        assert_eq!(recs.len(), 20);
        assert!(recs[0].lag_ms() < 5.0, "first arrival on time");
        assert!(recs[0].latency_ms() >= 200.0);
        for r in &recs[1..] {
            let due_ms = r.due.as_secs_f64() * 1e3;
            // sent only once the stall ended, and the latency counts from
            // the due time, so it includes the wait
            assert!(
                r.lag_ms() >= 200.0 - due_ms - 1.0,
                "arrival {} lag {}",
                r.idx,
                r.lag_ms()
            );
            assert!(r.latency_ms() >= r.lag_ms());
        }
        // every arrival but the first was waiting when the stall ended
        assert_eq!(backlog_max(&recs), 19);
        assert!(backlog_growing(&recs, 0.0) || recs[19].lag_ms() < recs[1].lag_ms());
    }

    #[test]
    fn a_second_connection_absorbs_the_stall() {
        let due: Vec<Duration> = (0..20).map(|i| Duration::from_millis(10 * i)).collect();
        let svc = Stalled {
            stall_idx: 0,
            stall: Duration::from_millis(200),
        };
        let (recs, _) = run(&svc, &due, 2);
        assert_eq!(recs.len(), 20);
        let late = recs[1..].iter().filter(|r| r.lag_ms() > 50.0).count();
        assert_eq!(late, 0, "the idle connection serves arrivals on time");
        assert!(backlog_max(&recs) <= 1);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_ascending() {
        let a = poisson(7, 50.0, 10.0);
        assert_eq!(a, poisson(7, 50.0, 10.0));
        assert_ne!(a, poisson(8, 50.0, 10.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a.len(), 500);
        assert!(a.iter().all(|d| d.as_secs_f64() < 10.0));
    }
}
