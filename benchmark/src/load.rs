//! Load generation: an open loop that sends each request when it is due
//! and a closed loop that sends the next as soon as a client is free.
//!
//! Open-loop latency is timed from the request's *due* time, so a stall
//! shows up in every request that had to wait behind it, and the
//! generator's own lateness (sent − due) is recorded beside it. Clients
//! are threads of this process; the clock is a trait so the scheduling
//! arithmetic can be tested without sleeping.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub trait Clock: Sync {
    /// Time since the phase began.
    fn now(&self) -> Duration;
    fn sleep_until(&self, t: Duration);
}

/// The real clock, counting from when the phase began.
pub struct Wall(pub Instant);

impl Clock for Wall {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        if let Some(d) = t.checked_sub(self.now()) {
            std::thread::sleep(d);
        }
    }
}

/// What a client observed for one request, as offsets from phase start.
pub struct Reply {
    pub first_byte: Duration,
    pub done: Duration,
    pub bytes: usize,
    /// Why the request failed, if it did.
    pub problem: Option<String>,
}

pub struct Sample {
    pub index: usize,
    pub due: Duration,
    pub sent: Duration,
    pub reply: Reply,
}

impl Sample {
    /// Due time to last byte, in ms.
    pub fn latency_ms(&self) -> f64 {
        ms(self.reply.done.saturating_sub(self.due))
    }

    /// How late the generator sent this request, in ms.
    pub fn late_ms(&self) -> f64 {
        ms(self.sent.saturating_sub(self.due))
    }

    /// Sent to first body byte (queue wait plus build), in ms.
    pub fn ttfb_ms(&self) -> f64 {
        ms(self.reply.first_byte.saturating_sub(self.sent))
    }

    /// First body byte to last byte (simulation plus streaming), in ms.
    pub fn stream_ms(&self) -> f64 {
        ms(self.reply.done.saturating_sub(self.reply.first_byte))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `n` requests over `clients` client threads. With `dues`, request
/// `i` is sent no earlier than `dues[i]` (open loop); without, each client
/// sends its next request as soon as its last one finished (closed loop).
/// Samples come back in request order.
pub fn drive<C: Clock>(
    clock: &C,
    n: usize,
    dues: Option<&[Duration]>,
    clients: usize,
    send: &(dyn Fn(usize) -> Reply + Sync),
) -> Vec<Sample> {
    assert!(dues.is_none_or(|d| d.len() >= n), "a due time per request");
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..clients.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    break;
                }
                let due = match dues {
                    Some(d) => {
                        clock.sleep_until(d[i]);
                        d[i]
                    }
                    None => clock.now(),
                };
                let sent = clock.now();
                let reply = send(i);
                out.lock().expect("a client panicked").push(Sample {
                    index: i,
                    due,
                    sent,
                    reply,
                });
            });
        }
    });
    let mut v = out.into_inner().expect("a client panicked");
    v.sort_by_key(|s| s.index);
    v
}

/// Poisson arrival times: `n` due times at `rate` per second.
pub fn poisson_dues(rng: &mut hpn_sim::Xoshiro256, n: usize, rate: f64) -> Vec<Duration> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += rng.exponential(1.0 / rate);
            Duration::from_secs_f64(t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulated time: sleeping jumps the clock forward; a request's
    /// service time is added when it is sent.
    struct Fake(Mutex<Duration>);

    impl Clock for Fake {
        fn now(&self) -> Duration {
            *self.0.lock().unwrap()
        }
        fn sleep_until(&self, t: Duration) {
            let mut now = self.0.lock().unwrap();
            *now = (*now).max(t);
        }
    }

    #[test]
    fn a_stalled_request_inflates_the_latency_of_those_due_after_it() {
        let clock = Fake(Mutex::new(Duration::ZERO));
        let ms = Duration::from_millis;
        let dues: Vec<Duration> = (0..8).map(|i| ms(10 * i)).collect();
        let send = |i: usize| {
            let service = if i == 2 { ms(100) } else { ms(5) };
            let mut now = clock.0.lock().unwrap();
            let first = *now + ms(1);
            *now += service;
            Reply {
                first_byte: first,
                done: *now,
                bytes: 0,
                problem: None,
            }
        };
        let s = drive(&clock, dues.len(), Some(&dues), 1, &send);
        let lat: Vec<f64> = s.iter().map(Sample::latency_ms).collect();
        assert_eq!(&lat[..3], &[5.0, 5.0, 100.0]);
        // Request 3 was due at 30 ms but could only go at 120 ms.
        assert_eq!(s[3].late_ms(), 90.0);
        assert_eq!(lat[3], 95.0);
        // Every later request waits behind the backlog, each a little
        // less as the 5 ms requests catch up with the 10 ms schedule.
        assert_eq!(&lat[3..], &[95.0, 90.0, 85.0, 80.0, 75.0]);
        assert!(
            s[3..].iter().all(|x| x.ttfb_ms() == 1.0),
            "service itself is unchanged"
        );

        // A closed loop has no due times: the same stall delays nobody's
        // measured latency, only throughput.
        *clock.0.lock().unwrap() = Duration::ZERO;
        let s = drive(&clock, 8, None, 1, &send);
        assert!(s.iter().all(|x| x.late_ms() == 0.0));
        assert_eq!(s[3].latency_ms(), 5.0);
    }

    #[test]
    fn poisson_dues_are_increasing_at_the_requested_rate() {
        let mut rng = hpn_sim::Xoshiro256::seed_from_u64(7);
        let d = poisson_dues(&mut rng, 4000, 20.0);
        assert!(d.windows(2).all(|w| w[0] <= w[1]));
        let rate = d.len() as f64 / d.last().unwrap().as_secs_f64();
        assert!((rate - 20.0).abs() < 1.0, "{rate}");
    }
}
