//! Open-loop pacing for the live workload.
//!
//! Interval `k` is due at `t₀ + k · period` whether or not the cut
//! before it has finished, so a slow cut delays the ones queued behind
//! it and every one of them is charged from its own due time.

use std::time::{Duration, Instant};

/// Time source of the pacer; tests substitute a simulated one.
pub trait Clock {
    /// Time elapsed since the clock's origin.
    fn now(&self) -> Duration;
    /// Block until `now() >= t`.
    fn sleep_until(&mut self, t: Duration);
}

/// The wall clock, with its origin at construction.
pub struct WallClock(Instant);

impl WallClock {
    /// A clock starting now.
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&mut self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// When one interval was due, started and finished, from the clock's
/// origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalTiming {
    /// When the interval was due.
    pub due: Duration,
    /// When the driver began serving it.
    pub start: Duration,
    /// When its cut had been drained by every subscriber.
    pub end: Duration,
}

impl IntervalTiming {
    /// Due time to drained: what the trader feels.
    pub fn latency(&self) -> Duration {
        self.end - self.due
    }

    /// Due time to start: how late the driver ran.
    pub fn queue_wait(&self) -> Duration {
        self.start - self.due
    }

    /// Start to drained: the service time of this interval alone.
    pub fn service(&self) -> Duration {
        self.end - self.start
    }
}

/// Serve `n` intervals on an open loop of the given `period`. `serve(k)`
/// must not return before interval `k` is fully handled.
pub fn open_loop<C: Clock>(
    clock: &mut C,
    n: usize,
    period: Duration,
    mut serve: impl FnMut(usize, &mut C),
) -> Vec<IntervalTiming> {
    let t0 = clock.now();
    let mut timings = Vec::with_capacity(n);
    for k in 0..n {
        let due = t0 + period * k as u32;
        clock.sleep_until(due);
        let start = clock.now();
        serve(k, clock);
        timings.push(IntervalTiming {
            due,
            start,
            end: clock.now(),
        });
    }
    timings
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulated time: sleeping jumps forward, work advances it by hand.
    struct SimClock(Duration);

    impl Clock for SimClock {
        fn now(&self) -> Duration {
            self.0
        }

        fn sleep_until(&mut self, t: Duration) {
            self.0 = self.0.max(t);
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_interval_queued_behind_it() {
        let period = Duration::from_millis(50);
        let work = Duration::from_millis(10);
        let stall = Duration::from_millis(175);
        let mut clock = SimClock(Duration::ZERO);
        let t = open_loop(&mut clock, 10, period, |k, c| {
            c.0 += if k == 3 { stall } else { work };
        });
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        // Before the stall every interval starts on time.
        for x in &t[..3] {
            assert_eq!(ms(x.queue_wait()), 0.0);
            assert_eq!(ms(x.latency()), 10.0);
        }
        assert_eq!(ms(t[3].latency()), 175.0);
        // Interval 3 ends at 325 ms; 4, 5 and 6 (due 200, 250, 300 ms)
        // queued behind it and pay the wait on top of their own work.
        assert_eq!(ms(t[4].queue_wait()), 125.0);
        assert_eq!(ms(t[4].latency()), 135.0);
        assert_eq!(ms(t[5].queue_wait()), 85.0);
        assert_eq!(ms(t[6].queue_wait()), 45.0);
        assert_eq!(ms(t[7].queue_wait()), 5.0);
        // The backlog has drained by interval 8.
        assert_eq!(ms(t[8].queue_wait()), 0.0);
        assert_eq!(ms(t[8].latency()), 10.0);
        for x in &t {
            assert_eq!(x.service(), x.end - x.start);
        }
    }
}
