//! Event-stream generation.
//!
//! Produces the rows the experiments feed to the engine: a Poisson arrival
//! process of `(id, user, location, salary)` events, users Zipf-skewed,
//! locations drawn from a [`LocationDomain`], salaries uniform in a band.
//! The stream carries explicit timestamps so a [`instant_common::MockClock`]
//! can be advanced to each arrival — months of simulated collection run in
//! milliseconds.

use instant_common::{Duration, Timestamp, Value};

use crate::location::LocationDomain;
use crate::rng::Rng;
use crate::zipf::Zipf;

/// One generated event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub at: Timestamp,
    pub row: Vec<Value>,
}

/// Configuration of the event stream.
#[derive(Debug, Clone)]
pub struct EventStreamConfig {
    /// Mean events per hour (Poisson rate).
    pub events_per_hour: f64,
    pub users: usize,
    pub user_skew: f64,
    pub salary_lo: i64,
    pub salary_hi: i64,
}

impl Default for EventStreamConfig {
    fn default() -> Self {
        EventStreamConfig {
            events_per_hour: 100.0,
            users: 500,
            user_skew: 0.9,
            salary_lo: 1_000,
            salary_hi: 10_000,
        }
    }
}

/// Generator of timestamped events.
pub struct EventStream<'d> {
    cfg: EventStreamConfig,
    domain: &'d LocationDomain,
    users: Zipf,
    rng: Rng,
    now: Timestamp,
    next_id: i64,
}

impl<'d> EventStream<'d> {
    pub fn new(
        cfg: EventStreamConfig,
        domain: &'d LocationDomain,
        seed: u64,
        start: Timestamp,
    ) -> EventStream<'d> {
        let users = Zipf::new(cfg.users.max(1), cfg.user_skew);
        EventStream {
            cfg,
            domain,
            users,
            rng: Rng::new(seed),
            now: start,
            next_id: 0,
        }
    }

    /// Generate the next event (advances simulated time by an exponential
    /// inter-arrival).
    pub fn next_event(&mut self) -> Event {
        let rate_per_us = self.cfg.events_per_hour / (3600.0 * 1e6);
        let gap_us = self.rng.exponential(rate_per_us).min(1e15) as u64;
        self.now += Duration::micros(gap_us.max(1));
        let id = self.next_id;
        self.next_id += 1;
        let user = self.users.sample(&mut self.rng);
        let address = self.domain.sample_address(&mut self.rng).to_string();
        let salary = self.rng.range(self.cfg.salary_lo, self.cfg.salary_hi);
        Event {
            at: self.now,
            row: vec![
                Value::Int(id),
                Value::Str(format!("user{user:04}")),
                Value::Str(address),
                Value::Int(salary),
            ],
        }
    }

    /// Generate `n` events.
    pub fn take(&mut self, n: usize) -> Vec<Event> {
        (0..n).map(|_| self.next_event()).collect()
    }

    /// Generate all events arriving before `until`.
    pub fn until(&mut self, until: Timestamp) -> Vec<Event> {
        let mut out = Vec::new();
        loop {
            let e = self.next_event();
            if e.at >= until {
                // Do not emit past the horizon; time cursor stays advanced,
                // matching a stream that simply had no further arrivals.
                break;
            }
            out.push(e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::LocationShape;

    fn domain() -> LocationDomain {
        LocationDomain::generate(LocationShape::default(), 0.8)
    }

    #[test]
    fn events_have_increasing_time_and_unique_ids() {
        let d = domain();
        let mut s = EventStream::new(EventStreamConfig::default(), &d, 1, Timestamp::ZERO);
        let events = s.take(100);
        for pair in events.windows(2) {
            assert!(pair[1].at > pair[0].at);
        }
        let ids: std::collections::HashSet<i64> = events
            .iter()
            .map(|e| match e.row[0] {
                Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids.len(), 100);
    }

    #[test]
    fn arrival_rate_is_roughly_poisson() {
        let d = domain();
        let cfg = EventStreamConfig {
            events_per_hour: 1000.0,
            ..Default::default()
        };
        let mut s = EventStream::new(cfg, &d, 2, Timestamp::ZERO);
        let events = s.take(2000);
        let span = events.last().unwrap().at.since(events[0].at);
        let hours = span.as_secs_f64() / 3600.0;
        let rate = 2000.0 / hours;
        assert!(
            (800.0..1200.0).contains(&rate),
            "measured rate {rate} far from 1000/h"
        );
    }

    #[test]
    fn until_respects_horizon() {
        let d = domain();
        let mut s = EventStream::new(EventStreamConfig::default(), &d, 3, Timestamp::ZERO);
        let horizon = Timestamp::ZERO + Duration::hours(10);
        let events = s.until(horizon);
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.at < horizon));
        // ~100/h × 10 h ≈ 1000.
        assert!((500..1500).contains(&events.len()), "{}", events.len());
    }

    #[test]
    fn rows_are_well_formed() {
        let d = domain();
        let mut s = EventStream::new(EventStreamConfig::default(), &d, 4, Timestamp::ZERO);
        let e = s.next_event();
        assert_eq!(e.row.len(), 4);
        assert!(matches!(e.row[0], Value::Int(_)));
        assert!(matches!(&e.row[1], Value::Str(u) if u.starts_with("user")));
        assert!(matches!(&e.row[2], Value::Str(a) if a.contains("/Addr")));
        assert!(matches!(e.row[3], Value::Int(s) if (1000..10_000).contains(&s)));
    }
}
