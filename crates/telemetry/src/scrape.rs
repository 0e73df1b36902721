//! Scrape configuration and the Prometheus-style scrape cadence.
//!
//! **Cadence.** Periodic scrapes
//! ([`crate::ConcurrentScrapeManager::scrape_if_due`]) fire on a fixed
//! schedule grid: a tick that arrives late still scrapes immediately, but the
//! *next* due time advances from the grid (`last_due + interval`), not from
//! the actual scrape time — one delayed caller can no longer permanently
//! phase-shift the cadence. An explicit
//! [`crate::ConcurrentScrapeManager::scrape`] (or a whole
//! [`crate::ConcurrentScrapeManager::ingest`] schedule) is an operator action
//! and re-anchors the grid at its own (last) timestamp.

use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime};

/// Scrape configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScrapeConfig {
    /// Interval between scrapes (Prometheus default is 15 s; the paper scrapes
    /// frequently enough that decisions see fresh data).
    pub interval: SimDuration,
    /// Window used when deriving rates from counters.
    pub rate_window: SimDuration,
    /// Optional retention limit for the store.
    pub retention: Option<SimDuration>,
}

impl Default for ScrapeConfig {
    fn default() -> Self {
        ScrapeConfig {
            interval: SimDuration::from_secs(5),
            rate_window: SimDuration::from_secs(30),
            retention: Some(SimDuration::from_secs(3600)),
        }
    }
}

/// The grid-aligned scrape schedule of [`crate::ConcurrentScrapeManager`]:
/// tracks when the next periodic scrape is due and advances along the grid
/// without drifting on late ticks.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ScrapeCadence {
    /// When the next periodic scrape is due (`None` = never scraped).
    next_due: Option<SimTime>,
}

impl ScrapeCadence {
    /// When the next scrape is due (immediately if never scraped).
    pub(crate) fn next_due(&self) -> SimTime {
        self.next_due.unwrap_or(SimTime::ZERO)
    }

    /// True when a periodic scrape is due at `now`.
    pub(crate) fn is_due(&self, now: SimTime) -> bool {
        now >= self.next_due()
    }

    /// Re-anchor the grid at `now` (an explicit operator scrape).
    pub(crate) fn reanchor(&mut self, now: SimTime, interval: SimDuration) {
        self.next_due = Some(now + interval);
    }

    /// Advance the due time along the schedule grid past `now`
    /// (`due + k·interval`), skipping missed ticks in O(1), so a delayed tick
    /// does not drift the due times of subsequent scrapes.
    pub(crate) fn advance_on_grid(&mut self, now: SimTime, interval: SimDuration) {
        if interval.is_zero() {
            self.next_due = Some(now);
            return;
        }
        let due = self.next_due();
        let gap = now.as_nanos().saturating_sub(due.as_nanos());
        let steps = gap / interval.as_nanos() + 1;
        self.next_due = Some(SimTime::from_nanos(
            due.as_nanos()
                .saturating_add(steps.saturating_mul(interval.as_nanos())),
        ));
    }
}
