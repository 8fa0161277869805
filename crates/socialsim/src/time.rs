//! A minimal simulated calendar date.
//!
//! The PSP time-window analysis (paper Figure 9-B vs 9-C) only needs dates with
//! day precision and total ordering, so a small purpose-built type avoids pulling a
//! full date-time dependency into the workspace.

use serde::{Deserialize, Serialize};

/// A calendar date with day precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SimDate {
    year: i32,
    month: u8,
    day: u8,
}

impl SimDate {
    /// Creates a date, clamping month into `1..=12` and day into `1..=28`
    /// (the simulator never needs month-end precision, and clamping to 28 keeps
    /// every (year, month, day) combination valid without a calendar table).
    #[must_use]
    pub fn new(year: i32, month: u8, day: u8) -> Self {
        Self {
            year,
            month: month.clamp(1, 12),
            day: day.clamp(1, 28),
        }
    }

    /// The first day of a year.
    #[must_use]
    pub fn start_of_year(year: i32) -> Self {
        Self::new(year, 1, 1)
    }

    /// The year component.
    #[must_use]
    pub fn year(&self) -> i32 {
        self.year
    }

    /// Whether the date falls within `[from, to]` (inclusive).
    #[must_use]
    pub fn within(&self, from: SimDate, to: SimDate) -> bool {
        *self >= from && *self <= to
    }
}

/// An inclusive date window used by queries ("only posts since 2021").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DateWindow {
    /// Inclusive lower bound.
    pub from: SimDate,
    /// Inclusive upper bound.
    pub to: SimDate,
}

impl DateWindow {
    /// Creates a window; swaps the bounds if given in the wrong order.
    #[must_use]
    pub fn new(from: SimDate, to: SimDate) -> Self {
        if from <= to {
            Self { from, to }
        } else {
            Self { from: to, to: from }
        }
    }

    /// A window spanning the given years (inclusive).
    #[must_use]
    pub fn years(from_year: i32, to_year: i32) -> Self {
        Self::new(
            SimDate::start_of_year(from_year),
            SimDate::new(to_year, 12, 28),
        )
    }

    /// Whether the window contains the date.
    #[must_use]
    pub fn contains(&self, date: SimDate) -> bool {
        date.within(self.from, self.to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_chronological() {
        assert!(SimDate::new(2020, 5, 10) < SimDate::new(2021, 1, 1));
        assert!(SimDate::new(2021, 1, 1) < SimDate::new(2021, 2, 1));
        assert!(SimDate::new(2021, 2, 1) < SimDate::new(2021, 2, 15));
    }

    #[test]
    fn clamping_keeps_dates_valid() {
        let d = SimDate::new(2022, 0, 0);
        assert_eq!((d.month, d.day), (1, 1));
        let d = SimDate::new(2022, 13, 31);
        assert_eq!((d.month, d.day), (12, 28));
    }

    #[test]
    fn window_contains_bounds() {
        let w = DateWindow::years(2019, 2021);
        assert!(w.contains(SimDate::new(2019, 1, 1)));
        assert!(w.contains(SimDate::new(2021, 12, 28)));
        assert!(!w.contains(SimDate::new(2022, 1, 1)));
        assert!(!w.contains(SimDate::new(2018, 12, 28)));
    }

    #[test]
    fn window_swaps_inverted_bounds() {
        let w = DateWindow::new(SimDate::new(2022, 1, 1), SimDate::new(2020, 1, 1));
        assert!(w.from < w.to);
    }
}
