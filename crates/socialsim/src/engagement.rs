//! Post engagement metrics.
//!
//! The PSP SAI computation "elaborates on the number of views, interactions, and
//! popularity of the identified posts"; these are the metrics a search endpoint
//! returns per post.

use serde::{Deserialize, Serialize};

/// Engagement counters of one post.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Engagement {
    /// Number of views / impressions.
    pub views: u64,
    /// Number of likes.
    pub likes: u64,
    /// Number of replies.
    pub replies: u64,
    /// Number of reposts / retweets.
    pub reposts: u64,
}

impl Engagement {
    /// Creates an engagement record.
    #[must_use]
    pub fn new(views: u64, likes: u64, replies: u64, reposts: u64) -> Self {
        Self {
            views,
            likes,
            replies,
            reposts,
        }
    }

    /// Total active interactions (likes + replies + reposts).
    #[must_use]
    pub fn interactions(&self) -> u64 {
        self.likes + self.replies + self.reposts
    }

    /// Interaction rate: interactions per view (0 when the post has no views).
    #[must_use]
    pub fn interaction_rate(&self) -> f64 {
        if self.views == 0 {
            0.0
        } else {
            self.interactions() as f64 / self.views as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interactions_sum_active_signals() {
        let e = Engagement::new(1_000, 40, 10, 5);
        assert_eq!(e.interactions(), 55);
    }

    #[test]
    fn interaction_rate_handles_zero_views() {
        assert_eq!(Engagement::new(0, 5, 5, 5).interaction_rate(), 0.0);
        let e = Engagement::new(200, 10, 0, 0);
        assert!((e.interaction_rate() - 0.05).abs() < 1e-12);
    }
}
