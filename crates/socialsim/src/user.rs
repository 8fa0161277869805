//! Simulated social-media users.

use serde::{Deserialize, Serialize};

/// A social-media account that authors posts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct User {
    handle: String,
    followers: u64,
    /// Account age in months at corpus-generation time.
    account_age_months: u32,
    /// Whether the account is part of an automated (bot) campaign.
    bot: bool,
}

impl User {
    /// Creates an organic user.
    #[must_use]
    pub fn new(handle: impl Into<String>, followers: u64, account_age_months: u32) -> Self {
        Self {
            handle: handle.into(),
            followers,
            account_age_months,
            bot: false,
        }
    }

    /// Creates a bot account (used by the poisoning module).
    #[must_use]
    pub fn bot(handle: impl Into<String>) -> Self {
        Self {
            handle: handle.into(),
            followers: 3,
            account_age_months: 1,
            bot: true,
        }
    }

    /// Whether the account is flagged as a bot by the generator (ground truth used
    /// to evaluate the poisoning filter — the filter itself never reads this).
    #[must_use]
    pub fn is_bot(&self) -> bool {
        self.bot
    }

    /// A credibility score in `[0, 1]` combining follower count and account age.
    /// This is what the PSP poisoning filter thresholds on.
    #[must_use]
    pub fn credibility(&self) -> f64 {
        let follower_part = (self.followers as f64 + 1.0).log10() / 6.0;
        let age_part = f64::from(self.account_age_months.min(60)) / 60.0;
        (0.6 * follower_part + 0.4 * age_part).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn organic_user_is_not_bot() {
        let u = User::new("dieselfan", 1_200, 48);
        assert!(!u.is_bot());
        assert_eq!(u.handle, "dieselfan");
        assert_eq!(u.followers, 1_200);
    }

    #[test]
    fn bot_accounts_have_low_credibility() {
        let bot = User::bot("spam123");
        let organic = User::new("veteran_mechanic", 5_000, 60);
        assert!(bot.is_bot());
        assert!(bot.credibility() < 0.2);
        assert!(organic.credibility() > 0.5);
    }

    #[test]
    fn credibility_is_bounded() {
        let whale = User::new("oem_press", 10_000_000, 240);
        assert!(whale.credibility() <= 1.0);
        let newborn = User::new("x", 0, 0);
        assert!(newborn.credibility() >= 0.0);
    }

    #[test]
    fn credibility_grows_with_followers() {
        let small = User::new("a", 10, 24);
        let large = User::new("b", 100_000, 24);
        assert!(large.credibility() > small.credibility());
    }
}
