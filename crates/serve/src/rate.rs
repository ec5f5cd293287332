//! The workspace's one token bucket, in exact integer arithmetic on
//! virtual microseconds the caller passes in. Used by the front end,
//! [`Frontend`](crate::Frontend) (requests per client per minute).
//!
//! A bucket is three `u64`s — whole tokens, the time of the last call, the
//! refill residue — 24 bytes, because the front end keeps one per client;
//! the [`Limit`] it enforces is held once by the caller. Refill is
//! `accrued = elapsed · rate + carry`, `tokens += accrued / period_us`,
//! `carry = accrued % period_us`: the remainder rides to the next call, so
//! what a bucket earns depends on the time that passed, never on how the
//! calls were spaced. A bucket at its burst forfeits the carry.

/// What a bucket enforces: `rate` tokens per `period_us` (at least 1), at
/// most `burst` banked. A zero rate is a finite quota: the burst, then
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limit {
    /// Tokens earned per period.
    pub rate: u64,
    /// The period `rate` is counted over, microseconds.
    pub period_us: u64,
    /// Most tokens a bucket holds, and what it starts with.
    pub burst: u64,
}

/// One bucket's state. Single-owner: every call takes `&mut self`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenBucket {
    tokens: u64,
    last_us: u64,
    /// Refill residue in µs·rate units, always `< period_us`.
    carry: u64,
}

impl TokenBucket {
    /// A full bucket at time zero.
    pub fn full(limit: &Limit) -> TokenBucket {
        TokenBucket { tokens: limit.burst, last_us: 0, carry: 0 }
    }

    /// Refills for the time since the last call, then takes one token if
    /// there is one. `now_us` must not run backwards.
    #[inline]
    pub fn try_take(&mut self, limit: &Limit, now_us: u64) -> bool {
        let elapsed = now_us.saturating_sub(self.last_us);
        self.last_us = now_us;
        // 128 bits: a long idle gap at a high rate does not fit in 64.
        let accrued = u128::from(elapsed) * u128::from(limit.rate) + u128::from(self.carry);
        let (earned, carry) = match u64::try_from(accrued) {
            Ok(accrued) => (accrued / limit.period_us, accrued % limit.period_us),
            Err(_) => {
                let period = u128::from(limit.period_us);
                (u64::try_from(accrued / period).unwrap_or(u64::MAX), (accrued % period) as u64)
            }
        };
        self.tokens = self.tokens.saturating_add(earned);
        if self.tokens >= limit.burst {
            // Otherwise a long-idle owner would bank credit past the burst.
            self.tokens = limit.burst;
            self.carry = 0;
        } else {
            self.carry = carry;
        }
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn per_second(rate: u64, burst: u64) -> Limit {
        Limit { rate, period_us: 1_000_000, burst }
    }

    #[test]
    fn burst_then_starve() {
        let limit = per_second(1000, 5);
        let mut bucket = TokenBucket::full(&limit);
        let mut now = 0;
        // Burst allows 5 immediate probes...
        let got = (0..10).filter(|_| bucket.try_take(&limit, now)).count();
        assert_eq!(got, 5);
        // ...then the bucket is empty until time passes.
        assert!(!bucket.try_take(&limit, now));
        now += 1_000; // 1 ms at 1000 pps = 1 token
        assert!(bucket.try_take(&limit, now));
        assert!(!bucket.try_take(&limit, now));
    }

    #[test]
    fn sustained_rate_enforced() {
        let limit = per_second(100, 1);
        let mut bucket = TokenBucket::full(&limit);
        let mut sent = 0;
        // Simulate one second in 1 ms steps.
        for step in 1..=1000 {
            if bucket.try_take(&limit, step * 1_000) {
                sent += 1;
            }
        }
        assert!((95..=105).contains(&sent), "sent {sent} at 100 pps");
    }

    #[test]
    fn refill_caps_at_burst() {
        let limit = per_second(1000, 3);
        let mut bucket = TokenBucket::full(&limit);
        let now = 10_000_000; // ten seconds idle
        let got = (0..10).filter(|_| bucket.try_take(&limit, now)).count();
        assert_eq!(got, 3, "burst cap respected after idle");
    }

    #[test]
    fn a_long_idle_gap_at_a_high_rate_does_not_overflow() {
        // elapsed · rate = 2 · u64::MAX: `cur + refill` after a
        // saturating multiply used to overflow here.
        let limit = per_second(u64::MAX, 1);
        let mut bucket = TokenBucket::full(&limit);
        assert!(bucket.try_take(&limit, 0));
        assert!(bucket.try_take(&limit, 2), "refilled to the burst");
        assert!(!bucket.try_take(&limit, 2), "and not past it");
        let limit = Limit { rate: u64::MAX, period_us: 1, burst: u64::MAX };
        let mut bucket = TokenBucket { tokens: 0, last_us: 0, carry: 0 };
        assert!(bucket.try_take(&limit, u64::MAX), "earned tokens saturate at the burst");
    }

    #[test]
    fn a_bucket_is_three_words() {
        assert_eq!(std::mem::size_of::<TokenBucket>(), 24);
    }
}
