//! Per-resolver behaviour profiles.
//!
//! A profile combines the benign machinery every resolver has (cache,
//! occasional duplicate upstream queries — APNIC's "DNS zombies") with the
//! optional shadowing hook that makes a resolver an exhibitor.

use serde::{Deserialize, Serialize};
use shadow_observer::exhibitor::ExhibitorConfig;
use shadow_observer::policy::DelayBucket;

/// Benign duplicate-query habit ("implementation choices (e.g., intentional
/// retries)"). Distinct from shadowing: always DNS, always soon, sent from
/// the resolver itself.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryHabit {
    /// Percent of resolutions that trigger a duplicate upstream query.
    pub percent: u8,
    /// When the duplicate goes out.
    pub delay: DelayBucket,
    /// How many duplicates (usually 1).
    pub count: u32,
}

impl RetryHabit {
    /// The common benign profile: ~25% of resolutions re-query once within
    /// a minute (shaped to reproduce "95% of unsolicited requests arrive
    /// within 1 minute" for non-Resolver_h destinations).
    pub fn common() -> Self {
        Self {
            percent: 25,
            delay: DelayBucket::Seconds(2, 55),
            count: 1,
        }
    }
}

/// Complete behaviour profile of one recursive resolver instance.
#[derive(Debug, Clone)]
pub struct ResolverProfile {
    /// Display name (catalog name, possibly with an instance suffix).
    pub name: String,
    /// Active cache refreshing: re-query upstream when a cached record's
    /// TTL expires. The paper considers this as an alternative explanation
    /// for unsolicited requests and falsifies it by the *absence* of
    /// re-query spikes at the wildcard-TTL (1 h) mark — enabling this flag
    /// reproduces the spike that would have appeared (see
    /// `tests/cache_refresh_spike.rs` in `shadow-dns`).
    pub cache_refresh: bool,
    pub retry: Option<RetryHabit>,
    /// The exhibitor every client qname goes through (`None` = benign).
    pub shadowing: Option<ExhibitorConfig>,
    /// RNG seed for this instance's behaviour.
    pub seed: u64,
}

impl ResolverProfile {
    /// A plain, well-behaved resolver.
    pub fn well_behaved(name: &str, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            cache_refresh: false,
            retry: None,
            shadowing: None,
            seed,
        }
    }

    /// A resolver that actively refreshes expiring cache entries (the
    /// OpenDNS-style behaviour the paper rules out for its findings).
    pub fn with_cache_refresh(name: &str, seed: u64) -> Self {
        Self {
            cache_refresh: true,
            ..Self::well_behaved(name, seed)
        }
    }

    /// A resolver with the common benign retry habit.
    pub fn with_retries(name: &str, seed: u64) -> Self {
        Self {
            retry: Some(RetryHabit::common()),
            ..Self::well_behaved(name, seed)
        }
    }

    /// An exhibitor: retries plus a shadowing pipeline.
    pub fn shadowing(name: &str, seed: u64, config: ExhibitorConfig) -> Self {
        Self {
            retry: Some(RetryHabit::common()),
            shadowing: Some(config),
            ..Self::well_behaved(name, seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_netsim::time::SimDuration;
    use shadow_netsim::topology::NodeId;
    use shadow_observer::policy::{ReplayPolicy, WeightedChoice};

    #[test]
    fn builders_compose() {
        let plain = ResolverProfile::well_behaved("control", 1);
        assert!(plain.retry.is_none() && plain.shadowing.is_none());
        let retrying = ResolverProfile::with_retries("google", 2);
        assert_eq!(retrying.retry.as_ref().unwrap().percent, 25);
        assert!(retrying.shadowing.is_none());
        let config = ExhibitorConfig {
            zone_filter: None,
            policy: ReplayPolicy::heavy_prober(),
            retention_capacity: 10_000,
            retention_ttl: SimDuration::from_days(30),
            origins: vec![WeightedChoice::new(NodeId(1), 1)],
        };
        let shadowing = ResolverProfile::shadowing("yandex", 3, config);
        assert!(shadowing.shadowing.is_some() && shadowing.retry.is_some());
    }
}
