//! Multi-cloudlet resource coordination (§7).
//!
//! When several cloudlets (search, ads, maps, yellow pages...) share one
//! device they compete for memory and interact semantically. Section 7
//! sketches three OS-level mechanisms, which this module makes concrete:
//!
//! * **Budget arbitration** — divide a DRAM index budget across cloudlets
//!   by priority without starving user applications.
//! * **Coordinated eviction** — related items ("this query's search
//!   results and its ad banners") are registered under a shared key and
//!   evicted together, since hitting the ad cache is worthless once the
//!   search cache misses and the radio must wake anyway.
//! * **Access isolation** — a cloudlet may not read another cloudlet's
//!   cache unless explicitly granted (the map cloudlet must not see bank
//!   transactions).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

/// Identifies one cloudlet on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CloudletId(pub u32);

impl std::fmt::Display for CloudletId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cloudlet#{}", self.0)
    }
}

/// A cloudlet's demand on the shared index budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BudgetDemand {
    /// Who is asking.
    pub cloudlet: CloudletId,
    /// Bytes of index the cloudlet would like.
    pub demand_bytes: usize,
    /// Relative priority weight (> 0).
    pub priority: f64,
}

/// Priority-weighted, demand-capped division of a byte budget
/// (water-filling): no cloudlet receives more than it asked for, and
/// leftover capacity is redistributed by priority.
///
/// Demands can be registered once ([`CloudletBudgets::register`]) or
/// updated in place epoch after epoch ([`CloudletBudgets::set_demand`])
/// without rebuilding the arbiter; [`CloudletBudgets::allocate`] takes
/// `&self`, so one arbiter serves any number of allocations.
///
/// # Water-filling invariants
///
/// For any demand set, [`CloudletBudgets::allocate`] guarantees:
///
/// 1. **Demand cap** — no cloudlet is granted more than its
///    `demand_bytes`.
/// 2. **Budget cap** — the grants sum to at most `total_bytes`.
/// 3. **Work conservation** — the grants sum to exactly
///    `min(total_bytes, Σ demand_bytes)` up to integer rounding, and
///    any rounding remainder goes to the highest-priority unsatisfied
///    demand.
/// 4. **Priority proportionality** — while contended, unsatisfied
///    cloudlets receive budget in proportion to their priorities;
///    cloudlets whose demand is met early drop out and their share is
///    re-divided among the rest (the "water" keeps rising).
///
/// # Example
///
/// ```
/// use cloudlet_core::coordination::{BudgetDemand, CloudletBudgets, CloudletId};
///
/// let (search, ads) = (CloudletId(0), CloudletId(1));
/// let mut budgets = CloudletBudgets::new(1_000);
/// budgets.set_demand(BudgetDemand { cloudlet: search, demand_bytes: 900, priority: 1.0 });
/// budgets.set_demand(BudgetDemand { cloudlet: ads, demand_bytes: 900, priority: 1.0 });
/// let equal = budgets.allocate();
/// assert_eq!(equal[&search], 500);
///
/// // Next epoch: update one demand in place and re-allocate.
/// budgets.set_demand(BudgetDemand { cloudlet: ads, demand_bytes: 900, priority: 3.0 });
/// let skewed = budgets.allocate();
/// assert!(skewed[&ads] > skewed[&search]);
/// assert_eq!(skewed[&ads] + skewed[&search], 1_000);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CloudletBudgets {
    total_bytes: usize,
    demands: Vec<BudgetDemand>,
}

impl CloudletBudgets {
    /// Creates an arbiter over `total_bytes` of index memory.
    pub fn new(total_bytes: usize) -> Self {
        CloudletBudgets {
            total_bytes,
            demands: Vec::new(),
        }
    }

    /// Registers one cloudlet's demand.
    ///
    /// # Panics
    ///
    /// Panics if `priority` is not positive and finite, or the cloudlet
    /// was already registered.
    pub fn register(&mut self, demand: BudgetDemand) {
        assert!(
            demand.priority.is_finite() && demand.priority > 0.0,
            "priority must be positive and finite"
        );
        assert!(
            !self.demands.iter().any(|d| d.cloudlet == demand.cloudlet),
            "{} is already registered",
            demand.cloudlet
        );
        self.demands.push(demand);
    }

    /// Updates a cloudlet's demand in place, or registers it if new —
    /// the per-epoch surface of the adaptive arbiter
    /// ([`crate::arbiter::AdaptiveArbiter`]), which re-prices every
    /// cloudlet each epoch without rebuilding the arbiter.
    ///
    /// # Panics
    ///
    /// Panics if `priority` is not positive and finite.
    pub fn set_demand(&mut self, demand: BudgetDemand) {
        assert!(
            demand.priority.is_finite() && demand.priority > 0.0,
            "priority must be positive and finite"
        );
        match self
            .demands
            .iter_mut()
            .find(|d| d.cloudlet == demand.cloudlet)
        {
            Some(existing) => *existing = demand,
            None => self.demands.push(demand),
        }
    }

    /// Drops every registered demand, keeping the budget.
    pub fn clear(&mut self) {
        self.demands.clear();
    }

    /// Computes the allocation (see the type-level invariants).
    pub fn allocate(&self) -> BTreeMap<CloudletId, usize> {
        let mut granted: BTreeMap<CloudletId, usize> =
            self.demands.iter().map(|d| (d.cloudlet, 0)).collect();
        let mut active: Vec<&BudgetDemand> = self.demands.iter().collect();
        let mut remaining = self.total_bytes;

        while remaining > 0 && !active.is_empty() {
            let weight: f64 = active.iter().map(|d| d.priority).sum();
            let mut next_active = Vec::new();
            let mut distributed = 0usize;
            for d in &active {
                let already = granted[&d.cloudlet];
                let fair = (remaining as f64 * d.priority / weight).floor() as usize;
                let want = d.demand_bytes.saturating_sub(already);
                let take = fair.min(want);
                *granted.entry(d.cloudlet).or_insert(0) += take;
                distributed += take;
                if take < want {
                    next_active.push(*d);
                }
            }
            if distributed == 0 {
                // Everyone is satisfied or rounding has stalled; hand the
                // last few bytes to the highest-priority unsatisfied demand.
                if let Some(d) = next_active
                    .iter()
                    .max_by(|a, b| a.priority.total_cmp(&b.priority))
                {
                    let already = granted[&d.cloudlet];
                    let take = remaining.min(d.demand_bytes.saturating_sub(already));
                    *granted.entry(d.cloudlet).or_insert(0) += take;
                }
                break;
            }
            remaining -= distributed;
            active = next_active;
        }
        granted
    }
}

/// Groups related cache items across cloudlets for joint eviction.
///
/// # Example
///
/// ```
/// use cloudlet_core::coordination::{CloudletId, CoordinatedEviction};
///
/// let mut ev = CoordinatedEviction::new();
/// let (search, ads) = (CloudletId(0), CloudletId(1));
/// // The same query's search results and ad banner share an eviction key.
/// ev.link(42, search, 1001);
/// ev.link(42, ads, 2002);
/// let evicted = ev.evict(42);
/// assert_eq!(evicted.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CoordinatedEviction {
    groups: HashMap<u64, BTreeSet<(CloudletId, u64)>>,
}

impl CoordinatedEviction {
    /// An empty registry.
    pub fn new() -> Self {
        CoordinatedEviction::default()
    }

    /// Links `(cloudlet, item)` under a shared eviction `key` (typically
    /// the query hash both caches serve).
    pub fn link(&mut self, key: u64, cloudlet: CloudletId, item: u64) {
        self.groups.entry(key).or_default().insert((cloudlet, item));
    }

    // api-ok: §7 coordinated eviction; tests/multi_cloudlet.rs evicts
    // the search and ad entries of one query together through it.
    /// Evicts the whole group, returning every `(cloudlet, item)` that
    /// must drop its entry.
    pub fn evict(&mut self, key: u64) -> Vec<(CloudletId, u64)> {
        self.groups
            .remove(&key)
            .map(|s| s.into_iter().collect())
            .unwrap_or_default()
    }
}

/// Deny-by-default cross-cloudlet read permissions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AccessControl {
    grants: BTreeSet<(CloudletId, CloudletId)>,
}

impl AccessControl {
    /// An empty (fully isolated) policy.
    pub fn new() -> Self {
        AccessControl::default()
    }

    /// Grants `reader` access to `owner`'s cache contents.
    pub fn grant(&mut self, reader: CloudletId, owner: CloudletId) {
        self.grants.insert((reader, owner));
    }

    /// Whether `reader` may read `owner`'s cache. A cloudlet always reads
    /// its own cache.
    pub fn can_access(&self, reader: CloudletId, owner: CloudletId) -> bool {
        reader == owner || self.grants.contains(&(reader, owner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEARCH: CloudletId = CloudletId(0);
    const ADS: CloudletId = CloudletId(1);
    const MAPS: CloudletId = CloudletId(2);

    #[test]
    fn allocation_caps_at_demand() {
        let mut b = CloudletBudgets::new(1_000);
        b.register(BudgetDemand {
            cloudlet: SEARCH,
            demand_bytes: 100,
            priority: 1.0,
        });
        b.register(BudgetDemand {
            cloudlet: ADS,
            demand_bytes: 2_000,
            priority: 1.0,
        });
        let a = b.allocate();
        assert_eq!(a[&SEARCH], 100, "never more than demanded");
        assert_eq!(a[&ADS], 900, "leftover flows to the unsatisfied demand");
    }

    #[test]
    fn priorities_skew_contended_budgets() {
        let mut b = CloudletBudgets::new(900);
        b.register(BudgetDemand {
            cloudlet: SEARCH,
            demand_bytes: 900,
            priority: 2.0,
        });
        b.register(BudgetDemand {
            cloudlet: MAPS,
            demand_bytes: 900,
            priority: 1.0,
        });
        let a = b.allocate();
        assert!(a[&SEARCH] > a[&MAPS]);
        assert_eq!(a[&SEARCH] + a[&MAPS], 900);
        let ratio = a[&SEARCH] as f64 / a[&MAPS] as f64;
        assert!((ratio - 2.0).abs() < 0.1, "ratio was {ratio}");
    }

    #[test]
    fn surplus_budget_satisfies_everyone() {
        let mut b = CloudletBudgets::new(10_000);
        for (id, demand) in [(SEARCH, 100), (ADS, 200), (MAPS, 300)] {
            b.register(BudgetDemand {
                cloudlet: id,
                demand_bytes: demand,
                priority: 1.0,
            });
        }
        let a = b.allocate();
        assert_eq!(a[&SEARCH], 100);
        assert_eq!(a[&ADS], 200);
        assert_eq!(a[&MAPS], 300);
    }

    #[test]
    fn empty_arbiter_allocates_nothing() {
        assert!(CloudletBudgets::new(100).allocate().is_empty());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_registration_is_rejected() {
        let mut b = CloudletBudgets::new(100);
        let d = BudgetDemand {
            cloudlet: SEARCH,
            demand_bytes: 10,
            priority: 1.0,
        };
        b.register(d);
        b.register(d);
    }

    #[test]
    fn set_demand_upserts_in_place() {
        let mut b = CloudletBudgets::new(1_000);
        b.register(BudgetDemand {
            cloudlet: SEARCH,
            demand_bytes: 1_000,
            priority: 1.0,
        });
        b.set_demand(BudgetDemand {
            cloudlet: ADS,
            demand_bytes: 1_000,
            priority: 1.0,
        });
        assert_eq!(b.demands.len(), 2);
        assert_eq!(b.total_bytes, 1_000);
        assert_eq!(b.allocate()[&SEARCH], 500);
        // Updating does not duplicate and the new priority takes effect.
        b.set_demand(BudgetDemand {
            cloudlet: SEARCH,
            demand_bytes: 1_000,
            priority: 3.0,
        });
        assert_eq!(b.demands.len(), 2);
        let a = b.allocate();
        assert!(a[&SEARCH] > a[&ADS]);
        b.clear();
        assert!(b.demands.is_empty());
        assert!(b.allocate().is_empty());
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn set_demand_rejects_bad_priorities() {
        CloudletBudgets::new(100).set_demand(BudgetDemand {
            cloudlet: SEARCH,
            demand_bytes: 10,
            priority: -1.0,
        });
    }

    #[test]
    fn eviction_groups_are_atomic() {
        let mut ev = CoordinatedEviction::new();
        ev.link(42, SEARCH, 1);
        ev.link(42, ADS, 2);
        ev.link(43, SEARCH, 3);
        assert_eq!(ev.evict(42), vec![(SEARCH, 1), (ADS, 2)]);
        assert!(ev.evict(42).is_empty(), "double eviction is a no-op");
        assert_eq!(ev.evict(43), vec![(SEARCH, 3)], "other groups stay");
    }

    #[test]
    fn linking_is_idempotent() {
        let mut ev = CoordinatedEviction::new();
        ev.link(1, SEARCH, 7);
        ev.link(1, SEARCH, 7);
        assert_eq!(ev.evict(1), vec![(SEARCH, 7)]);
    }

    #[test]
    fn access_is_deny_by_default_and_directional() {
        let mut acl = AccessControl::new();
        assert!(acl.can_access(SEARCH, SEARCH), "self access is implicit");
        assert!(!acl.can_access(MAPS, SEARCH));
        acl.grant(ADS, SEARCH);
        assert!(acl.can_access(ADS, SEARCH));
        assert!(!acl.can_access(SEARCH, ADS), "grants are one-way");
    }
}
