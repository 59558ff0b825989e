//! Cross-request artifact cache for scenario builds.
//!
//! A long-running `hpn-experiments serve` process answers a stream of
//! what-if requests that overwhelmingly share structure: "same fabric,
//! different faults", "same topology, new workload". Rebuilding the fabric
//! wiring, routing tables and path interner from scratch per request
//! throws that overlap away. The [`ArtifactCache`] keeps the
//! expensive build artifacts alive across requests, keyed by the
//! *canonical serialization of exactly the scenario sections that
//! determine each artifact*:
//!
//! | artifact                        | key sections                          |
//! |---------------------------------|---------------------------------------|
//! | built [`Fabric`]                | `[topology]`                          |
//! | routing tables ([`Router`])     | `[topology]` + `[routing]`            |
//! | interned route set ([`PathSet`])| `[topology]` + `[routing]` + `[workload]` |
//!
//! Keys are built from [`Scenario::to_doc`], which emits every config
//! field explicitly (defaults included), so two TOML files that *mean*
//! the same topology produce the same key regardless of which fields they
//! spelled out. The scenario `name` and `[faults]` never enter a key:
//! a repeated what-if with different fault schedules reuses the fabric,
//! router and route set — the acceptance case this cache exists for.
//!
//! **Cache safety** (the full argument lives in DESIGN.md §9): fabric and
//! router are immutable after build (`Arc`-shared; policy mutation is
//! copy-on-write via `ClusterSim::router_mut`), so sharing them cannot
//! change results. The path snapshot only pre-populates a fresh
//! interner; `PathId` values never reach output bytes, so warm interning
//! is byte-silent, and serve stays byte-identical to batch runs under
//! either allocator.

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::Mutex;

use hpn_routing::router::Router;
use hpn_sim::PathSet;
use hpn_telemetry::SimCtx;
use hpn_topology::Fabric;
use hpn_transport::ClusterSim;

use crate::build::Session;
use crate::error::ScenarioError;
use crate::spec::Scenario;
use crate::toml::{serialize, Table};

/// Hit/miss counters per artifact class, plus harvest counts. Snapshot via
/// [`ArtifactCache::stats`]; `serve` exposes them at `GET /status` so
/// clients (and CI) can assert "the second run reused the fabric".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fabric builds served from cache.
    pub topology_hits: u64,
    /// Fabric builds that had to run.
    pub topology_misses: u64,
    /// Router builds served from cache.
    pub router_hits: u64,
    /// Router builds that had to run.
    pub router_misses: u64,
    /// Fresh interners warmed from a cached route set.
    pub path_hits: u64,
    /// Builds that found no cached route set for their key.
    pub path_misses: u64,
    /// Completed runs whose artifacts were stored back into the cache.
    pub harvests: u64,
}

#[derive(Default)]
struct Inner {
    fabrics: HashMap<String, Arc<Fabric>>,
    routers: HashMap<String, Arc<Router>>,
    paths: HashMap<String, PathSet>,
    stats: CacheStats,
}

/// The cross-request artifact cache (see the module docs). Interior
/// mutability is confined to one `Mutex` held only for map probes and
/// inserts — fabric builds run outside the lock — so concurrent `serve`
/// workers share one cache without serializing their builds.
#[derive(Default)]
pub struct ArtifactCache {
    inner: Mutex<Inner>,
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("artifact cache").stats
    }

    /// The built fabric for `sc`'s `[topology]` section, from cache or
    /// built now (outside the lock) and stored. Two racing builders may
    /// both build; the first insert wins and both callers share it.
    pub fn fabric(&self, sc: &Scenario) -> Result<Arc<Fabric>, ScenarioError> {
        let key = topology_key(sc);
        {
            let mut inner = self.inner.lock().expect("artifact cache");
            if let Some(f) = inner.fabrics.get(&key).cloned() {
                inner.stats.topology_hits += 1;
                return Ok(f);
            }
            inner.stats.topology_misses += 1;
        }
        let built = sc.build_topology()?;
        let mut inner = self.inner.lock().expect("artifact cache");
        Ok(Arc::clone(inner.fabrics.entry(key).or_insert(built)))
    }

    /// The routing tables for `sc`'s `[topology]`+`[routing]` sections
    /// over `fabric`, from cache or built now and stored.
    pub fn router(&self, sc: &Scenario, fabric: &Arc<Fabric>) -> Arc<Router> {
        let key = routing_key(sc);
        {
            let mut inner = self.inner.lock().expect("artifact cache");
            if let Some(r) = inner.routers.get(&key).cloned() {
                inner.stats.router_hits += 1;
                return r;
            }
            inner.stats.router_misses += 1;
        }
        let built = sc.build_routing(fabric);
        let mut inner = self.inner.lock().expect("artifact cache");
        Arc::clone(inner.routers.entry(key).or_insert(built))
    }

    /// The cached route set for `sc`'s session key
    /// (`[topology]`+`[routing]`+`[workload]` — faults excluded, so a
    /// different fault schedule still hits), if a previous run harvested
    /// one.
    pub fn paths(&self, sc: &Scenario) -> Option<PathSet> {
        let key = session_key(sc);
        let mut inner = self.inner.lock().expect("artifact cache");
        match inner.paths.get(&key).cloned() {
            Some(p) => {
                inner.stats.path_hits += 1;
                Some(p)
            }
            None => {
                inner.stats.path_misses += 1;
                None
            }
        }
    }

    /// Store a finished run's reusable artifact back into the cache: the
    /// net's route-set snapshot. Later snapshots overwrite earlier ones —
    /// a warm run's snapshot is a superset of its seed, so the cached set
    /// grows toward the scenario's route closure.
    pub fn harvest(&self, sc: &Scenario, cluster: &ClusterSim) {
        let paths = cluster.net.path_snapshot();
        let mut inner = self.inner.lock().expect("artifact cache");
        if !paths.is_empty() {
            inner.paths.insert(session_key(sc), paths);
        }
        inner.stats.harvests += 1;
    }

    /// Warm a freshly built session from the cache: seed the (still
    /// empty) path interner from the cached route set.
    fn warm(&self, sc: &Scenario, cluster: &mut ClusterSim) {
        if let Some(set) = self.paths(sc) {
            cluster.net.seed_paths(&set);
        }
    }
}

impl Scenario {
    /// [`Scenario::build_with`], but with every cacheable phase routed
    /// through `cache`: the fabric and router come from (or land in) the
    /// cache, and the fresh session is warmed with any cached route set.
    /// Run the session, then hand it back via [`ArtifactCache::harvest`]
    /// so the *next* same-shape request starts warm.
    pub fn build_cached(
        &self,
        ctx: &SimCtx,
        cache: &ArtifactCache,
    ) -> Result<Session, ScenarioError> {
        let fabric = cache.fabric(self)?;
        let router = cache.router(self, &fabric);
        let mut session = self.attach_workload(fabric, router, ctx)?;
        cache.warm(self, &mut session.cluster);
        Ok(session)
    }
}

/// Serialize only the named top-level sections of `sc`'s canonical doc.
/// `to_doc` emits every config field explicitly (defaults included) in a
/// fixed order, so the serialization is a canonical form of the sections'
/// *meaning*, not of the input file's spelling.
fn section_key(sc: &Scenario, sections: &[&str]) -> String {
    let doc = sc.to_doc();
    let mut out = Table::new();
    for &s in sections {
        if let Some(item) = doc.get(s) {
            out.set(s, item.clone());
        }
    }
    serialize(&out)
}

/// Cache key of the built fabric: the `[topology]` section alone.
pub fn topology_key(sc: &Scenario) -> String {
    section_key(sc, &["topology"])
}

/// Cache key of routing tables: `[topology]` + `[routing]`.
pub fn routing_key(sc: &Scenario) -> String {
    section_key(sc, &["topology", "routing"])
}

/// Cache key of the interned route set:
/// `[topology]` + `[routing]` + `[workload]`. Faults are excluded by
/// design — fault-driven reroutes only add paths, and seeded ids never
/// reach output bytes — so "same topology, different faults" stays warm.
pub fn session_key(sc: &Scenario) -> String {
    section_key(sc, &["topology", "routing", "workload"])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FaultsSpec, Injection, ModelId, TopologySpec, WorkloadSpec};
    use hpn_topology::HpnConfig;

    fn tiny(name: &str) -> Scenario {
        Scenario::new(name, TopologySpec::Hpn(HpnConfig::tiny()))
    }

    fn faulty(name: &str, at_secs: f64) -> Scenario {
        tiny(name).with_faults(FaultsSpec {
            poisson: None,
            injections: vec![Injection {
                host: 0,
                rail: 0,
                port: 0,
                at_secs,
                repair_secs: None,
            }],
        })
    }

    #[test]
    fn cache_is_sync_and_send() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<ArtifactCache>();
    }

    #[test]
    fn keys_ignore_name_and_faults() {
        let a = faulty("a", 1.0);
        let b = faulty("b", 2.0);
        assert_eq!(topology_key(&a), topology_key(&b));
        assert_eq!(routing_key(&a), routing_key(&b));
        assert_eq!(session_key(&a), session_key(&b));
        assert!(!topology_key(&a).is_empty());
    }

    #[test]
    fn keys_distinguish_sections() {
        let base = tiny("x");
        let mut other_cfg = HpnConfig::tiny();
        other_cfg.segments_per_pod += 1;
        let other_topo = Scenario::new("x", TopologySpec::Hpn(other_cfg));
        assert_ne!(topology_key(&base), topology_key(&other_topo));

        let with_wl =
            tiny("x").with_workload(WorkloadSpec::new(ModelId::Llama7b, 2, 2, 64).gpu_secs(0.1));
        assert_eq!(
            routing_key(&base),
            routing_key(&with_wl),
            "workload does not enter the routing key"
        );
        assert_ne!(session_key(&base), session_key(&with_wl));
    }

    #[test]
    fn second_build_reuses_fabric_and_router() {
        let cache = ArtifactCache::new();
        let ctx = SimCtx::new();
        let s1 = faulty("first", 1.0)
            .build_cached(&ctx, &cache)
            .expect("builds");
        cache.harvest(&faulty("first", 1.0), &s1.cluster);
        let stats = cache.stats();
        assert_eq!(stats.topology_misses, 1);
        assert_eq!(stats.router_misses, 1);

        // Same topology, different faults: fabric + router hit.
        let _s2 = faulty("second", 5.0)
            .build_cached(&ctx, &cache)
            .expect("builds");
        let stats = cache.stats();
        assert_eq!(stats.topology_hits, 1);
        assert_eq!(stats.router_hits, 1);
        assert_eq!(stats.topology_misses, 1, "no rebuild");
    }

    #[test]
    fn harvested_route_set_warms_the_next_interner() {
        let cache = ArtifactCache::new();
        let ctx = SimCtx::new();
        let sc = tiny("warm");
        let mut s1 = sc.build_cached(&ctx, &cache).expect("builds");
        // Intern something so the harvest has a route set to keep.
        let l0 = hpn_sim::LinkId(0);
        s1.cluster.net.intern_path(&[l0]);
        cache.harvest(&sc, &s1.cluster);

        let s2 = sc.build_cached(&ctx, &cache).expect("builds");
        assert_eq!(
            s2.cluster.net.path_count(),
            1,
            "fresh session starts with the harvested route set"
        );
        assert_eq!(cache.stats().path_hits, 1);
    }
}
