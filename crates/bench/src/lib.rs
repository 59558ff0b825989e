//! # hpn-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation; each produces a
//! [`report::Report`] with the same rows/series the paper prints. The
//! `hpn-experiments` binary dispatches by experiment id; `EXPERIMENTS.md`
//! records paper-vs-measured for every entry.
//!
//! Experiments accept a [`Scale`]: `full` is the fidelity documented in
//! EXPERIMENTS.md; `quick` shrinks cluster sizes and iteration counts so
//! the whole suite runs in CI time while preserving every qualitative
//! claim (who wins, and roughly by how much).

pub mod bench_regression;
pub mod experiments;
pub mod gate;
pub mod report;
pub mod runner;
pub mod scenario_cli;
pub mod serve;

// The work-stealing pool lives in `hpn-sim`, the bottom crate;
// re-exported here for the bench binaries.
pub use hpn_sim::pool;

pub use hpn_telemetry::SimCtx;
pub use report::Report;

/// Experiment fidelity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Documented fidelity (minutes).
    Full,
    /// CI fidelity (seconds).
    Quick,
}

impl Scale {
    /// Pick between a full-scale and quick value.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// The experiment registry: `(id, description, runner)`. Every experiment
/// receives the cell's explicit [`SimCtx`] (sweep root seed, telemetry
/// recorder, allocator selection) — there is no ambient state to inherit.
pub type ExperimentFn = fn(&SimCtx, Scale) -> Report;

/// All experiments in presentation order.
pub fn registry() -> Vec<(&'static str, &'static str, ExperimentFn)> {
    use experiments as e;
    vec![
        (
            "fig01",
            "Traditional cloud computing traffic pattern",
            e::fig01::run as ExperimentFn,
        ),
        (
            "fig02",
            "NIC egress traffic during model training",
            e::fig02::run,
        ),
        ("fig03", "Connections per host CDF", e::fig03::run),
        (
            "fig04",
            "Checkpoint intervals of representative LLM jobs",
            e::fig04::run,
        ),
        ("fig05", "Monthly link failure ratio", e::fig05::run),
        (
            "fig06",
            "GPUs used in production training jobs (CDF)",
            e::fig06::run,
        ),
        (
            "fig09",
            "51.2T chip power and cooling efficiency",
            e::fig09::run,
        ),
        (
            "fig13",
            "ToR port traffic toward the same NIC: Clos vs dual-plane",
            e::fig13_14::run_fig13,
        ),
        (
            "fig14",
            "Queue length at ToR downstream ports: Clos vs dual-plane",
            e::fig13_14::run_fig14,
        ),
        (
            "table1",
            "Complexity of path selection",
            e::tables::run_table1,
        ),
        (
            "table2",
            "Key mechanisms affecting maximal scale",
            e::tables::run_table2,
        ),
        (
            "table3",
            "Traffic patterns of different parallelisms",
            e::tables::run_table3,
        ),
        (
            "table4",
            "Any-to-any tier2 vs rail-only tier2",
            e::tables::run_table4,
        ),
        (
            "fig15",
            "Large-scale training (1536 GPUs): DCN+ vs HPN",
            e::fig15::run,
        ),
        (
            "fig16",
            "Representative LLMs (LLaMa-7B/13B, GPT-175B): DCN+ vs HPN",
            e::fig16::run,
        ),
        (
            "fig17",
            "Collective communication performance",
            e::fig17::run,
        ),
        (
            "fig18",
            "Reliability under NIC-ToR link malfunctions",
            e::fig18::run,
        ),
        ("fig19", "Dual-plane AllReduce (Appendix A)", e::fig19::run),
        (
            "pathsel",
            "Optimized path selection ablation (§6.1, +34.7%)",
            e::pathsel::run,
        ),
        (
            "crosspod",
            "Cross-pod placement over the 15:1 core (§7)",
            e::crosspod::run,
        ),
        (
            "moe",
            "MoE All-to-All on any-to-any vs rail-only tier2 (§10/Table 4)",
            e::moe::run,
        ),
        (
            "storage",
            "Storage cluster placement: frontend vs backend (§8/§10)",
            e::storage::run,
        ),
        (
            "railopt",
            "Rail-optimized tier-1 ablation (§5.2)",
            e::railopt::run,
        ),
        (
            "dualtor",
            "Stacked vs non-stacked dual-ToR failure modes (§4)",
            e::dualtor::run,
        ),
        (
            "hashing",
            "Hash polarization ablation (§2.2/§6.1)",
            e::hashing::run,
        ),
        (
            "ringtree",
            "Ring vs tree AllReduce crossover (latency-model validation)",
            e::ringtree::run,
        ),
    ]
}

/// Look up an experiment by id.
pub fn find(id: &str) -> Option<ExperimentFn> {
    registry()
        .into_iter()
        .find(|(eid, _, _)| *eid == id)
        .map(|(_, _, f)| f)
}
