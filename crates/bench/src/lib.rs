//! # kagen-bench
//!
//! The experiment harness: one module per figure of the paper's
//! evaluation (§8), plus ablations of the design choices. The
//! `experiments` binary dispatches on experiment ids and emits
//! markdown. Absolute numbers are machine-local; the
//! reproduction target is the *shape* of each figure (who wins, scaling
//! slopes, crossovers).

pub mod ablations;
pub mod er_exp;
pub mod headline;
pub mod lemmas;
pub mod rdg_exp;
pub mod rgg_exp;
pub mod rhg_exp;
pub mod rmat_exp;
pub mod support;

/// All experiment ids in paper order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "headline",
    "abl-trig",
    "abl-cells",
    "abl-chunks",
    "abl-rmat",
    "abl-mem",
    "abl-gpu",
    "lemma-oe",
    "lemma-global",
];

/// Run one experiment by id; `fast` shrinks workloads (CI mode).
pub fn run_experiment(id: &str, fast: bool) -> Option<String> {
    Some(match id {
        "fig6" => er_exp::fig6_sequential(fast),
        "fig7" => er_exp::fig7_weak_scaling(fast),
        "fig8" => er_exp::fig8_strong_scaling(fast),
        "fig9" => rgg_exp::fig9_vs_holtgrewe(fast),
        "fig10" => rgg_exp::fig10_weak_scaling(fast),
        "fig11" => rgg_exp::fig11_strong_scaling(fast),
        "fig12" => rdg_exp::fig12_weak_scaling(fast),
        "fig13" => rdg_exp::fig13_strong_scaling(fast),
        "fig14" => rhg_exp::fig14_shootout(fast),
        "fig15" => rhg_exp::fig15_weak_scaling(fast),
        "fig16" => rhg_exp::fig16_strong_scaling(fast),
        "fig17" => rmat_exp::fig17_weak_scaling(fast),
        "fig18" => rmat_exp::fig18_strong_scaling(fast),
        "headline" => headline::throughput(fast),
        "abl-trig" => ablations::trig_free(fast),
        "abl-cells" => ablations::cell_batching(fast),
        "abl-chunks" => ablations::redundancy(fast),
        "abl-rmat" => ablations::rmat_tables(fast),
        "abl-mem" => lemmas::memory_footprint(fast),
        "abl-gpu" => lemmas::gpu_pipelines(fast),
        "lemma-oe" => lemmas::overestimation(fast),
        "lemma-global" => lemmas::global_annuli(fast),
        _ => return None,
    })
}
