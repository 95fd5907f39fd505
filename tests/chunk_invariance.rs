//! One graph per seed at any chunk count: `kagen <model>` writes the
//! same graph at `-c 1, 2, 7, 64` for every model but the two listed in
//! [`CHUNK_DEPENDENT`]. The generators are pure functions of parameters,
//! seed and PE (§2); this holds them to the stronger property that the
//! union over PEs does not depend on how many PEs there are. Each model
//! is built from its `kagen` argv, so a new model must add a row here.

use kagen_repro::cli::{self, MODELS};
use kagen_repro::core::generate_merged;
use kagen_repro::pipeline::{ChecksumSink, EdgeSink};

/// The models whose graph follows the chunk count: undirected ER cuts
/// its lower triangle on §4.2's chunk × chunk matrix, so the count
/// recursion and the leaf seeds follow `-c`. ROADMAP item 17 takes that
/// grid from the instance instead; this list is then empty.
const CHUNK_DEPENDENT: &[&str] = &["gnm_undirected", "gnp_undirected"];

/// Small instances of every model, as `kagen` flags.
const INSTANCES: &[(&str, &str)] = &[
    ("gnm_directed", "-n 3000 -m 20000"),
    ("gnm_undirected", "-n 3000 -m 20000"),
    ("gnp_directed", "-n 3000 -p 0.002"),
    ("gnp_undirected", "-n 3000 -p 0.004"),
    ("rgg2d", "-n 3000"),
    ("rgg3d", "-n 3000"),
    ("rdg2d", "-n 3000"),
    ("rdg3d", "-n 1000"),
    ("rhg", "-n 3000 -d 8 -g 2.8"),
    ("srhg", "-n 3000 -d 8 -g 2.8"),
    ("soft-rhg", "-n 500 -d 8 -g 2.8 -T 0.5"),
    ("ba", "-n 3000 -d 4"),
    ("rmat", "-n 4096 -m 20000"),
    ("sbm", "-n 3000 -b 4 --p-in 0.01 --p-out 0.001"),
];

const CHUNKS: [usize; 4] = [1, 2, 7, 64];

/// `(n, edges, checksum)` of `kagen <model> <flags> -c <chunks> -s 3`.
fn digest(model: &str, flags: &str, chunks: usize) -> (u64, u64, u64) {
    let argv = format!("{model} {flags} -c {chunks} -s 3");
    let args: Vec<String> = argv.split_whitespace().map(String::from).collect();
    let options = cli::parse(&args).unwrap_or_else(|e| panic!("{argv}: {e}"));
    let graph = generate_merged(options.build().as_ref(), 2);
    let mut sink = ChecksumSink::new();
    sink.push_batch(&graph.edges);
    (graph.n, graph.edges.len() as u64, sink.checksum())
}

#[test]
fn every_model_has_an_instance() {
    let names: Vec<&str> = INSTANCES.iter().map(|(name, _)| *name).collect();
    let models: Vec<&str> = MODELS.iter().map(|m| m.name).collect();
    assert_eq!(names, models);
    assert!(CHUNK_DEPENDENT.iter().all(|m| names.contains(m)));
}

/// Every model outside [`CHUNK_DEPENDENT`] writes one graph at every
/// chunk count; every model inside it writes more than one, so the list
/// shrinks when a model is made invariant.
#[test]
fn one_graph_per_seed_at_any_chunk_count() {
    let mut wrong = Vec::new();
    for &(model, flags) in INSTANCES {
        let digests: Vec<_> = CHUNKS.iter().map(|&c| digest(model, flags, c)).collect();
        let invariant = digests.iter().all(|d| *d == digests[0]);
        if invariant == CHUNK_DEPENDENT.contains(&model) {
            wrong.push(format!("{model} {flags}: {digests:?} at -c {CHUNKS:?}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "chunk (in)variance not as listed:\n{}",
        wrong.join("\n")
    );
}
