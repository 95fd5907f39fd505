//! Golden stream digests: every model the CLI exposes, at seed 7 and 8
//! chunks, folds each PE's `stream_pe_batched` output through
//! [`ChecksumSink`] and compares `(count, checksum)` against literal
//! constants. Byte identity of a delivery path is pinned here directly,
//! so it needs no second path to compare against. R-MAT levels are
//! pinned, never auto-detected, so the constants hold on any host.
//!
//! A second table pins the materialized form the same way: per PE,
//! `generate_pe(pe)`'s edge list in order, its vertex range and its
//! coordinates. For every row but `rdg2d`, `rdg3d` and `srhg` — whose
//! `generate_pe` returns the sorted list while the stream runs in sweep
//! order — the edge digest equals the stream digest, and the test checks
//! that by comparing the two tables.
//!
//! A third table folds the RHG family (`rhg`, `srhg`, `soft_rhg`) at the
//! corners the one `(SEED, CHUNKS)` row misses — one PE, more PEs than
//! the inner annuli have cells, γ = 2.2, a PE of the benchmark's
//! `rhg_stream` instance — into one line per row, stream and materialized
//! form both. It was recorded on the tree that still had two RHG engines,
//! so the one engine is judged by constants, not against itself. Beside
//! it, a size table pins `rhg` at n = 100 000 (d̄ = 8) and at the
//! `rhg_stream` instance, and `soft_rhg` at d̄ = 8, over every PE at 1, 7
//! and 64 chunks — recorded on the tree whose queries tested every point
//! of every cell a vertex's window overlapped.
//!
//! A fourth table does the same for RDG at the corners that decide how
//! its boxes and halos are cut — one chunk, one level of chunks, 64
//! chunks; ≈ 3 and ≈ 10 points per cell; instances so small that the
//! halo wraps the torus more than once. It was recorded on the tree
//! whose stream triangulated one cell at a time and whose `generate_pe`
//! was a second, chunk-at-a-time engine.
//!
//! A fifth table pins BA beyond the one `d = 4` row: `d` 1, 3, 5 and 8
//! at 1, 7 and 64 chunks, recorded on the tree that resolved one slot's
//! hash chain at a time.
//!
//! The last table pins the Erdős–Rényi family (both G(n,m), G(n,p) and
//! its Algorithm-D baseline, SBM) at 1, 7 and 64 chunks and at the corners
//! that reach every arm of a leaf — Method A, m = universe, p = 1, most
//! leaves empty, fewer vertices than chunks — recorded on the tree whose
//! ER sites each drew and decoded their own leaves.
//!
//! Beside the RGG corner table, a kernel table pins RGG where its pair
//! loop is cut differently — r equal to the cell side, r well below it,
//! the `rgg3d` probe's instance — recorded on the tree whose pair loop
//! tested every candidate of the 3^d neighbourhood.
//!
//! On a mismatch the failure message prints every differing row in
//! source form.

use kagen_repro::baselines::{GnpAlgoD, Graph500Rmat};
use kagen_repro::core::prelude::*;
use kagen_repro::pipeline::{ChecksumSink, EdgeSink};

const SEED: u64 = 7;
const CHUNKS: usize = 8;

/// One PE's stream: `(edge count, order-dependent checksum)`.
fn pe_digest(gen: &dyn Generator, pe: usize, buf: &mut Vec<(u64, u64)>) -> (u64, u64) {
    let mut sink = ChecksumSink::new();
    gen.stream_pe_batched(pe, buf, &mut |edges| sink.push_batch(edges));
    (sink.count(), sink.checksum())
}

/// Per-PE stream digests; generators that round the requested chunk
/// count have more or fewer than 8 entries.
fn digest(gen: &dyn Generator) -> Vec<(u64, u64)> {
    let mut buf = Vec::new();
    (0..gen.num_chunks())
        .map(|pe| pe_digest(gen, pe, &mut buf))
        .collect()
}

/// One PE's materialized form: `(edges.len(), checksum of the edges in
/// order, vertex_begin, vertex_end, coords2.len() + coords3.len(),
/// checksum of the (id, coordinate bits) pairs in order)`.
type PeDigest = (u64, u64, u64, u64, u64, u64);

fn pe_materialized(gen: &dyn Generator, pe: usize) -> PeDigest {
    let part = gen.generate_pe(pe);
    assert_eq!(part.pe, pe);
    let mut edges = ChecksumSink::new();
    edges.push_batch(&part.edges);
    let mut coords = ChecksumSink::new();
    for (id, c) in &part.coords2 {
        coords.push_batch(&c.map(|x| (*id, x.to_bits())));
    }
    for (id, c) in &part.coords3 {
        coords.push_batch(&c.map(|x| (*id, x.to_bits())));
    }
    (
        edges.count(),
        edges.checksum(),
        part.vertex_begin,
        part.vertex_end,
        (part.coords2.len() + part.coords3.len()) as u64,
        coords.checksum(),
    )
}

fn materialized_digest(gen: &dyn Generator) -> Vec<PeDigest> {
    (0..gen.num_chunks())
        .map(|pe| pe_materialized(gen, pe))
        .collect()
}

fn rmat(scale: u32, kernel: RmatKernel) -> Box<dyn Generator> {
    Box::new(
        Rmat::new(scale, 40_000)
            .with_seed(SEED)
            .with_chunks(CHUNKS)
            .with_kernel(kernel),
    )
}

/// The model matrix of `tests/observability.rs` (CLI defaults spelled
/// out), G(n,p)'s Algorithm-D baseline (`kagen_baselines::GnpAlgoD`, the
/// rows `gnp_*_algo_d`, recorded while it was the product's
/// `--gnp-leaves algo-d`) in both orientations, and the R-MAT
/// cells: 8 levels, a `levels ∤ scale` remainder cell, and a scale above
/// 32.
fn models() -> Vec<(&'static str, Box<dyn Generator>)> {
    macro_rules! gen {
        ($e:expr) => {
            Box::new($e.with_seed(SEED).with_chunks(CHUNKS)) as Box<dyn Generator>
        };
    }
    macro_rules! algo_d {
        ($e:expr) => {
            Box::new(GnpAlgoD::new($e.with_seed(SEED).with_chunks(CHUNKS))) as Box<dyn Generator>
        };
    }
    vec![
        ("gnm_directed", gen!(GnmDirected::new(2000, 8000))),
        ("gnm_undirected", gen!(GnmUndirected::new(2000, 8000))),
        ("gnp_directed", gen!(GnpDirected::new(2000, 0.002))),
        (
            "gnp_directed_algo_d",
            algo_d!(GnpDirected::new(2000, 0.002)),
        ),
        ("gnp_undirected", gen!(GnpUndirected::new(2000, 0.004))),
        (
            "gnp_undirected_algo_d",
            algo_d!(GnpUndirected::new(2000, 0.004)),
        ),
        (
            "rgg2d",
            gen!(Rgg2d::new(2000, Rgg2d::threshold_radius(2000, 1))),
        ),
        (
            "rgg3d",
            gen!(Rgg3d::new(1000, Rgg3d::threshold_radius(1000, 1))),
        ),
        ("rdg2d", gen!(Rdg2d::new(600))),
        ("rdg3d", gen!(Rdg3d::new(300))),
        ("rhg", gen!(Rhg::new(2000, 8.0, 2.8))),
        ("srhg", gen!(Srhg::new(2000, 8.0, 2.8))),
        ("soft_rhg", gen!(SoftRhg::new(600, 8.0, 2.8, 0.5))),
        ("ba", gen!(BarabasiAlbert::new(2000, 4))),
        (
            "sbm",
            gen!(StochasticBlockModel::planted(2000, 4, 0.01, 0.001)),
        ),
        (
            "rmat_linear8_s20",
            rmat(20, RmatKernel::Linear { levels: 8 }),
        ),
        (
            "rmat_linear5_s11",
            rmat(11, RmatKernel::Linear { levels: 5 }),
        ),
        (
            "rmat_linear8_s33",
            rmat(33, RmatKernel::Linear { levels: 8 }),
        ),
    ]
}

#[rustfmt::skip]
const GOLDEN: &[(&str, &[(u64, u64)])] = &[
    ("gnm_directed", &[
        (1022, 8793928183537707055), (1017, 1861665266418812531),
        (970, 16006925765675100027), (992, 7487608725567751324),
        (995, 58199562889486154), (1024, 3758784895177100180),
        (950, 13679540236050404873), (1030, 12429915906004230778),
    ]),
    ("gnm_undirected", &[
        (1891, 8999880021715111635), (1938, 9782503274637303726),
        (1824, 8887109807998040712), (1932, 2007140607137113632),
        (1852, 1638950518171708792), (1873, 14214309806242611991),
        (1866, 7281339467231879943), (1849, 17355624445224099787),
    ]),
    ("gnp_directed", &[
        (1020, 4767613205541514581), (1029, 4026214676506471560),
        (995, 2349350199297146263), (973, 1268177141083065379),
        (1001, 1774645736623067325), (1017, 4303922995747461164),
        (998, 13463220070841610836), (1053, 9544122964793858544),
    ]),
    ("gnp_directed_algo_d", &[
        (1021, 9840947658016576433), (999, 7912215388326011907),
        (947, 13033697281385329990), (1069, 10933780683173163992),
        (1006, 16084416241036633371), (1002, 4925131906271303694),
        (972, 14739826174106166586), (1053, 3877244786133555459),
    ]),
    ("gnp_undirected", &[
        (1874, 12203785929467261359), (1875, 7368177390646447075),
        (1934, 12897227942119646586), (1894, 16965834520698136853),
        (1879, 15036675888454391159), (1930, 7417751716597304576),
        (1892, 1339762815648171100), (1868, 9594577892014462403),
    ]),
    ("gnp_undirected_algo_d", &[
        (1841, 10881190104006663009), (1797, 8913349681449512780),
        (1846, 9179506649980390832), (1869, 1622165758966945789),
        (1914, 9886016519295994759), (1848, 17121864706331582166),
        (1856, 15709639340418044816), (1844, 15952014524351820020),
    ]),
    ("rgg2d", &[
        (1684, 9360017319223556840), (1779, 114099990168709598),
        (1762, 9873314708069967441), (2050, 12639411512348416606),
    ]),
    ("rgg3d", &[
        (254, 8022679775804245637), (312, 9872604141475239573),
        (217, 15313353224522338400), (394, 4489388322678568921),
        (281, 17409890776269781825), (275, 252398049853399258),
        (292, 2859622098846550421), (380, 8922549264616673496),
    ]),
    ("rdg2d", &[
        (462, 7492746171060997998), (496, 11587990011482815139),
        (472, 13238087392247020279), (570, 9985483366496405816),
    ]),
    ("rdg3d", &[
        (363, 16180488394736107170), (422, 13540396015091181932),
        (360, 10110287622781936952), (489, 4918425782210310869),
        (384, 2833562980293792977), (431, 10040025082730504520),
        (454, 4064289680814607347), (534, 11040214437660038349),
    ]),
    ("rhg", &[
        (830, 8344762790621867591), (1068, 6450752986027978086),
        (728, 4462387202358461533), (859, 3689517942757301648),
        (686, 15736751556257209648), (828, 13909243878435049255),
        (1032, 17808014403844867902), (817, 9666563304133121966),
    ]),
    ("srhg", &[
        (809, 6408527996600700483), (1013, 14874815464022498493),
        (720, 6700376414444163460), (833, 7949182249148463170),
        (649, 6679474260307316908), (785, 12588344277693122112),
        (1002, 7504873522011785981), (792, 3125348785947789296),
    ]),
    ("soft_rhg", &[
        (359, 14670443676161730823), (411, 6099211529472197775),
        (361, 11997980764254583847), (215, 5442794260619590612),
        (254, 7334402556552727573), (440, 13990374533969729162),
        (654, 5126631503886551139), (565, 828321176918101408),
    ]),
    ("ba", &[
        (1000, 869376641595689978), (1000, 15580370485304720439),
        (1000, 9692375925725634217), (1000, 6111372679436221235),
        (1000, 10209626061902663448), (1000, 1684396771891963569),
        (1000, 2586863664177658566), (1000, 3410782061805403169),
    ]),
    ("sbm", &[
        (1494, 5677518230857404442), (1549, 14221762101270284459),
        (219, 2575462331798151773), (220, 6140333698520117972),
        (1277, 5466953423841253765), (257, 12250639851388639626),
        (239, 9608242276149526939), (1261, 4005869351702360362),
    ]),
    ("rmat_linear8_s20", &[
        (5000, 12306811426461017415), (5000, 16981821451172183382),
        (5000, 783032356070175655), (5000, 15843848118284460380),
        (5000, 7096162608707417048), (5000, 11613247162031253548),
        (5000, 8778418411590191547), (5000, 9601940676202241915),
    ]),
    ("rmat_linear5_s11", &[
        (5000, 4943880883802948242), (5000, 4513373012512723472),
        (5000, 12483834158245615690), (5000, 2184475758562503996),
        (5000, 2882441671884678467), (5000, 1311982995437029008),
        (5000, 1991473420992429646), (5000, 1384945600431874632),
    ]),
    ("rmat_linear8_s33", &[
        (5000, 6754170917301875778), (5000, 6241522276011148627),
        (5000, 11232169400388437498), (5000, 9421359049118071966),
        (5000, 767760311289608481), (5000, 11684198144333122089),
        (5000, 11704926021020974075), (5000, 12207676632255341300),
    ]),
];

#[test]
fn every_model_streams_its_golden_digest() {
    let models = models();
    let mut moved = String::new();
    for (name, gen) in &models {
        let got = digest(gen.as_ref());
        let want = GOLDEN.iter().find(|(n, _)| n == name).map(|(_, d)| *d);
        if want != Some(&got[..]) {
            moved.push_str(&format!("    ({name:?}, &{got:?}),\n"));
        }
    }
    assert!(moved.is_empty(), "stream digests moved:\n{moved}");
    assert_eq!(models.len(), GOLDEN.len(), "stale golden rows");
}

/// `kagen_baselines::Graph500Rmat` at the instance of the R-MAT rows of
/// [`GOLDEN`] (scale 20). The constant is the row `rmat_plain_s20`
/// recorded while the per-level descent was the product's `--rmat-kernel
/// plain`, so passing it shows the baseline draws the words the product
/// did.
#[rustfmt::skip]
const GOLDEN_GRAPH500_RMAT_S20: &[(u64, u64)] = &[
    (5000, 10021836682956403771), (5000, 166019729117463830),
    (5000, 4248173829368932737), (5000, 5093407686381096473),
    (5000, 1760140460477099012), (5000, 1011883553664268333),
    (5000, 8161730365667686083), (5000, 818359786552385525),
];

#[test]
fn graph500_rmat_streams_the_plain_kernels_golden_digest() {
    let gen = Graph500Rmat::new(20, 40_000)
        .with_seed(SEED)
        .with_chunks(CHUNKS);
    assert_eq!(digest(&gen), GOLDEN_GRAPH500_RMAT_S20);
}

/// Rows whose `generate_pe` is not the stream collected in order.
const SORTED_MATERIALIZED: &[&str] = &["rdg2d", "rdg3d", "srhg"];

#[rustfmt::skip]
const GOLDEN_MATERIALIZED: &[(&str, &[PeDigest])] = &[
    ("gnm_directed", &[
        (1022, 8793928183537707055, 0, 250, 0, 0),
        (1017, 1861665266418812531, 250, 500, 0, 0),
        (970, 16006925765675100027, 500, 750, 0, 0),
        (992, 7487608725567751324, 750, 1000, 0, 0),
        (995, 58199562889486154, 1000, 1250, 0, 0),
        (1024, 3758784895177100180, 1250, 1500, 0, 0),
        (950, 13679540236050404873, 1500, 1750, 0, 0),
        (1030, 12429915906004230778, 1750, 2000, 0, 0),
    ]),
    ("gnm_undirected", &[
        (1891, 8999880021715111635, 0, 250, 0, 0),
        (1938, 9782503274637303726, 250, 500, 0, 0),
        (1824, 8887109807998040712, 500, 750, 0, 0),
        (1932, 2007140607137113632, 750, 1000, 0, 0),
        (1852, 1638950518171708792, 1000, 1250, 0, 0),
        (1873, 14214309806242611991, 1250, 1500, 0, 0),
        (1866, 7281339467231879943, 1500, 1750, 0, 0),
        (1849, 17355624445224099787, 1750, 2000, 0, 0),
    ]),
    ("gnp_directed", &[
        (1020, 4767613205541514581, 0, 0, 0, 0),
        (1029, 4026214676506471560, 0, 0, 0, 0),
        (995, 2349350199297146263, 0, 0, 0, 0),
        (973, 1268177141083065379, 0, 0, 0, 0),
        (1001, 1774645736623067325, 0, 0, 0, 0),
        (1017, 4303922995747461164, 0, 0, 0, 0),
        (998, 13463220070841610836, 0, 0, 0, 0),
        (1053, 9544122964793858544, 0, 0, 0, 0),
    ]),
    ("gnp_directed_algo_d", &[
        (1021, 9840947658016576433, 0, 0, 0, 0),
        (999, 7912215388326011907, 0, 0, 0, 0),
        (947, 13033697281385329990, 0, 0, 0, 0),
        (1069, 10933780683173163992, 0, 0, 0, 0),
        (1006, 16084416241036633371, 0, 0, 0, 0),
        (1002, 4925131906271303694, 0, 0, 0, 0),
        (972, 14739826174106166586, 0, 0, 0, 0),
        (1053, 3877244786133555459, 0, 0, 0, 0),
    ]),
    ("gnp_undirected", &[
        (1874, 12203785929467261359, 0, 250, 0, 0),
        (1875, 7368177390646447075, 250, 500, 0, 0),
        (1934, 12897227942119646586, 500, 750, 0, 0),
        (1894, 16965834520698136853, 750, 1000, 0, 0),
        (1879, 15036675888454391159, 1000, 1250, 0, 0),
        (1930, 7417751716597304576, 1250, 1500, 0, 0),
        (1892, 1339762815648171100, 1500, 1750, 0, 0),
        (1868, 9594577892014462403, 1750, 2000, 0, 0),
    ]),
    ("gnp_undirected_algo_d", &[
        (1841, 10881190104006663009, 0, 250, 0, 0),
        (1797, 8913349681449512780, 250, 500, 0, 0),
        (1846, 9179506649980390832, 500, 750, 0, 0),
        (1869, 1622165758966945789, 750, 1000, 0, 0),
        (1914, 9886016519295994759, 1000, 1250, 0, 0),
        (1848, 17121864706331582166, 1250, 1500, 0, 0),
        (1856, 15709639340418044816, 1500, 1750, 0, 0),
        (1844, 15952014524351820020, 1750, 2000, 0, 0),
    ]),
    ("rgg2d", &[
        (1684, 9360017319223556840, 0, 479, 479, 1379375867147326523),
        (1779, 114099990168709598, 479, 982, 503, 7309174436862891348),
        (1762, 9873314708069967441, 982, 1462, 480, 5520924246375092027),
        (2050, 12639411512348416606, 1462, 2000, 538, 2993637147761010869),
    ]),
    ("rgg3d", &[
        (254, 8022679775804245637, 0, 114, 114, 16213980335770497081),
        (312, 9872604141475239573, 114, 238, 124, 11173262986662765203),
        (217, 15313353224522338400, 238, 346, 108, 522988525683637021),
        (394, 4489388322678568921, 346, 484, 138, 16190956628084240517),
        (281, 17409890776269781825, 484, 606, 122, 10206385047945015161),
        (275, 252398049853399258, 606, 728, 122, 7327085233206238871),
        (292, 2859622098846550421, 728, 855, 127, 15912810264203682271),
        (380, 8922549264616673496, 855, 1000, 145, 291665165881838808),
    ]),
    ("rdg2d", &[
        (462, 7492746171060997998, 0, 139, 139, 10147640392865363436),
        (496, 6276973555660189921, 139, 290, 151, 14581012603166655055),
        (472, 4839533954954100838, 290, 429, 139, 11887232507200423424),
        (570, 17469164675620616926, 429, 600, 171, 15346653061293755676),
    ]),
    ("rdg3d", &[
        (363, 16180488394736107170, 0, 31, 31, 16261489776637773937),
        (422, 4369788250665530322, 31, 68, 37, 7414505061064805663),
        (360, 10651183616729781362, 68, 96, 28, 7357942759402293212),
        (489, 14554752114454130459, 96, 141, 45, 17324148462001480079),
        (384, 13516001689045062551, 141, 177, 36, 7636854290281760889),
        (431, 13493602397343592985, 177, 213, 36, 3750283720556357887),
        (454, 1578530358095194670, 213, 252, 39, 11130503807434191894),
        (534, 1528694794246978314, 252, 300, 48, 9015988849772208005),
    ]),
    ("rhg", &[
        (830, 8344762790621867591, 7, 1102, 273, 1655038660769624853),
        (1068, 6450752986027978086, 2, 1234, 265, 12708399403764897901),
        (728, 4462387202358461533, 6, 1362, 237, 3168593748979963379),
        (859, 3689517942757301648, 27, 1508, 278, 15871052944059207330),
        (686, 15736751556257209648, 1, 1631, 218, 12938017587347129084),
        (828, 13909243878435049255, 0, 1738, 223, 9859147542243236112),
        (1032, 17808014403844867902, 5, 1866, 248, 14978339847097292603),
        (817, 9666563304133121966, 4, 2000, 258, 2357261481783350160),
    ]),
    ("srhg", &[
        (809, 2649958764423560083, 7, 1102, 273, 1655038660769624853),
        (1013, 8118572486346600104, 2, 1234, 265, 12708399403764897901),
        (720, 16279917811577157119, 6, 1362, 237, 3168593748979963379),
        (833, 7381807295005647690, 27, 1508, 278, 15871052944059207330),
        (649, 14879923247389013184, 1, 1631, 218, 12938017587347129084),
        (785, 2956169221914953546, 0, 1738, 223, 9859147542243236112),
        (1002, 11001380741658673571, 5, 1866, 248, 14978339847097292603),
        (792, 818095989500610463, 4, 2000, 258, 2357261481783350160),
    ]),
    ("soft_rhg", &[
        (359, 14670443676161730823, 2, 306, 62, 152340272555618427),
        (411, 6099211529472197775, 5, 354, 84, 8816141018066456462),
        (361, 11997980764254583847, 13, 396, 75, 13260700984102647277),
        (215, 5442794260619590612, 32, 434, 64, 5178174413139991594),
        (254, 7334402556552727573, 4, 465, 60, 11494757834951190464),
        (440, 13990374533969729162, 1, 503, 75, 3347797277429163654),
        (654, 5126631503886551139, 6, 554, 97, 7431122913554325299),
        (565, 828321176918101408, 0, 600, 83, 16844376173270729658),
    ]),
    ("ba", &[
        (1000, 869376641595689978, 0, 250, 0, 0),
        (1000, 15580370485304720439, 250, 500, 0, 0),
        (1000, 9692375925725634217, 500, 750, 0, 0),
        (1000, 6111372679436221235, 750, 1000, 0, 0),
        (1000, 10209626061902663448, 1000, 1250, 0, 0),
        (1000, 1684396771891963569, 1250, 1500, 0, 0),
        (1000, 2586863664177658566, 1500, 1750, 0, 0),
        (1000, 3410782061805403169, 1750, 2000, 0, 0),
    ]),
    ("sbm", &[
        (1494, 5677518230857404442, 0, 2000, 0, 0),
        (1549, 14221762101270284459, 0, 2000, 0, 0),
        (219, 2575462331798151773, 0, 2000, 0, 0),
        (220, 6140333698520117972, 0, 2000, 0, 0),
        (1277, 5466953423841253765, 0, 2000, 0, 0),
        (257, 12250639851388639626, 0, 2000, 0, 0),
        (239, 9608242276149526939, 0, 2000, 0, 0),
        (1261, 4005869351702360362, 0, 2000, 0, 0),
    ]),
    ("rmat_linear8_s20", &[
        (5000, 12306811426461017415, 0, 1048576, 0, 0),
        (5000, 16981821451172183382, 0, 1048576, 0, 0),
        (5000, 783032356070175655, 0, 1048576, 0, 0),
        (5000, 15843848118284460380, 0, 1048576, 0, 0),
        (5000, 7096162608707417048, 0, 1048576, 0, 0),
        (5000, 11613247162031253548, 0, 1048576, 0, 0),
        (5000, 8778418411590191547, 0, 1048576, 0, 0),
        (5000, 9601940676202241915, 0, 1048576, 0, 0),
    ]),
    ("rmat_linear5_s11", &[
        (5000, 4943880883802948242, 0, 2048, 0, 0),
        (5000, 4513373012512723472, 0, 2048, 0, 0),
        (5000, 12483834158245615690, 0, 2048, 0, 0),
        (5000, 2184475758562503996, 0, 2048, 0, 0),
        (5000, 2882441671884678467, 0, 2048, 0, 0),
        (5000, 1311982995437029008, 0, 2048, 0, 0),
        (5000, 1991473420992429646, 0, 2048, 0, 0),
        (5000, 1384945600431874632, 0, 2048, 0, 0),
    ]),
    ("rmat_linear8_s33", &[
        (5000, 6754170917301875778, 0, 8589934592, 0, 0),
        (5000, 6241522276011148627, 0, 8589934592, 0, 0),
        (5000, 11232169400388437498, 0, 8589934592, 0, 0),
        (5000, 9421359049118071966, 0, 8589934592, 0, 0),
        (5000, 767760311289608481, 0, 8589934592, 0, 0),
        (5000, 11684198144333122089, 0, 8589934592, 0, 0),
        (5000, 11704926021020974075, 0, 8589934592, 0, 0),
        (5000, 12207676632255341300, 0, 8589934592, 0, 0),
    ]),
];

#[test]
fn every_model_materializes_its_golden_digest() {
    let models = models();
    let mut moved = String::new();
    for (name, gen) in &models {
        let got = materialized_digest(gen.as_ref());
        let want = GOLDEN_MATERIALIZED
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| *d);
        if want != Some(&got[..]) {
            moved.push_str(&format!("    ({name:?}, &{got:?}),\n"));
        }
    }
    assert!(moved.is_empty(), "materialized digests moved:\n{moved}");
    assert_eq!(models.len(), GOLDEN_MATERIALIZED.len(), "stale golden rows");
}

#[test]
fn materialized_edges_are_the_stream_except_where_sorted() {
    for ((name, stream), (m_name, materialized)) in GOLDEN.iter().zip(GOLDEN_MATERIALIZED) {
        assert_eq!(name, m_name, "tables list the models in one order");
        let edges: Vec<(u64, u64)> = materialized.iter().map(|d| (d.0, d.1)).collect();
        if SORTED_MATERIALIZED.contains(name) {
            assert_ne!(&edges[..], *stream, "{name}: generate_pe is the stream");
        } else {
            assert_eq!(&edges[..], *stream, "{name}: generate_pe is not the stream");
        }
    }
    assert_eq!(GOLDEN.len(), GOLDEN_MATERIALIZED.len());
}

/// One corner row folded over its PEs: `(edges streamed, fold of the
/// per-PE stream digests, fold of the per-PE materialized digests)`.
type CornerDigest = (u64, u64, u64);

fn corner_digest(gen: &dyn Generator, pes: std::ops::Range<usize>) -> CornerDigest {
    let mut buf = Vec::new();
    let (mut stream, mut materialized) = (ChecksumSink::new(), ChecksumSink::new());
    let mut edges = 0;
    for pe in pes {
        let (count, checksum) = pe_digest(gen, pe, &mut buf);
        edges += count;
        stream.push_batch(&[(count, checksum)]);
        let d = pe_materialized(gen, pe);
        materialized.push_batch(&[(d.0, d.1), (d.2, d.3), (d.4, d.5)]);
    }
    (edges, stream.checksum(), materialized.checksum())
}

/// Every row of a corner table, digested over all of its PEs, against
/// its golden constant; the failure message prints the differing rows in
/// source form.
fn assert_corners(
    what: &str,
    rows: &[(String, Box<dyn Generator>)],
    golden: &[(&str, CornerDigest)],
) {
    let mut moved = String::new();
    for (name, gen) in rows {
        let got = corner_digest(gen.as_ref(), 0..gen.num_chunks());
        let want = golden.iter().find(|(n, _)| n == name);
        if want.map(|(_, d)| *d) != Some(got) {
            moved.push_str(&format!("    ({name:?}, {got:?}),\n"));
        }
    }
    assert!(moved.is_empty(), "{what} corner digests moved:\n{moved}");
    assert_eq!(rows.len(), golden.len(), "stale golden rows");
}

/// The RHG family at the corners the `(SEED, CHUNKS)` rows miss: a
/// single PE (every query wraps the whole circle), more PEs than the
/// inner annuli have cells (`chunks = 300`), γ = 2.2 (Δθ = π windows
/// through most annuli) and one PE of the benchmark's `rhg_stream`
/// instance. Each row names the PEs it digests.
fn rhg_corners() -> Vec<(&'static str, Box<dyn Generator>, std::ops::Range<usize>)> {
    macro_rules! row {
        ($name:expr, $e:expr, $chunks:expr, $pes:expr) => {
            (
                $name,
                Box::new($e.with_seed(SEED).with_chunks($chunks)) as Box<dyn Generator>,
                $pes,
            )
        };
    }
    vec![
        row!("rhg_c1", Rhg::new(2000, 8.0, 2.8), 1, 0..1),
        row!("srhg_c1", Srhg::new(2000, 8.0, 2.8), 1, 0..1),
        row!("soft_rhg_c1", SoftRhg::new(600, 8.0, 2.8, 0.5), 1, 0..1),
        row!("rhg_c300", Rhg::new(2000, 8.0, 2.8), 300, 0..300),
        row!("srhg_c300", Srhg::new(2000, 8.0, 2.8), 300, 0..300),
        row!(
            "soft_rhg_c300",
            SoftRhg::new(600, 8.0, 2.8, 0.5),
            300,
            0..300
        ),
        row!("rhg_g22", Rhg::new(20_000, 8.0, 2.2), 8, 0..8),
        row!("srhg_g22", Srhg::new(20_000, 8.0, 2.2), 8, 0..8),
        row!("soft_rhg_g22", SoftRhg::new(2000, 8.0, 2.2, 0.5), 8, 0..8),
        row!("rhg_bench_pe", Rhg::new(81_920, 16.0, 2.8), 64, 37..38),
        row!("srhg_bench_pe", Srhg::new(81_920, 16.0, 2.8), 64, 37..38),
        row!(
            "soft_rhg_bench_pe",
            SoftRhg::new(8192, 16.0, 2.8, 0.5),
            64,
            37..38
        ),
    ]
}

#[rustfmt::skip]
const GOLDEN_RHG_CORNERS: &[(&str, CornerDigest)] = &[
    ("rhg_c1", (6603, 6831910648966645979, 10583478674680430363)),
    ("srhg_c1", (6603, 403550445169611116, 10583478674680430363)),
    ("soft_rhg_c1", (2769, 8050584085779275417, 1324398078184991784)),
    ("rhg_c300", (9424, 7868991984126013914, 3841476101310932908)),
    ("srhg_c300", (6603, 18201894897706687952, 8173146684873080046)),
    ("soft_rhg_c300", (5012, 379865198253634170, 973395563121436207)),
    ("rhg_g22", (43195, 273793910089033816, 14520909610366063784)),
    ("srhg_g22", (40306, 4338053816872157389, 7023174433008815)),
    ("soft_rhg_g22", (5016, 3124622861444600932, 5986225423409110156)),
    ("rhg_bench_pe", (9416, 15765292787815167714, 6162897290765324766)),
    ("srhg_bench_pe", (9252, 15798315605666507133, 9803204855279966028)),
    ("soft_rhg_bench_pe", (1314, 14336535403352352786, 1146374326570451971)),
];

#[test]
fn rhg_family_corners_keep_their_golden_digests() {
    let rows = rhg_corners();
    let mut moved = String::new();
    for (name, gen, pes) in rows.iter() {
        let got = corner_digest(gen.as_ref(), pes.clone());
        let want = GOLDEN_RHG_CORNERS.iter().find(|(n, _)| n == name);
        if want.map(|(_, d)| *d) != Some(got) {
            moved.push_str(&format!("    ({name:?}, {got:?}),\n"));
        }
    }
    assert!(moved.is_empty(), "RHG corner digests moved:\n{moved}");
    assert_eq!(rows.len(), GOLDEN_RHG_CORNERS.len(), "stale golden rows");
}

/// The RHG family at the sizes where its query windows decide the cost:
/// `rhg` at n = 100 000 and d̄ = 8 (sparse: most candidates of a window
/// are rejected), the benchmark's `rhg_stream` instance (n = 81 920,
/// d̄ = 16) and `soft_rhg` at d̄ = 8, each at 1, 7 and 64 chunks. Every
/// row digests all of its PEs. Recorded on the tree whose queries tested
/// every point of every cell a vertex's window overlapped.
fn rhg_sizes() -> Vec<(String, Box<dyn Generator>)> {
    let mut rows: Vec<(String, Box<dyn Generator>)> = Vec::new();
    for chunks in [1, 7, 64] {
        let gen = Rhg::new(100_000, 8.0, 2.8)
            .with_seed(SEED)
            .with_chunks(chunks);
        rows.push((format!("rhg_n100000_d8_c{chunks}"), Box::new(gen)));
        let gen = Rhg::new(81_920, 16.0, 2.8)
            .with_seed(SEED)
            .with_chunks(chunks);
        rows.push((format!("rhg_n81920_d16_c{chunks}"), Box::new(gen)));
        let gen = SoftRhg::new(5_000, 8.0, 2.8, 0.5)
            .with_seed(SEED)
            .with_chunks(chunks);
        rows.push((format!("soft_rhg_n5000_d8_c{chunks}"), Box::new(gen)));
    }
    rows
}

#[rustfmt::skip]
const GOLDEN_RHG_SIZES: &[(&str, CornerDigest)] = &[
    ("rhg_n100000_d8_c1", (389060, 12527106977908963498, 7519518855399849632)),
    ("rhg_n81920_d16_c1", (622391, 14328144257520289981, 5062365407136859893)),
    ("soft_rhg_n5000_d8_c1", (26900, 1436114069130552439, 2922209181928890997)),
    ("rhg_n100000_d8_c7", (390119, 17146898140041579741, 14530844631433253737)),
    ("rhg_n81920_d16_c7", (623802, 3329508149364525973, 4966173702597185010)),
    ("soft_rhg_n5000_d8_c7", (28472, 17545765889064449957, 1582673254187708787)),
    ("rhg_n100000_d8_c64", (395179, 5978979171997842776, 16286657358035285143)),
    ("rhg_n81920_d16_c64", (638558, 995183671722508611, 188486258673127435)),
    ("soft_rhg_n5000_d8_c64", (33028, 1587901081668836756, 3157021783065318683)),
];

#[test]
fn rhg_family_sizes_keep_their_golden_digests() {
    assert_corners("RHG size", &rhg_sizes(), GOLDEN_RHG_SIZES);
}

/// RDG where its boxes and halos are cut differently: `chunks` 1, one
/// level of chunks (4 in 2-D, 8 in 3-D) and 64; n = 12 500 (≈ 3 points
/// per cell in 2-D) and 2 500 (≈ 10); and n = 5, 24 / 32, where the
/// grid is one or a few cells and the halo wraps the torus more than
/// once. Every row digests all of its PEs.
fn rdg_corners() -> Vec<(String, Box<dyn Generator>)> {
    let mut rows: Vec<(String, Box<dyn Generator>)> = Vec::new();
    for chunks in [1, 4, 64] {
        for n in [12_500, 2_500, 5, 24] {
            let gen = Rdg2d::new(n).with_seed(SEED).with_chunks(chunks);
            rows.push((format!("rdg2d_n{n}_c{chunks}"), Box::new(gen)));
        }
    }
    for chunks in [1, 8, 64] {
        for n in [12_500, 2_500, 5, 32] {
            let gen = Rdg3d::new(n).with_seed(SEED).with_chunks(chunks);
            rows.push((format!("rdg3d_n{n}_c{chunks}"), Box::new(gen)));
        }
    }
    rows
}

#[rustfmt::skip]
const GOLDEN_RDG_CORNERS: &[(&str, CornerDigest)] = &[
    ("rdg2d_n12500_c1", (37500, 7546443810070745154, 15780985138323320279)),
    ("rdg2d_n2500_c1", (7500, 4593980620498762974, 4567809524384448220)),
    ("rdg2d_n5_c1", (10, 4485622016613787056, 15496409910418171695)),
    ("rdg2d_n24_c1", (72, 3969892474439669626, 10546853427512075348)),
    ("rdg2d_n12500_c4", (38470, 12436268884198547558, 5279558055248410880)),
    ("rdg2d_n2500_c4", (7914, 17305671036138491471, 17050275527498918069)),
    ("rdg2d_n5_c4", (10, 4485622016613787056, 15496409910418171695)),
    ("rdg2d_n24_c4", (106, 9743923422892419122, 8621847181353719487)),
    ("rdg2d_n12500_c64", (41307, 15832893766123092613, 14182269052557600841)),
    ("rdg2d_n2500_c64", (9134, 7278463927447465539, 15980056996905383147)),
    ("rdg2d_n5_c64", (10, 4485622016613787056, 15496409910418171695)),
    ("rdg2d_n24_c64", (106, 9743923422892419122, 8621847181353719487)),
    ("rdg3d_n12500_c1", (97134, 8105511068214300051, 17014793723287177674)),
    ("rdg3d_n2500_c1", (19493, 12299867745068225606, 2272648191676170920)),
    ("rdg3d_n5_c1", (10, 4485622016613787056, 7846029190057197079)),
    ("rdg3d_n32_c1", (243, 14403555620862977455, 9238537326781814054)),
    ("rdg3d_n12500_c8", (112528, 9715596740407357922, 11833820397719718017)),
    ("rdg3d_n2500_c8", (24555, 10029149192372276754, 9528734991205944060)),
    ("rdg3d_n5_c8", (10, 4485622016613787056, 7846029190057197079)),
    ("rdg3d_n32_c8", (437, 7194918884628352878, 10158481448533715308)),
    ("rdg3d_n12500_c64", (126379, 7999401187315269884, 11499130560497679150)),
    ("rdg3d_n2500_c64", (28698, 8231795130767960173, 16238701314298957118)),
    ("rdg3d_n5_c64", (10, 4485622016613787056, 7846029190057197079)),
    ("rdg3d_n32_c64", (437, 7194918884628352878, 10158481448533715308)),
];

#[test]
fn rdg_corners_keep_their_golden_digests() {
    assert_corners("RDG", &rdg_corners(), GOLDEN_RDG_CORNERS);
}

/// RGG where its grid and chunks are cut differently: `chunks` 1, one
/// level of chunks (4 in 2-D, 8 in 3-D) and 64; the threshold radius at
/// n = 12 500; r = 0.3 (two cells per side, so `effective_chunk_levels`
/// clamps 64 chunks to 4 / 8); r = 0.9 (one cell, one chunk); and n = 5
/// at r = 0.001 (a 2 × 2 grid in 2-D, one cell in 3-D: more chunks
/// asked for than cells, most cells empty). Every row digests all of its
/// PEs.
fn rgg_corners() -> Vec<(String, Box<dyn Generator>)> {
    fn rows<const D: usize>(level: usize, out: &mut Vec<(String, Box<dyn Generator>)>) {
        let threshold = kagen_repro::core::rgg::Rgg::<D>::threshold_radius(12_500, 1);
        for chunks in [1, level, 64] {
            for (tag, n, r) in [
                ("n12500_threshold", 12_500, threshold),
                ("n600_r0.3", 600, 0.3),
                ("n60_r0.9", 60, 0.9),
                ("n5_r0.001", 5, 0.001),
            ] {
                let gen = kagen_repro::core::rgg::Rgg::<D>::new(n, r)
                    .with_seed(SEED)
                    .with_chunks(chunks);
                out.push((format!("rgg{D}d_{tag}_c{chunks}"), Box::new(gen)));
            }
        }
    }
    let mut out = Vec::new();
    rows::<2>(4, &mut out);
    rows::<3>(8, &mut out);
    out
}

#[rustfmt::skip]
const GOLDEN_RGG_CORNERS: &[(&str, CornerDigest)] = &[
    ("rgg2d_n12500_threshold_c1", (55090, 4655064259975429788, 4947240375966901217)),
    ("rgg2d_n600_r0.3_c1", (39315, 12404758960596767904, 12308879559803714342)),
    ("rgg2d_n60_r0.9_c1", (1641, 11430492257015951085, 13416718075629390383)),
    ("rgg2d_n5_r0.001_c1", (0, 0, 10817577951084050940)),
    ("rgg2d_n12500_threshold_c4", (55808, 14337994752237881243, 3700603816220877606)),
    ("rgg2d_n600_r0.3_c4", (50610, 17316968988148744007, 8710989058022005905)),
    ("rgg2d_n60_r0.9_c4", (1641, 11430492257015951085, 13416718075629390383)),
    ("rgg2d_n5_r0.001_c4", (0, 0, 13119122538175607771)),
    ("rgg2d_n12500_threshold_c64", (60090, 8494629329963243978, 17366598344803054118)),
    ("rgg2d_n600_r0.3_c64", (50610, 17316968988148744007, 8710989058022005905)),
    ("rgg2d_n60_r0.9_c64", (1641, 11430492257015951085, 13416718075629390383)),
    ("rgg2d_n5_r0.001_c64", (0, 0, 13119122538175607771)),
    ("rgg3d_n12500_threshold_c1", (38899, 6793344521422275882, 18429550567571419581)),
    ("rgg3d_n600_r0.3_c1", (14171, 12341986439106526610, 9055096475838052490)),
    ("rgg3d_n60_r0.9_c1", (1447, 9583587373156452793, 4122503307831979083)),
    ("rgg3d_n5_r0.001_c1", (0, 0, 3956792100282784313)),
    ("rgg3d_n12500_threshold_c8", (41086, 13953269812430170166, 13242809722260299407)),
    ("rgg3d_n600_r0.3_c8", (18963, 15085410112174860740, 9356970367422381261)),
    ("rgg3d_n60_r0.9_c8", (1447, 9583587373156452793, 4122503307831979083)),
    ("rgg3d_n5_r0.001_c8", (0, 0, 3956792100282784313)),
    ("rgg3d_n12500_threshold_c64", (45122, 6659742394685683512, 7850217450270361572)),
    ("rgg3d_n600_r0.3_c64", (18963, 15085410112174860740, 9356970367422381261)),
    ("rgg3d_n60_r0.9_c64", (1447, 9583587373156452793, 4122503307831979083)),
    ("rgg3d_n5_r0.001_c64", (0, 0, 3956792100282784313)),
];

#[test]
fn rgg_corners_keep_their_golden_digests() {
    assert_corners("RGG", &rgg_corners(), GOLDEN_RGG_CORNERS);
}

/// RGG where its pair kernel is cut differently: r equal to the cell
/// side (2-D r = 0.125, 3-D r = 0.25 at n = 4096, ≈ 64 points per cell:
/// the box bound at its tightest, rows across a 64-candidate word); a
/// sparse r well below the side (n = 20 000, r = 0.01); and the `rgg3d`
/// kernel probe's instance (2^15 points at the threshold radius).
/// `chunks` 1, 16 in 2-D / 8 in 3-D, and 64. Every row digests all of
/// its PEs. Recorded on the tree whose pair loop tested every candidate.
fn rgg_kernel_rows() -> Vec<(String, Box<dyn Generator>)> {
    fn rows<const D: usize>(level: usize, side: f64, out: &mut Vec<(String, Box<dyn Generator>)>) {
        let threshold = kagen_repro::core::rgg::Rgg::<D>::threshold_radius(1 << 15, 1);
        for chunks in [1, level, 64] {
            for (tag, n, r) in [
                ("n4096_side", 4096, side),
                ("n20000_r0.01", 20_000, 0.01),
                ("n32768_threshold", 1 << 15, threshold),
            ] {
                let gen = kagen_repro::core::rgg::Rgg::<D>::new(n, r)
                    .with_seed(SEED)
                    .with_chunks(chunks);
                out.push((format!("rgg{D}d_{tag}_c{chunks}"), Box::new(gen)));
            }
        }
    }
    let mut out = Vec::new();
    rows::<2>(16, 0.125, &mut out);
    rows::<3>(8, 0.25, &mut out);
    out
}

#[rustfmt::skip]
const GOLDEN_RGG_KERNEL: &[(&str, CornerDigest)] = &[
    ("rgg2d_n4096_side_c1", (372857, 2605104185712758628, 2714128757796934348)),
    ("rgg2d_n20000_r0.01_c1", (62252, 6296365618756809987, 9907924277781518142)),
    ("rgg2d_n32768_threshold_c1", (160521, 3687535995003486535, 982626630643347252)),
    ("rgg2d_n4096_side_c16", (490134, 4453624155954058238, 6806651539043795790)),
    ("rgg2d_n20000_r0.01_c16", (63953, 6604925786880220973, 18413567999094707753)),
    ("rgg2d_n32768_threshold_c16", (164605, 15185384312843879646, 349669806608067316)),
    ("rgg2d_n4096_side_c64", (617600, 14132398884808685344, 11566053097946387750)),
    ("rgg2d_n20000_r0.01_c64", (66155, 2762678673795605439, 4583653940740584585)),
    ("rgg2d_n32768_threshold_c64", (169833, 4939053672439618034, 8462203690116699800)),
    ("rgg3d_n4096_side_c1", (402997, 3172860774105555724, 5866546845536327769)),
    ("rgg3d_n20000_r0.01_c1", (837, 11015506347760149319, 15675662509704914859)),
    ("rgg3d_n32768_threshold_c1", (113857, 9027851459268981527, 17125207660799548450)),
    ("rgg3d_n4096_side_c8", (520959, 12722887494031104392, 2882242087682841699)),
    ("rgg3d_n20000_r0.01_c8", (842, 8438637363211247170, 10514914970727133029)),
    ("rgg3d_n32768_threshold_c8", (118684, 16819760509613897425, 7205175090484649090)),
    ("rgg3d_n4096_side_c64", (686493, 4785112750904799072, 15864142673952455650)),
    ("rgg3d_n20000_r0.01_c64", (858, 4806066835459595165, 16162681290582133764)),
    ("rgg3d_n32768_threshold_c64", (128082, 18313360359796365048, 10813369909163836636)),
];

#[test]
fn rgg_kernel_rows_keep_their_golden_digests() {
    assert_corners("RGG kernel", &rgg_kernel_rows(), GOLDEN_RGG_KERNEL);
}

/// BA where its slot ranges and quotients are cut differently: `d` 1
/// (a slot is a vertex), 3 and 5 (no power of two), 8; one PE, 7 (PE
/// boundaries at no round slot number) and 64 (every PE shorter than a
/// resolver block). Every row digests all of its PEs. Recorded on the
/// tree that resolved one slot's hash chain at a time.
fn ba_corners() -> Vec<(String, Box<dyn Generator>)> {
    let mut rows: Vec<(String, Box<dyn Generator>)> = Vec::new();
    for d in [1, 3, 5, 8] {
        for chunks in [1, 7, 64] {
            let gen = BarabasiAlbert::new(2000, d)
                .with_seed(SEED)
                .with_chunks(chunks);
            rows.push((format!("ba_d{d}_c{chunks}"), Box::new(gen)));
        }
    }
    rows
}

#[rustfmt::skip]
const GOLDEN_BA_CORNERS: &[(&str, CornerDigest)] = &[
    ("ba_d1_c1", (2000, 17814933496002437805, 13931637969101286192)),
    ("ba_d1_c7", (2000, 15678940680655153555, 15036749693123144749)),
    ("ba_d1_c64", (2000, 960035524140781984, 10071672075827987503)),
    ("ba_d3_c1", (6000, 6923613739240020184, 17864107600376644602)),
    ("ba_d3_c7", (6000, 10081623971385114908, 15202191893308800610)),
    ("ba_d3_c64", (6000, 14078050587524290007, 7322626898070983563)),
    ("ba_d5_c1", (10000, 6672907137698705530, 15082847663106486553)),
    ("ba_d5_c7", (10000, 4654246280116016322, 17386046483711579130)),
    ("ba_d5_c64", (10000, 14608948355838815063, 5924008778724511565)),
    ("ba_d8_c1", (16000, 12220897302002209521, 5239678125976258291)),
    ("ba_d8_c7", (16000, 14856707505543917947, 17387935123432128739)),
    ("ba_d8_c64", (16000, 8591479489230461712, 13288190110429162905)),
];

#[test]
fn ba_corners_keep_their_golden_digests() {
    assert_corners("BA", &ba_corners(), GOLDEN_BA_CORNERS);
}

/// The ER family where its leaves take different arms: `dense` (m or
/// p above 1/13 of a leaf: Method A), `full` (m = universe, p = 1: full
/// enumeration), `sparse` (most leaves empty — for directed models
/// leaves of 2^44 pairs, for undirected ones most of the chunk matrix),
/// `tiny` (fewer vertices than chunks). SBM adds `pieces` (block pairs
/// cut into 16 pieces) and `unequal` (explicit sizes with a size-1
/// block, a zero and a one in the matrix). Every row digests all of its
/// PEs at 1, 7 and 64 chunks.
fn er_corners() -> Vec<(String, Box<dyn Generator>)> {
    type Build = Box<dyn Fn(usize) -> Box<dyn Generator>>;
    macro_rules! row {
        ($name:expr, $e:expr) => {
            (
                $name.to_string(),
                Box::new(move |chunks| {
                    Box::new($e.with_seed(SEED).with_chunks(chunks)) as Box<dyn Generator>
                }) as Build,
            )
        };
    }
    // A G(n,p) row, or its Algorithm-D baseline on the same leaves.
    macro_rules! gnp {
        ($name:expr, $e:expr, $algo_d:expr) => {
            (
                $name,
                Box::new(move |chunks| {
                    let gnp = $e.with_seed(SEED).with_chunks(chunks);
                    if $algo_d {
                        Box::new(GnpAlgoD::new(gnp)) as Box<dyn Generator>
                    } else {
                        Box::new(gnp)
                    }
                }) as Build,
            )
        };
    }
    let sparse_directed = 1u64 << 25;
    let mut models: Vec<(String, Build)> = vec![
        row!("gnm_directed_dense", GnmDirected::new(200, 8000)),
        row!("gnm_directed_full", GnmDirected::new(40, 40 * 39)),
        row!("gnm_directed_sparse", GnmDirected::new(sparse_directed, 3)),
        row!("gnm_directed_tiny", GnmDirected::new(5, 7)),
        row!("gnm_undirected_dense", GnmUndirected::new(200, 8000)),
        row!("gnm_undirected_full", GnmUndirected::new(40, 40 * 39 / 2)),
        row!("gnm_undirected_sparse", GnmUndirected::new(3000, 3)),
        row!("gnm_undirected_tiny", GnmUndirected::new(5, 6)),
    ];
    for (tag, algo_d) in [("skip", false), ("algo_d", true)] {
        let (directed, undirected) = (GnpDirected::new, GnpUndirected::new);
        models.extend([
            gnp!(
                format!("gnp_directed_{tag}_dense"),
                directed(200, 0.3),
                algo_d
            ),
            gnp!(
                format!("gnp_directed_{tag}_full"),
                directed(40, 1.0),
                algo_d
            ),
            gnp!(
                format!("gnp_directed_{tag}_sparse"),
                directed(sparse_directed, 5e-15),
                algo_d
            ),
            gnp!(format!("gnp_directed_{tag}_tiny"), directed(5, 0.5), algo_d),
            gnp!(
                format!("gnp_undirected_{tag}_dense"),
                undirected(200, 0.3),
                algo_d
            ),
            gnp!(
                format!("gnp_undirected_{tag}_full"),
                undirected(40, 1.0),
                algo_d
            ),
            gnp!(
                format!("gnp_undirected_{tag}_sparse"),
                undirected(3000, 1e-6),
                algo_d
            ),
            gnp!(
                format!("gnp_undirected_{tag}_tiny"),
                undirected(5, 0.5),
                algo_d
            ),
        ]);
    }
    models.extend([
        row!("sbm_dense", StochasticBlockModel::planted(200, 2, 0.5, 0.2)),
        row!(
            "sbm_pieces",
            StochasticBlockModel::planted(6000, 2, 0.02, 0.001)
        ),
        row!("sbm_full", StochasticBlockModel::planted(60, 3, 1.0, 1.0)),
        row!(
            "sbm_sparse",
            StochasticBlockModel::planted(3000, 5, 1e-6, 1e-7)
        ),
        row!("sbm_tiny", StochasticBlockModel::planted(5, 2, 0.5, 0.5)),
        row!(
            "sbm_unequal",
            StochasticBlockModel::new(
                vec![1, 7, 300, 40, 2],
                vec![
                    vec![0.5, 1.0, 0.1, 0.0, 0.3],
                    vec![1.0, 0.4, 0.05, 0.2, 0.0],
                    vec![0.1, 0.05, 0.03, 0.01, 1.0],
                    vec![0.0, 0.2, 0.01, 0.9, 0.5],
                    vec![0.3, 0.0, 1.0, 0.5, 1.0],
                ],
            )
        ),
    ]);
    let mut rows = Vec::new();
    for (name, build) in &models {
        for chunks in [1, 7, 64] {
            rows.push((format!("{name}_c{chunks}"), build(chunks)));
        }
    }
    rows
}

#[rustfmt::skip]
const GOLDEN_ER_CORNERS: &[(&str, CornerDigest)] = &[
    ("gnm_directed_dense_c1", (8000, 4007843183891624415, 14357075579927819525)),
    ("gnm_directed_dense_c7", (8000, 13920403676407512882, 7725909381989188957)),
    ("gnm_directed_dense_c64", (8000, 10330330683242255737, 1256796187420702073)),
    ("gnm_directed_full_c1", (1560, 12709156420847637369, 14885050239451064836)),
    ("gnm_directed_full_c7", (1560, 3273315518909913729, 12904238376040439280)),
    ("gnm_directed_full_c64", (1560, 8055417763551786197, 16179304826895650083)),
    ("gnm_directed_sparse_c1", (3, 1227972191936743296, 3559130412370344087)),
    ("gnm_directed_sparse_c7", (3, 7931481800186516441, 3468922622530167845)),
    ("gnm_directed_sparse_c64", (3, 12689065228847550356, 7410513230591632011)),
    ("gnm_directed_tiny_c1", (7, 10579942370971480872, 757148890508558232)),
    ("gnm_directed_tiny_c7", (7, 10579942370971480872, 757148890508558232)),
    ("gnm_directed_tiny_c64", (7, 10579942370971480872, 757148890508558232)),
    ("gnm_undirected_dense_c1", (8000, 10381504410245717296, 7452267429871244878)),
    ("gnm_undirected_dense_c7", (14908, 18188947330219708943, 1786587514948555452)),
    ("gnm_undirected_dense_c64", (15920, 13317755750474755024, 17260918812515773668)),
    ("gnm_undirected_full_c1", (780, 12460056214033076005, 302280642876601942)),
    ("gnm_undirected_full_c7", (1465, 9897196191799347302, 18121622289766461140)),
    ("gnm_undirected_full_c64", (1560, 13601612639528275488, 13477356370082517685)),
    ("gnm_undirected_sparse_c1", (3, 15883578459073497345, 948468504163844022)),
    ("gnm_undirected_sparse_c7", (6, 9656837729381521095, 4885344885110021002)),
    ("gnm_undirected_sparse_c64", (6, 3509008804605620893, 1031021652810210525)),
    ("gnm_undirected_tiny_c1", (6, 2708149957744349598, 16370214676578036125)),
    ("gnm_undirected_tiny_c7", (12, 2022052067663062946, 16364662103137798604)),
    ("gnm_undirected_tiny_c64", (12, 2022052067663062946, 16364662103137798604)),
    ("gnp_directed_skip_dense_c1", (12011, 12820175244560259409, 9702720735013228524)),
    ("gnp_directed_skip_dense_c7", (12011, 3318644803683410923, 11107080640055672411)),
    ("gnp_directed_skip_dense_c64", (12011, 1870879208163937377, 2322435965116369216)),
    ("gnp_directed_skip_full_c1", (1560, 12709156420847637369, 7234952529491074318)),
    ("gnp_directed_skip_full_c7", (1560, 3273315518909913729, 16468136713898125879)),
    ("gnp_directed_skip_full_c64", (1560, 8055417763551786197, 6659452864824747417)),
    ("gnp_directed_skip_sparse_c1", (7, 16004788826610448145, 16329833981525003251)),
    ("gnp_directed_skip_sparse_c7", (7, 15299463811084529559, 17147765655029050038)),
    ("gnp_directed_skip_sparse_c64", (7, 4848619148392592855, 7982554455858909591)),
    ("gnp_directed_skip_tiny_c1", (8, 2143198924552905464, 18282675660618461718)),
    ("gnp_directed_skip_tiny_c7", (8, 2143198924552905464, 18282675660618461718)),
    ("gnp_directed_skip_tiny_c64", (8, 2143198924552905464, 18282675660618461718)),
    ("gnp_undirected_skip_dense_c1", (6059, 1229258466898589395, 10351291754023853768)),
    ("gnp_undirected_skip_dense_c7", (11258, 14145897008615957936, 17073165670474770395)),
    ("gnp_undirected_skip_dense_c64", (11755, 12063433976830056291, 15741725904674912120)),
    ("gnp_undirected_skip_full_c1", (780, 12460056214033076005, 302280642876601942)),
    ("gnp_undirected_skip_full_c7", (1465, 9897196191799347302, 18121622289766461140)),
    ("gnp_undirected_skip_full_c64", (1560, 13601612639528275488, 13477356370082517685)),
    ("gnp_undirected_skip_sparse_c1", (10, 5449691077515533154, 14923458328029432838)),
    ("gnp_undirected_skip_sparse_c7", (12, 3143699293244323891, 11387468965345909055)),
    ("gnp_undirected_skip_sparse_c64", (16, 17263001088830738880, 8905790150235890447)),
    ("gnp_undirected_skip_tiny_c1", (8, 2026575020534862369, 1315825463643170093)),
    ("gnp_undirected_skip_tiny_c7", (10, 5620367513414409940, 3122787795243488543)),
    ("gnp_undirected_skip_tiny_c64", (10, 5620367513414409940, 3122787795243488543)),
    ("gnp_directed_algo_d_dense_c1", (11986, 8215378835883248071, 9592037695971691465)),
    ("gnp_directed_algo_d_dense_c7", (11986, 1850585620953626595, 9203139244010838816)),
    ("gnp_directed_algo_d_dense_c64", (11986, 75532675789516703, 2421391533871196696)),
    ("gnp_directed_algo_d_full_c1", (1560, 12709156420847637369, 7234952529491074318)),
    ("gnp_directed_algo_d_full_c7", (1560, 3273315518909913729, 16468136713898125879)),
    ("gnp_directed_algo_d_full_c64", (1560, 8055417763551786197, 6659452864824747417)),
    ("gnp_directed_algo_d_sparse_c1", (9, 1725411450601989076, 8834885524003011294)),
    ("gnp_directed_algo_d_sparse_c7", (9, 17764615051886560599, 2448390017903906873)),
    ("gnp_directed_algo_d_sparse_c64", (9, 2123723033578617594, 17859773066971742335)),
    ("gnp_directed_algo_d_tiny_c1", (12, 11787231812947049315, 2556976497444754614)),
    ("gnp_directed_algo_d_tiny_c7", (12, 11787231812947049315, 2556976497444754614)),
    ("gnp_directed_algo_d_tiny_c64", (12, 11787231812947049315, 2556976497444754614)),
    ("gnp_undirected_algo_d_dense_c1", (5901, 4553252990043325417, 16472048647285813261)),
    ("gnp_undirected_algo_d_dense_c7", (11010, 3594702631861603842, 11971827066611664328)),
    ("gnp_undirected_algo_d_dense_c64", (11718, 7269081864139844453, 13577793287413618744)),
    ("gnp_undirected_algo_d_full_c1", (780, 12460056214033076005, 302280642876601942)),
    ("gnp_undirected_algo_d_full_c7", (1465, 9897196191799347302, 18121622289766461140)),
    ("gnp_undirected_algo_d_full_c64", (1560, 13601612639528275488, 13477356370082517685)),
    ("gnp_undirected_algo_d_sparse_c1", (2, 4653555012418326954, 4964834485779261299)),
    ("gnp_undirected_algo_d_sparse_c7", (10, 9240001499828205980, 3685966693196500029)),
    ("gnp_undirected_algo_d_sparse_c64", (2, 5527265945234530216, 5937728464062228437)),
    ("gnp_undirected_algo_d_tiny_c1", (4, 9876217806175444457, 12721348178306235291)),
    ("gnp_undirected_algo_d_tiny_c7", (8, 16160211426062667620, 14602683199686668829)),
    ("gnp_undirected_algo_d_tiny_c64", (8, 16160211426062667620, 14602683199686668829)),
    ("sbm_dense_c1", (6948, 4208090548023307992, 11405887409700744192)),
    ("sbm_dense_c7", (6948, 10051508591040715297, 7468608630755633102)),
    ("sbm_dense_c64", (6948, 14730444998116811334, 5786780559515028155)),
    ("sbm_pieces_c1", (189467, 18207886910254356166, 3782443414436320700)),
    ("sbm_pieces_c7", (189467, 6104627512667417158, 4859893629832825890)),
    ("sbm_pieces_c64", (189467, 11643965959205451265, 2077987849714460254)),
    ("sbm_full_c1", (1770, 3372858804847721454, 6505665159479839872)),
    ("sbm_full_c7", (1770, 16128898572914571366, 997128586111704719)),
    ("sbm_full_c64", (1770, 15132558087193928510, 7770503484456599805)),
    ("sbm_sparse_c1", (1, 13962700883363319804, 1443007129010255679)),
    ("sbm_sparse_c7", (1, 3017157758369935049, 18047174580436426241)),
    ("sbm_sparse_c64", (1, 7407808452736391442, 10735842478845702940)),
    ("sbm_tiny_c1", (5, 14740941003437612077, 7273890229173793684)),
    ("sbm_tiny_c7", (5, 17795550374064772512, 375363606287595940)),
    ("sbm_tiny_c64", (5, 15738040115620567664, 9223607088433134603)),
    ("sbm_unequal_c1", (3006, 2018766557884048694, 10964598896410340104)),
    ("sbm_unequal_c7", (3006, 1954577802229545112, 17680206255836293746)),
    ("sbm_unequal_c64", (3006, 5095518908267810468, 5510319683069482638)),
];

#[test]
fn er_corners_keep_their_golden_digests() {
    assert_corners("ER", &er_corners(), GOLDEN_ER_CORNERS);
}
