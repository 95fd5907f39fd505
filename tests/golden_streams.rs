//! Golden stream digests: every model the CLI exposes, at seed 7 and 8
//! chunks, folds each PE's `stream_pe_batched` output through
//! [`ChecksumSink`] and compares `(count, checksum)` against literal
//! constants. Byte identity of a delivery path is pinned here directly,
//! so it needs no second path to compare against. R-MAT levels are
//! pinned, never auto-detected, so the constants hold on any host.
//!
//! On a mismatch the failure message prints every differing row in
//! source form.

use kagen_repro::core::prelude::*;
use kagen_repro::pipeline::{ChecksumSink, EdgeSink};

const SEED: u64 = 7;
const CHUNKS: usize = 8;

/// Per-PE `(edge count, order-dependent checksum)`; generators that
/// round the requested chunk count have more or fewer than 8 entries.
fn digest(gen: &dyn StreamingGenerator) -> Vec<(u64, u64)> {
    let mut buf = Vec::new();
    (0..gen.num_chunks())
        .map(|pe| {
            let mut sink = ChecksumSink::new();
            gen.stream_pe_batched(pe, &mut buf, &mut |edges| sink.push_batch(edges));
            (sink.count(), sink.checksum())
        })
        .collect()
}

fn rmat(scale: u32, kernel: RmatKernel) -> Box<dyn StreamingGenerator> {
    Box::new(
        Rmat::new(scale, 40_000)
            .with_seed(SEED)
            .with_chunks(CHUNKS)
            .with_kernel(kernel),
    )
}

/// The model matrix of `tests/observability.rs` (CLI defaults spelled
/// out), both G(n,p) leaf samplers in both orientations, and the R-MAT
/// kernel cells: plain, linear, a `levels ∤ scale` remainder cell, and a
/// scale above 32.
fn models() -> Vec<(&'static str, Box<dyn StreamingGenerator>)> {
    macro_rules! gen {
        ($e:expr) => {
            Box::new($e.with_seed(SEED).with_chunks(CHUNKS)) as Box<dyn StreamingGenerator>
        };
    }
    vec![
        ("gnm_directed", gen!(GnmDirected::new(2000, 8000))),
        ("gnm_undirected", gen!(GnmUndirected::new(2000, 8000))),
        ("gnp_directed", gen!(GnpDirected::new(2000, 0.002))),
        (
            "gnp_directed_algo_d",
            gen!(GnpDirected::new(2000, 0.002).with_leaves(GnpLeaves::AlgoD)),
        ),
        ("gnp_undirected", gen!(GnpUndirected::new(2000, 0.004))),
        (
            "gnp_undirected_algo_d",
            gen!(GnpUndirected::new(2000, 0.004).with_leaves(GnpLeaves::AlgoD)),
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
        ("rmat_plain_s20", rmat(20, RmatKernel::Plain)),
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
    ("rmat_plain_s20", &[
        (5000, 10021836682956403771), (5000, 166019729117463830),
        (5000, 4248173829368932737), (5000, 5093407686381096473),
        (5000, 1760140460477099012), (5000, 1011883553664268333),
        (5000, 8161730365667686083), (5000, 818359786552385525),
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
