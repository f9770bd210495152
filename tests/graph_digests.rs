//! Every graph construction path's output bits, pinned across commits.
//!
//! Each input below is built by one public construction path — the Table 2
//! stand-ins of the dataset registry, the random generators, the builder
//! under each of its policies, `DiGraph::from_edges` on a multigraph, a
//! snapshot codec round trip and an edge-list load — and both CSR
//! orientations (offsets, then targets; out, then in) are folded into one
//! FNV-1a digest per input.
//!
//! `tests/answer_digests.rs` pins solver output on a few generated graphs,
//! but it reaches the generators only through the scores, and it never builds
//! the power-law stand-in that serves IC, WV, IT and TW. This file pins the
//! graphs themselves, so a change to how graphs are built that claims "same
//! graph" is checked here rather than argued.
//!
//! Re-recording the constants is allowed only in a change whose CHANGES.md
//! entry declares a deliberate change of graph bits (a different generator,
//! different dedup semantics, a new stand-in recipe). The failure message
//! prints the table to paste.

use exactsim_datasets::dataset_by_key;
use exactsim_graph::binfmt::{read_in_graph, write_in_graph};
use exactsim_graph::builder::SelfLoopPolicy;
use exactsim_graph::generators::{
    barabasi_albert, erdos_renyi_directed, erdos_renyi_undirected, gnm_directed, power_law_digraph,
    PowerLawConfig,
};
use exactsim_graph::io::{parse_edge_list, EdgeListOptions};
use exactsim_graph::{CsrAdjacency, DiGraph, GraphBuilder, NodeId};

/// `(input, digest)` as recorded; the order is the order of [`inputs`].
const EXPECTED_DIGESTS: [(&str, u64); 28] = [
    ("GQ@1", 0xc0c6637f4788494d),
    ("HT@0.5", 0x578a1abc51ee9465),
    ("WV@1", 0x606f83fb6f760bfc),
    ("HP@0.1", 0x83b2dcca4887a40d),
    ("DB@0.001", 0x6cad10f0ea166d55),
    ("IC@0.001", 0x29c6cb33ee1fdb23),
    ("IT@0.0001", 0xe0c2c2fee466b857),
    ("TW@0.0001", 0x1db341eb5c4a09f6),
    ("power_law_short_budget", 0xbd9c23b5c0fd805f),
    ("gnm_sparse", 0x65c1205921e7fe7e),
    ("gnm_dense", 0x7e8f76a3391be631),
    ("gnm_complete", 0xefbedd32b840b2c5),
    ("er_directed", 0x62ec6e79bb186769),
    ("er_directed_full", 0x6f9d0cd843681ea5),
    ("er_undirected", 0xc4f88cffecd2d6cd),
    ("ba_directed", 0x5443e66b318b0071),
    ("builder_default", 0xdcada7a9eb306378),
    ("builder_keep_duplicates", 0x82876c4997b71c27),
    ("builder_keep_self_loops", 0xeb88b4ac2a74836d),
    ("builder_symmetric", 0x36507ede68b918dd),
    ("builder_symmetric_multigraph", 0xd402f59dc5a954fd),
    ("builder_isolated_tail", 0xc41dc69792cc1f00),
    ("from_edges_multigraph", 0x73d1b57bae61d0e8),
    ("binfmt_round_trip", 0x73d1b57bae61d0e8),
    ("binfmt_round_trip_ba", 0xf2972155aa158615),
    ("io_default", 0x4af24689222145f7),
    ("io_undirected", 0x717629aed16bc9c5),
    ("io_multigraph", 0x3f2a09bd7d2c4a75),
];

/// 64-bit FNV-1a over both CSR orientations of a graph.
fn digest(graph: &DiGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut csr = |csr: &CsrAdjacency| {
        for &offset in csr.offsets() {
            eat(&(offset as u64).to_le_bytes());
        }
        for &target in csr.targets() {
            eat(&target.to_le_bytes());
        }
    };
    csr(graph.out_csr());
    csr(graph.in_csr());
    h
}

/// A deterministic edge list with duplicates, self-loops and both
/// directions of some pairs, over `n` nodes.
fn messy_edges(n: u32, m: usize) -> Vec<(NodeId, NodeId)> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % u64::from(n)) as NodeId
    };
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let (u, v) = (next(), next());
        edges.push((u, v));
        match edges.len() % 7 {
            0 => edges.push((u, v)), // a duplicate
            3 => edges.push((u, u)), // a self-loop
            5 => edges.push((v, u)), // the reverse
            _ => {}
        }
    }
    edges
}

fn built(
    edges: &[(NodeId, NodeId)],
    n: usize,
    configure: fn(GraphBuilder) -> GraphBuilder,
) -> DiGraph {
    let mut builder = configure(GraphBuilder::new(n));
    builder.extend_edges(edges.iter().copied());
    builder.build()
}

fn stand_in(key: &str, scale: f64) -> DiGraph {
    dataset_by_key(key)
        .unwrap()
        .generate_scaled(scale)
        .unwrap()
        .graph
}

fn inputs() -> Vec<(&'static str, DiGraph)> {
    let messy = messy_edges(300, 2_000);
    let edge_list = "# comment\n% another\n\n10 20\n20 10\n20 30 7.5\n30 30\n10 20\n\
                     40 10\n99 20\n20 99\n7 7\n10 40\n";
    let load = |options: EdgeListOptions| parse_edge_list(edge_list, options).unwrap().graph;
    let round_trip = |graph: &DiGraph| {
        let mut bytes = Vec::new();
        write_in_graph(graph.in_graph(), &mut bytes).unwrap();
        let in_rows = read_in_graph(&mut &bytes[..], bytes.len() as u64).unwrap();
        DiGraph::from_in_graph(in_rows)
    };
    vec![
        // Every Table 2 stand-in, at a scale that keeps the debug build fast:
        // GQ, HT, HP and DB through Barabási–Albert; WV, IC, IT and TW
        // through the power-law configuration model.
        ("GQ@1", stand_in("GQ", 1.0)),
        ("HT@0.5", stand_in("HT", 0.5)),
        ("WV@1", stand_in("WV", 1.0)),
        ("HP@0.1", stand_in("HP", 0.1)),
        ("DB@0.001", stand_in("DB", 0.001)),
        ("IC@0.001", stand_in("IC", 0.001)),
        ("IT@0.0001", stand_in("IT", 0.0001)),
        ("TW@0.0001", stand_in("TW", 0.0001)),
        // A power-law request its candidate budget cannot fill.
        (
            "power_law_short_budget",
            power_law_digraph(PowerLawConfig {
                nodes: 50,
                edges: 2_000,
                gamma_in: 1.5,
                gamma_out: 1.6,
                seed: 5,
            })
            .unwrap(),
        ),
        ("gnm_sparse", gnm_directed(2_000, 9_000, 3).unwrap()),
        ("gnm_dense", gnm_directed(40, 1_400, 2).unwrap()),
        ("gnm_complete", gnm_directed(3, 6, 1).unwrap()),
        ("er_directed", erdos_renyi_directed(400, 0.02, 5).unwrap()),
        ("er_directed_full", erdos_renyi_directed(9, 1.0, 1).unwrap()),
        (
            "er_undirected",
            erdos_renyi_undirected(300, 0.04, 6).unwrap(),
        ),
        ("ba_directed", barabasi_albert(1_500, 4, false, 8).unwrap()),
        ("builder_default", built(&messy, 300, |b| b)),
        (
            "builder_keep_duplicates",
            built(&messy, 300, |b| b.dedup(false)),
        ),
        (
            "builder_keep_self_loops",
            built(&messy, 300, |b| b.self_loop_policy(SelfLoopPolicy::Keep)),
        ),
        (
            "builder_symmetric",
            built(&messy, 300, |b| b.symmetric(true)),
        ),
        (
            "builder_symmetric_multigraph",
            built(&messy, 300, |b| {
                b.symmetric(true)
                    .dedup(false)
                    .self_loop_policy(SelfLoopPolicy::Keep)
            }),
        ),
        ("builder_isolated_tail", built(&messy, 350, |b| b)),
        ("from_edges_multigraph", DiGraph::from_edges(310, &messy)),
        (
            "binfmt_round_trip",
            round_trip(&DiGraph::from_edges(310, &messy)),
        ),
        ("binfmt_round_trip_ba", round_trip(&stand_in("GQ", 0.2))),
        ("io_default", load(EdgeListOptions::default())),
        (
            "io_undirected",
            load(EdgeListOptions {
                undirected: true,
                ..Default::default()
            }),
        ),
        (
            "io_multigraph",
            load(EdgeListOptions {
                self_loops: SelfLoopPolicy::Keep,
                dedup: false,
                ..Default::default()
            }),
        ),
    ]
}

#[test]
fn every_construction_path_builds_the_recorded_bits() {
    let got: Vec<(&str, u64)> = inputs()
        .iter()
        .map(|(name, graph)| {
            assert!(graph.validate(), "{name}: orientations disagree");
            (*name, digest(graph))
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(name, digest)| format!("    (\"{name}\", 0x{digest:016x}),\n"))
        .collect();
    let report = format!(
        "const EXPECTED_DIGESTS: [(&str, u64); {}] = [\n{table}];",
        got.len()
    );
    assert_eq!(got.len(), EXPECTED_DIGESTS.len(), "{report}");
    for ((name, digest), (want_name, want)) in got.iter().zip(EXPECTED_DIGESTS) {
        assert_eq!(*name, want_name, "{report}");
        assert_eq!(
            *digest, want,
            "{name}: graph bits changed (digest 0x{digest:016x}, recorded 0x{want:016x})\n{report}"
        );
    }
}
