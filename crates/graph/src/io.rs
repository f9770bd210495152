//! Reading and writing graphs as plain-text edge lists.
//!
//! The format is the one used by the SNAP collection (and by the LAW graphs
//! after conversion): one edge per line, two whitespace-separated integer node
//! ids, `#`- or `%`-prefixed comment lines, blank lines ignored. Node ids in
//! the file may be arbitrary (non-contiguous) — they are remapped to dense
//! `0..n` ids on load, which is what every SimRank implementation in the
//! literature does as a preprocessing step.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Seek, Write};
use std::path::Path;

use crate::builder::{GraphBuilder, SelfLoopPolicy};
use crate::digraph::DiGraph;
use crate::error::GraphError;
use crate::NodeId;

/// Options controlling edge-list parsing.
#[derive(Clone, Copy, Debug)]
pub struct EdgeListOptions {
    /// Treat the input as undirected: every line inserts both directions.
    pub undirected: bool,
    /// Drop or keep self-loops.
    pub self_loops: SelfLoopPolicy,
    /// Remove duplicate edges after loading.
    pub dedup: bool,
}

impl Default for EdgeListOptions {
    fn default() -> Self {
        EdgeListOptions {
            undirected: false,
            self_loops: SelfLoopPolicy::Drop,
            dedup: true,
        }
    }
}

/// The result of loading an edge list: the graph plus the mapping from the
/// original (file) node ids to the dense ids used internally.
#[derive(Clone, Debug)]
pub struct LoadedGraph {
    /// The dense-id graph.
    pub graph: DiGraph,
    /// `original_ids[dense_id]` is the node id that appeared in the file.
    pub original_ids: Vec<u64>,
}

impl LoadedGraph {
    /// Looks up the dense id of an original (file) node id, if present.
    pub fn dense_id_of(&self, original: u64) -> Option<NodeId> {
        // original_ids is sorted by construction only when input was sorted;
        // do a linear scan fallback via binary search attempt.
        self.original_ids
            .iter()
            .position(|&o| o == original)
            .map(|i| i as NodeId)
    }
}

/// Parses an edge list from an in-memory string. See the module docs for the format.
pub fn parse_edge_list(text: &str, options: EdgeListOptions) -> Result<LoadedGraph, GraphError> {
    let lines = text.lines();
    parse_lines(
        lines.clone().count(),
        lines.map(|l| Ok(l.to_owned())),
        options,
    )
}

/// Reads an edge list from a file path. See the module docs for the format.
///
/// The file is read twice: once to count its lines, so the edge list is
/// allocated once at its full size, then to parse them.
pub fn read_edge_list<P: AsRef<Path>>(
    path: P,
    options: EdgeListOptions,
) -> Result<LoadedGraph, GraphError> {
    let mut file = File::open(path)?;
    let line_count = count_lines(BufReader::new(&file))?;
    file.rewind()?;
    let reader = BufReader::new(file);
    parse_lines(
        line_count,
        reader.lines().map(|r| r.map_err(GraphError::from)),
        options,
    )
}

/// Number of lines `reader` holds: its newlines, plus one for a last line
/// without one.
fn count_lines(mut reader: impl BufRead) -> Result<usize, GraphError> {
    let (mut lines, mut last) = (0, b'\n');
    loop {
        let chunk = reader.fill_buf()?;
        let Some(&end) = chunk.last() else {
            return Ok(lines + usize::from(last != b'\n'));
        };
        lines += chunk.iter().filter(|&&b| b == b'\n').count();
        last = end;
        let len = chunk.len();
        reader.consume(len);
    }
}

/// Parses `lines`, of which there are `line_count` (blank and comment lines
/// included), into a graph.
///
/// Ids are remapped to dense ones as the lines are read, in order of first
/// appearance, which keeps loading a file with already-dense ids an
/// identity mapping. The remapped edges go straight into the builder,
/// sized for every line (two slots per line for an undirected list), so
/// the list is held once and never regrown.
fn parse_lines<I>(
    line_count: usize,
    lines: I,
    options: EdgeListOptions,
) -> Result<LoadedGraph, GraphError>
where
    I: IntoIterator<Item = Result<String, GraphError>>,
{
    let slots_per_line = if options.undirected { 2 } else { 1 };
    let mut builder = GraphBuilder::with_capacity(0, slots_per_line * line_count)
        .dedup(options.dedup)
        .self_loop_policy(options.self_loops)
        .symmetric(options.undirected);
    let mut id_map: HashMap<u64, NodeId> = HashMap::new();
    let mut original_ids: Vec<u64> = Vec::new();
    let mut dense = |x: u64| {
        *id_map.entry(x).or_insert_with(|| {
            let id = original_ids.len() as NodeId;
            original_ids.push(x);
            id
        })
    };
    for (lineno, line) in lines.into_iter().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let u = parse_field(it.next(), lineno + 1)?;
        let v = parse_field(it.next(), lineno + 1)?;
        // Extra columns (e.g. weights or timestamps) are tolerated and ignored.
        let (du, dv) = (dense(u), dense(v));
        builder.grow_nodes(du.max(dv) as usize + 1);
        builder.try_add_edge(du, dv)?;
    }
    Ok(LoadedGraph {
        graph: builder.build(),
        original_ids,
    })
}

fn parse_field(field: Option<&str>, line: usize) -> Result<u64, GraphError> {
    let field = field.ok_or_else(|| GraphError::Parse {
        line,
        message: "expected two whitespace-separated node ids".into(),
    })?;
    field.parse::<u64>().map_err(|_| GraphError::Parse {
        line,
        message: format!("could not parse node id '{field}'"),
    })
}

/// Writes a graph as a plain edge list (`u<TAB>v` per line) with a header
/// comment recording `n` and `m`.
pub fn write_edge_list<P: AsRef<Path>>(graph: &DiGraph, path: P) -> Result<(), GraphError> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(
        w,
        "# exactsim edge list: nodes={} edges={}",
        graph.num_nodes(),
        graph.num_edges()
    )?;
    for (u, v) in graph.iter_edges() {
        writeln!(w, "{u}\t{v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Serialises a graph to an edge-list string (mainly for tests and examples).
pub fn to_edge_list_string(graph: &DiGraph) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "# exactsim edge list: nodes={} edges={}\n",
        graph.num_nodes(),
        graph.num_edges()
    ));
    for (u, v) in graph.iter_edges() {
        s.push_str(&format!("{u}\t{v}\n"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_directed_edge_list() {
        let text = "# comment\n0 1\n1 2\n2 0\n";
        let loaded = parse_edge_list(text, EdgeListOptions::default()).unwrap();
        let g = &loaded.graph;
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn remaps_sparse_node_ids() {
        let text = "100 200\n200 300\n";
        let loaded = parse_edge_list(text, EdgeListOptions::default()).unwrap();
        assert_eq!(loaded.graph.num_nodes(), 3);
        assert_eq!(loaded.original_ids, vec![100, 200, 300]);
        assert_eq!(loaded.dense_id_of(200), Some(1));
        assert_eq!(loaded.dense_id_of(999), None);
    }

    #[test]
    fn undirected_option_symmetrises() {
        let text = "0 1\n";
        let opts = EdgeListOptions {
            undirected: true,
            ..Default::default()
        };
        let loaded = parse_edge_list(text, opts).unwrap();
        assert_eq!(loaded.graph.num_edges(), 2);
        assert!(loaded.graph.has_edge(0, 1));
        assert!(loaded.graph.has_edge(1, 0));
    }

    #[test]
    fn ignores_comments_blank_lines_and_extra_columns() {
        let text = "% matrix-market style comment\n\n# snap comment\n0 1 0.5\n1 2 17\n";
        let loaded = parse_edge_list(text, EdgeListOptions::default()).unwrap();
        assert_eq!(loaded.graph.num_edges(), 2);
    }

    #[test]
    fn self_loops_dropped_by_default_kept_on_request() {
        let text = "0 0\n0 1\n";
        let loaded = parse_edge_list(text, EdgeListOptions::default()).unwrap();
        assert_eq!(loaded.graph.num_edges(), 1);

        let opts = EdgeListOptions {
            self_loops: SelfLoopPolicy::Keep,
            ..Default::default()
        };
        let loaded = parse_edge_list(text, opts).unwrap();
        assert_eq!(loaded.graph.num_edges(), 2);
    }

    #[test]
    fn duplicate_edges_deduped_by_default() {
        let text = "0 1\n0 1\n0 1\n";
        let loaded = parse_edge_list(text, EdgeListOptions::default()).unwrap();
        assert_eq!(loaded.graph.num_edges(), 1);
        let opts = EdgeListOptions {
            dedup: false,
            ..Default::default()
        };
        let loaded = parse_edge_list(text, opts).unwrap();
        assert_eq!(loaded.graph.num_edges(), 3);
    }

    #[test]
    fn malformed_lines_report_line_numbers() {
        let text = "0 1\nnot_a_number 2\n";
        let err = parse_edge_list(text, EdgeListOptions::default()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn missing_second_field_is_an_error() {
        let text = "0\n";
        let err = parse_edge_list(text, EdgeListOptions::default()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn round_trips_through_string_serialisation() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let text = to_edge_list_string(&g);
        let loaded = parse_edge_list(&text, EdgeListOptions::default()).unwrap();
        assert_eq!(loaded.graph.num_nodes(), g.num_nodes());
        assert_eq!(loaded.graph.num_edges(), g.num_edges());
        for (u, v) in g.iter_edges() {
            assert!(loaded.graph.has_edge(u, v));
        }
    }

    #[test]
    fn file_round_trip() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let dir = std::env::temp_dir();
        let path = dir.join("exactsim_io_roundtrip_test.edges");
        write_edge_list(&g, &path).unwrap();
        let loaded = read_edge_list(&path, EdgeListOptions::default()).unwrap();
        assert_eq!(loaded.graph.num_edges(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn line_counts_match_str_lines_across_buffer_refills() {
        let long = "1 2\n".repeat(3_000);
        for text in [
            "",
            "\n",
            "0 1",
            "0 1\n",
            "0 1\n\n2 3",
            "# c\r\n0 1\r\n",
            &long,
        ] {
            // A 7-byte buffer refills mid-line and mid-"\r\n".
            let reader = std::io::BufReader::with_capacity(7, text.as_bytes());
            assert_eq!(
                count_lines(reader).unwrap(),
                text.lines().count(),
                "{text:?}"
            );
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_edge_list(
            "/definitely/not/a/real/path.edges",
            EdgeListOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::Io(_)));
    }
}
