//! Serializable wire types for query answers.
//!
//! The algorithm library's [`exactsim::suite::QueryOutput`] is an in-process
//! value (scores + wall-clock time). The serving layer wraps it into
//! [`QueryResponse`] — tagged with the algorithm and source so it can be
//! cached, shared between threads, and serialized onto a wire. Serialization
//! is hand-rolled JSON (the offline build has no serde); the format is
//! deliberately flat and stable.

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

use exactsim::suite::QueryOutput;
use exactsim::topk::{top_k, TopKEntry};
use exactsim_graph::NodeId;

use crate::error::ServiceError;

/// The algorithms the service can serve queries for.
///
/// ExactSim and its two strongest index-based competitors; the remaining
/// paper baselines (ParSim, Linearization, Power Method) stay library-only
/// because they are dominated on the serving workload (bias or `O(n²)`
/// memory).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// ExactSim (index-free, every query is an independent computation).
    ExactSim,
    /// PRSim-style inverted ℓ-hop PPR index.
    PrSim,
    /// Fogaras–Rácz Monte-Carlo walk index.
    MonteCarlo,
}

impl AlgorithmKind {
    /// All servable algorithms, in stable order (used to size per-algorithm
    /// tables).
    pub const ALL: [AlgorithmKind; 3] = [
        AlgorithmKind::ExactSim,
        AlgorithmKind::PrSim,
        AlgorithmKind::MonteCarlo,
    ];

    /// Stable dense index of this algorithm in [`AlgorithmKind::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            AlgorithmKind::ExactSim => 0,
            AlgorithmKind::PrSim => 1,
            AlgorithmKind::MonteCarlo => 2,
        }
    }

    /// The lowercase wire name (`exactsim`, `prsim`, `mc`).
    pub fn wire_name(self) -> &'static str {
        match self {
            AlgorithmKind::ExactSim => "exactsim",
            AlgorithmKind::PrSim => "prsim",
            AlgorithmKind::MonteCarlo => "mc",
        }
    }
}

impl fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.wire_name())
    }
}

impl FromStr for AlgorithmKind {
    type Err = ServiceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "exactsim" | "exact" => Ok(AlgorithmKind::ExactSim),
            "prsim" => Ok(AlgorithmKind::PrSim),
            "mc" | "montecarlo" | "monte-carlo" => Ok(AlgorithmKind::MonteCarlo),
            other => Err(ServiceError::UnknownAlgorithm(other.to_string())),
        }
    }
}

/// One served single-source answer: the full similarity column of `source`.
///
/// Values of this type are immutable once produced and are shared between the
/// cache and all deduplicated requesters via `Arc<QueryResponse>`.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResponse {
    /// Which algorithm produced the answer.
    pub algorithm: AlgorithmKind,
    /// The graph epoch the answer was computed at. Answers of one epoch are
    /// bit-identical to direct library calls on that epoch's graph, so a
    /// client racing a commit can tell exactly which graph it was answered
    /// about.
    pub epoch: u64,
    /// The query source node.
    pub source: NodeId,
    /// `scores[j] = S(source, j)` for every node `j`.
    pub scores: Vec<f64>,
    /// Wall-clock time of the underlying computation (not of this serve:
    /// cache hits return the original computation's time).
    pub query_time: Duration,
}

impl QueryResponse {
    /// Wraps a library [`QueryOutput`] with its request metadata.
    pub fn from_output(
        algorithm: AlgorithmKind,
        epoch: u64,
        source: NodeId,
        output: QueryOutput,
    ) -> Self {
        QueryResponse {
            algorithm,
            epoch,
            source,
            scores: output.scores,
            query_time: output.query_time,
        }
    }

    /// Extracts the `k` most similar nodes (excluding the source itself).
    pub fn top_k(&self, k: usize) -> TopKResponse {
        TopKResponse {
            algorithm: self.algorithm,
            epoch: self.epoch,
            source: self.source,
            k,
            entries: top_k(&self.scores, self.source, k),
            query_time: self.query_time,
        }
    }

    /// Serializes to one line of JSON. `max_scores` truncates the score array
    /// (the full column of a large graph is rarely what a client wants on a
    /// line protocol); `None` emits every score.
    pub fn to_json(&self, max_scores: Option<usize>) -> String {
        let limit = max_scores
            .unwrap_or(self.scores.len())
            .min(self.scores.len());
        let mut out = String::with_capacity(64 + 24 * limit);
        out.push_str("{\"algorithm\":\"");
        out.push_str(self.algorithm.wire_name());
        out.push_str("\",\"epoch\":");
        out.push_str(&self.epoch.to_string());
        out.push_str(",\"source\":");
        out.push_str(&self.source.to_string());
        out.push_str(",\"num_nodes\":");
        out.push_str(&self.scores.len().to_string());
        out.push_str(",\"query_time_us\":");
        out.push_str(&self.query_time.as_micros().to_string());
        out.push_str(",\"scores\":[");
        for (i, s) in self.scores[..limit].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format_f64(*s));
        }
        out.push_str("],\"scores_truncated\":");
        out.push_str(if limit < self.scores.len() {
            "true"
        } else {
            "false"
        });
        out.push('}');
        out
    }
}

/// One served top-k answer.
#[derive(Clone, Debug, PartialEq)]
pub struct TopKResponse {
    /// Which algorithm produced the answer.
    pub algorithm: AlgorithmKind,
    /// The graph epoch the underlying single-source answer was computed at.
    pub epoch: u64,
    /// The query source node.
    pub source: NodeId,
    /// The requested `k` (the entry list may be shorter on tiny graphs).
    pub k: usize,
    /// The top-k nodes by similarity, source excluded, score-descending.
    pub entries: Vec<TopKEntry>,
    /// Wall-clock time of the underlying single-source computation.
    pub query_time: Duration,
}

impl TopKResponse {
    /// Serializes to one line of JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 32 * self.entries.len());
        out.push_str("{\"algorithm\":\"");
        out.push_str(self.algorithm.wire_name());
        out.push_str("\",\"epoch\":");
        out.push_str(&self.epoch.to_string());
        out.push_str(",\"source\":");
        out.push_str(&self.source.to_string());
        out.push_str(",\"k\":");
        out.push_str(&self.k.to_string());
        out.push_str(",\"query_time_us\":");
        out.push_str(&self.query_time.as_micros().to_string());
        out.push_str(",\"results\":[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"node\":");
            out.push_str(&e.node.to_string());
            out.push_str(",\"score\":");
            out.push_str(&format_f64(e.score));
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// JSON-safe float formatting: finite values use Rust's shortest round-trip
/// representation; non-finite values (which valid SimRank scores never
/// contain, but errors should not corrupt the wire) become `null`.
fn format_f64(v: f64) -> String {
    if v.is_finite() {
        let mut s = v.to_string();
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names_round_trip() {
        for kind in AlgorithmKind::ALL {
            assert_eq!(kind.wire_name().parse::<AlgorithmKind>().unwrap(), kind);
            assert_eq!(AlgorithmKind::ALL[kind.index()], kind);
        }
        assert!("nope".parse::<AlgorithmKind>().is_err());
        assert_eq!(
            "EXACT".parse::<AlgorithmKind>().unwrap(),
            AlgorithmKind::ExactSim
        );
    }

    #[test]
    fn query_response_json_shape_and_truncation() {
        let resp = QueryResponse {
            algorithm: AlgorithmKind::ExactSim,
            epoch: 4,
            source: 2,
            scores: vec![0.5, 1.0, 0.25, 0.125],
            query_time: Duration::from_micros(1234),
        };
        let full = resp.to_json(None);
        assert!(full.contains("\"algorithm\":\"exactsim\""));
        assert!(full.contains("\"epoch\":4"));
        assert!(full.contains("\"source\":2"));
        assert!(full.contains("\"query_time_us\":1234"));
        assert!(full.contains("0.5,1.0,0.25,0.125"));
        assert!(full.contains("\"scores_truncated\":false"));
        let truncated = resp.to_json(Some(2));
        assert!(truncated.contains("[0.5,1.0]"));
        assert!(truncated.contains("\"scores_truncated\":true"));
    }

    #[test]
    fn topk_json_lists_entries_in_order() {
        let resp = QueryResponse {
            algorithm: AlgorithmKind::PrSim,
            epoch: 1,
            source: 0,
            scores: vec![1.0, 0.1, 0.9, 0.5],
            query_time: Duration::from_micros(10),
        };
        let top = resp.top_k(2);
        assert_eq!(top.epoch, 1);
        assert_eq!(top.entries.len(), 2);
        assert_eq!(top.entries[0].node, 2);
        assert_eq!(top.entries[1].node, 3);
        let json = top.to_json();
        assert!(json.contains("{\"node\":2,\"score\":0.9}"));
        assert!(json.contains("\"epoch\":1"));
        assert!(json.contains("\"k\":2"));
    }

    #[test]
    fn non_finite_scores_serialize_as_null() {
        assert_eq!(format_f64(f64::NAN), "null");
        assert_eq!(format_f64(f64::INFINITY), "null");
        assert_eq!(format_f64(1.0), "1.0");
    }
}
