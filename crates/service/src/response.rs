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
use std::sync::OnceLock;
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

/// How many leading ranks of a column [`QueryResponse::top_k`] keeps once it
/// has ranked it: every later call with `k <= RANKED_PREFIX` slices them.
pub const RANKED_PREFIX: usize = 64;

/// One served single-source answer: the full similarity column of `source`.
///
/// Values of this type are immutable once produced and are shared between the
/// cache and all deduplicated requesters via `Arc<QueryResponse>`. A value
/// also keeps the top-[`RANKED_PREFIX`] of its column once
/// [`QueryResponse::top_k`] has ranked it, which is why the column is read
/// through [`QueryResponse::scores`] and neither it nor the source can
/// change; equality ignores the memo.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Which algorithm produced the answer.
    pub algorithm: AlgorithmKind,
    /// The graph epoch the answer was computed at. Answers of one epoch are
    /// bit-identical to direct library calls on that epoch's graph, so a
    /// client racing a commit can tell exactly which graph it was answered
    /// about.
    pub epoch: u64,
    source: NodeId,
    scores: Vec<f64>,
    /// Wall-clock time of the underlying computation (not of this serve:
    /// cache hits return the original computation's time).
    pub query_time: Duration,
    /// `top_k(scores, source, RANKED_PREFIX)`, filled by the first
    /// [`QueryResponse::top_k`] with `k <= RANKED_PREFIX`; `None` inside when
    /// a score is not finite, because only finite scores rank in a total
    /// order.
    ranked: OnceLock<Option<Vec<TopKEntry>>>,
}

impl PartialEq for QueryResponse {
    fn eq(&self, other: &Self) -> bool {
        self.algorithm == other.algorithm
            && self.epoch == other.epoch
            && self.source == other.source
            && self.scores == other.scores
            && self.query_time == other.query_time
    }
}

impl QueryResponse {
    /// A response over `scores`, the column of `source` at `epoch`.
    pub fn new(
        algorithm: AlgorithmKind,
        epoch: u64,
        source: NodeId,
        scores: Vec<f64>,
        query_time: Duration,
    ) -> Self {
        QueryResponse {
            algorithm,
            epoch,
            source,
            scores,
            query_time,
            ranked: OnceLock::new(),
        }
    }

    /// The column: `scores()[j] = S(source, j)` for every node `j`.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Wraps a library [`QueryOutput`] with its request metadata.
    pub fn from_output(
        algorithm: AlgorithmKind,
        epoch: u64,
        source: NodeId,
        output: QueryOutput,
    ) -> Self {
        Self::new(algorithm, epoch, source, output.scores, output.query_time)
    }

    /// Extracts the `k` most similar nodes (excluding the source itself),
    /// bit-identical to [`exactsim::topk::top_k`] on the column.
    ///
    /// The first call with `k <= RANKED_PREFIX` ranks the column once and
    /// keeps its top [`RANKED_PREFIX`]; every later such call costs O(k), a
    /// slice of that prefix. `top_k` orders by score descending, then by
    /// node id, a total order over finite scores, so the top `k` are always
    /// a prefix of the top `RANKED_PREFIX`. A larger `k`, or a column
    /// holding a non-finite score, scans the column: O(n log k).
    pub fn top_k(&self, k: usize) -> TopKResponse {
        let entries = match (k <= RANKED_PREFIX).then(|| self.ranked()).flatten() {
            Some(prefix) => prefix[..k.min(prefix.len())].to_vec(),
            None => top_k(&self.scores, self.source, k),
        };
        TopKResponse {
            algorithm: self.algorithm,
            epoch: self.epoch,
            source: self.source,
            k,
            entries,
            query_time: self.query_time,
        }
    }

    /// The memoized top-[`RANKED_PREFIX`], ranked on first use; `None` for
    /// a column with a non-finite score.
    fn ranked(&self) -> Option<&[TopKEntry]> {
        self.ranked
            .get_or_init(|| {
                let finite = self.scores.iter().all(|s| s.is_finite());
                finite.then(|| top_k(&self.scores, self.source, RANKED_PREFIX))
            })
            .as_deref()
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
        let resp = QueryResponse::new(
            AlgorithmKind::ExactSim,
            4,
            2,
            vec![0.5, 1.0, 0.25, 0.125],
            Duration::from_micros(1234),
        );
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
        let resp = QueryResponse::new(
            AlgorithmKind::PrSim,
            1,
            0,
            vec![1.0, 0.1, 0.9, 0.5],
            Duration::from_micros(10),
        );
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

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A random column of up to 150 scores (so often fewer than
    /// `RANKED_PREFIX` candidates) drawn from a small palette, for heavy
    /// ties and both signed zeros, with the source usually holding the top
    /// score, as it does in a SimRank column.
    fn random_column(seed: u64) -> (Vec<f64>, NodeId) {
        const PALETTE: [f64; 7] = [0.0, -0.0, 1e-300, 0.125, 0.25, 0.5, 1.0];
        let mut state = seed;
        let n = (splitmix(&mut state) % 151) as usize;
        let mut scores: Vec<f64> = (0..n)
            .map(|_| match splitmix(&mut state) % 10 {
                0..=6 => PALETTE[(splitmix(&mut state) % 7) as usize],
                _ => (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64,
            })
            .collect();
        let source = (splitmix(&mut state) % (n as u64 + 1)) as NodeId;
        if let Some(own) = scores.get_mut(source as usize) {
            if !splitmix(&mut state).is_multiple_of(4) {
                *own = 1.0;
            }
        }
        (scores, source)
    }

    fn bits(entries: &[TopKEntry]) -> Vec<(NodeId, u64)> {
        entries
            .iter()
            .map(|e| (e.node, e.score.to_bits()))
            .collect()
    }

    #[test]
    fn memoized_prefix_answers_every_k_bit_identically_to_a_scan() {
        const KS: usize = RANKED_PREFIX + 8;
        for seed in 0..40 {
            let (scores, source) = random_column(seed);
            let scanned: Vec<_> = (0..=KS).map(|k| bits(&top_k(&scores, source, k))).collect();
            let fresh =
                QueryResponse::new(AlgorithmKind::ExactSim, 3, source, scores, Duration::ZERO);
            for first in 0..=KS {
                // Every k as the first call (the memo is empty), then every
                // k again after it.
                let resp = fresh.clone();
                assert!(resp.ranked.get().is_none());
                assert_eq!(
                    bits(&resp.top_k(first).entries),
                    scanned[first],
                    "seed {seed}, first k {first}"
                );
                assert_eq!(
                    resp.ranked.get().is_some(),
                    first <= RANKED_PREFIX,
                    "only a k within the prefix ranks the column (seed {seed}, k {first})"
                );
                for (k, expected) in scanned.iter().enumerate() {
                    let top = resp.top_k(k);
                    assert_eq!(top.k, k);
                    assert_eq!(
                        &bits(&top.entries),
                        expected,
                        "seed {seed}, first k {first}, k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_column_with_a_non_finite_score_is_answered_by_the_scan() {
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut scores = vec![0.5, 0.25, 0.25, 1.0, 0.0, -0.0, 0.75];
            scores[2] = poison;
            let resp = QueryResponse::new(
                AlgorithmKind::ExactSim,
                0,
                3,
                scores.clone(),
                Duration::ZERO,
            );
            for k in [0, 1, 3, 6, RANKED_PREFIX, RANKED_PREFIX + 1] {
                assert_eq!(bits(&resp.top_k(k).entries), bits(&top_k(&scores, 3, k)));
            }
            assert_eq!(
                resp.ranked.get(),
                Some(&None),
                "{poison} must not be memoized"
            );
        }
    }

    #[test]
    fn equality_ignores_the_memo() {
        let make = || {
            QueryResponse::new(
                AlgorithmKind::MonteCarlo,
                2,
                1,
                vec![0.5, 1.0, 0.25],
                Duration::from_micros(7),
            )
        };
        let (ranked, fresh) = (make(), make());
        ranked.top_k(2);
        assert!(ranked.ranked.get().is_some() && fresh.ranked.get().is_none());
        assert_eq!(ranked, fresh);
        let mut other = make();
        other.epoch = 3;
        assert_ne!(ranked, other);
    }

    #[test]
    fn non_finite_scores_serialize_as_null() {
        assert_eq!(format_f64(f64::NAN), "null");
        assert_eq!(format_f64(f64::INFINITY), "null");
        assert_eq!(format_f64(1.0), "1.0");
    }
}
