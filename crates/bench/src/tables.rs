//! Structured row computation for the paper's Table 2 and Table 3.
//!
//! The `simrank-repro` runner's `table2` and `table3` targets render these
//! rows.

use exactsim::exactsim::{ExactSim, ExactSimConfig, ExactSimVariant};
use exactsim_datasets::{all_datasets, large_datasets, query_sources, DatasetKind};
use exactsim_graph::analysis::DegreeStats;

use crate::params::HarnessParams;
use crate::runner::generate_dataset;

/// One row of Table 2: the paper's dataset statistics next to the synthetic
/// stand-in actually generated by this harness at the current scale.
#[derive(Clone, Debug, PartialEq)]
pub struct Table2Row {
    /// Dataset key ("GQ", "DB", …).
    pub key: String,
    /// Full dataset name as listed in the paper.
    pub name: String,
    /// `"directed"` or `"undirected"`.
    pub kind: String,
    /// Node count reported in the paper.
    pub paper_nodes: usize,
    /// Edge count reported in the paper.
    pub paper_edges: usize,
    /// Node count of the generated stand-in.
    pub standin_nodes: usize,
    /// Directed edge count of the generated stand-in.
    pub standin_edges: usize,
    /// Average degree of the stand-in.
    pub standin_avg_degree: f64,
    /// Maximum in-degree of the stand-in.
    pub standin_max_in_degree: usize,
    /// Fitted in-degree power-law exponent (`None` when the fit is
    /// undefined, e.g. on near-regular graphs).
    pub standin_power_law_exponent: Option<f64>,
    /// Scale factor applied to the paper's node count.
    pub scale: f64,
}

impl Table2Row {
    /// The CSV header matching [`Table2Row::to_csv`].
    pub fn csv_header() -> &'static str {
        "key,name,type,paper_nodes,paper_edges,standin_nodes,standin_edges,\
         standin_avg_degree,standin_max_in_degree,standin_power_law_exponent,scale"
    }

    /// Serialises the row as one CSV line.
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{:.2},{},{},{}",
            self.key,
            self.name,
            self.kind,
            self.paper_nodes,
            self.paper_edges,
            self.standin_nodes,
            self.standin_edges,
            self.standin_avg_degree,
            self.standin_max_in_degree,
            self.standin_power_law_exponent
                .map(|g| format!("{g:.2}"))
                .unwrap_or_else(|| "n/a".to_string()),
            self.scale,
        )
    }

    /// Serialises the row as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"key\":\"{}\",\"name\":\"{}\",\"type\":\"{}\",",
                "\"paper_nodes\":{},\"paper_edges\":{},",
                "\"standin_nodes\":{},\"standin_edges\":{},",
                "\"standin_avg_degree\":{:.2},\"standin_max_in_degree\":{},",
                "\"standin_power_law_exponent\":{},\"scale\":{}}}"
            ),
            self.key,
            self.name,
            self.kind,
            self.paper_nodes,
            self.paper_edges,
            self.standin_nodes,
            self.standin_edges,
            self.standin_avg_degree,
            self.standin_max_in_degree,
            self.standin_power_law_exponent
                .map(|g| format!("{g:.2}"))
                .unwrap_or_else(|| "null".to_string()),
            self.scale,
        )
    }
}

/// Computes Table 2: generates every registry stand-in at the harness scale
/// and measures its degree statistics next to the paper's numbers.
pub fn table2_rows(params: &HarnessParams) -> Vec<Table2Row> {
    all_datasets()
        .iter()
        .map(|spec| {
            let dataset = generate_dataset(spec, params);
            let stats = DegreeStats::compute(&dataset.graph);
            Table2Row {
                key: spec.key.to_string(),
                name: spec.name.to_string(),
                kind: match spec.kind {
                    DatasetKind::Undirected => "undirected".to_string(),
                    DatasetKind::Directed => "directed".to_string(),
                },
                paper_nodes: spec.paper_nodes,
                paper_edges: spec.paper_edges,
                standin_nodes: stats.nodes,
                standin_edges: stats.edges,
                standin_avg_degree: stats.average_degree,
                standin_max_in_degree: stats.max_in_degree,
                standin_power_law_exponent: stats.in_degree_power_law_exponent,
                scale: dataset.scale,
            }
        })
        .collect()
}

/// One row of Table 3: auxiliary memory of basic vs. optimized ExactSim next
/// to the graph's own size, on one large dataset stand-in.
#[derive(Clone, Debug, PartialEq)]
pub struct Table3Row {
    /// Dataset key ("DB", "IC", "IT", "TW").
    pub key: String,
    /// Auxiliary bytes of the basic variant's query.
    pub basic_bytes: usize,
    /// Auxiliary bytes of the optimized variant's query.
    pub optimized_bytes: usize,
    /// In-memory CSR size of the stand-in graph.
    pub graph_bytes: usize,
}

impl Table3Row {
    /// The CSV header matching [`Table3Row::to_csv`].
    pub fn csv_header() -> &'static str {
        "dataset,basic_exactsim_gb,optimized_exactsim_gb,graph_size_gb,reduction_factor"
    }

    /// `basic / optimized`: the memory-reduction factor the paper reports.
    pub fn reduction_factor(&self) -> f64 {
        self.basic_bytes as f64 / self.optimized_bytes.max(1) as f64
    }

    /// Serialises the row as one CSV line (sizes in GB, as in the paper).
    pub fn to_csv(&self) -> String {
        let to_gb = |b: usize| b as f64 / (1u64 << 30) as f64;
        format!(
            "{},{:.6},{:.6},{:.6},{:.1}",
            self.key,
            to_gb(self.basic_bytes),
            to_gb(self.optimized_bytes),
            to_gb(self.graph_bytes),
            self.reduction_factor(),
        )
    }

    /// Serialises the row as one JSON object (sizes in bytes, exact).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"dataset\":\"{}\",\"basic_bytes\":{},\"optimized_bytes\":{},",
                "\"graph_bytes\":{},\"reduction_factor\":{:.1}}}"
            ),
            self.key,
            self.basic_bytes,
            self.optimized_bytes,
            self.graph_bytes,
            self.reduction_factor(),
        )
    }
}

/// Computes Table 3: runs one ε = 1e-5 query per variant on every large
/// stand-in and records the auxiliary allocation each variant reported.
pub fn table3_rows(params: &HarnessParams) -> Vec<Table3Row> {
    large_datasets()
        .iter()
        .map(|spec| {
            eprintln!("[dataset {}] generating stand-in …", spec.key);
            let dataset = generate_dataset(spec, params);
            let source = query_sources(&dataset.graph, 1, params.seed)[0];
            let mut per_variant = Vec::new();
            for variant in [ExactSimVariant::Basic, ExactSimVariant::Optimized] {
                let config = ExactSimConfig {
                    epsilon: 1e-5,
                    variant,
                    walk_budget: Some(params.walk_budget.min(1_000_000)),
                    simrank: exactsim::SimRankConfig {
                        seed: params.seed,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                let result = ExactSim::new(&dataset.graph, config)
                    .expect("config is valid")
                    .query(source)
                    .expect("query succeeds");
                per_variant.push(result.stats.aux_memory_bytes);
            }
            Table3Row {
                key: spec.key.to_string(),
                basic_bytes: per_variant[0],
                optimized_bytes: per_variant[1],
                graph_bytes: dataset.graph.memory_bytes(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> HarnessParams {
        HarnessParams {
            scale_small: 0.02,
            scale_large: Some(0.0005),
            queries: 1,
            walk_budget: 100_000,
            ..Default::default()
        }
    }

    #[test]
    fn table2_covers_all_eight_datasets() {
        let rows = table2_rows(&tiny_params());
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(row.standin_nodes > 0, "{}: empty stand-in", row.key);
            assert!(row.standin_edges > 0);
            assert_eq!(
                row.to_csv().split(',').count(),
                Table2Row::csv_header().split(',').count()
            );
        }
        // Directedness survives the stand-in substitution.
        assert_eq!(
            rows.iter().find(|r| r.key == "WV").unwrap().kind,
            "directed"
        );
        assert_eq!(
            rows.iter().find(|r| r.key == "GQ").unwrap().kind,
            "undirected"
        );
    }

    #[test]
    fn table3_reports_a_memory_reduction() {
        let rows = table3_rows(&tiny_params());
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.basic_bytes > 0);
            assert!(row.optimized_bytes > 0);
            // At the test's tiny scales the optimized variant's fixed
            // overheads (pooled scratch, hop buffers) can exceed the basic
            // variant's, so only sanity-check the ratio here — the paper's
            // >1 reduction claim is a property of realistic graph sizes.
            let factor = row.reduction_factor();
            assert!(factor.is_finite() && factor > 0.0, "{}: {factor}", row.key);
            assert_eq!(
                row.to_csv().split(',').count(),
                Table3Row::csv_header().split(',').count()
            );
        }
    }
}
