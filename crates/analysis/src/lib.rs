//! # dpar2-analysis
//!
//! The post-decomposition analyses of the DPar2 paper's "Discoveries"
//! section (§IV-E):
//!
//! * [`pcc`] — Pearson correlation between feature latent vectors `V(i,:)`,
//!   producing the Fig. 12 correlation heatmaps (US vs. Korea feature
//!   similarity patterns).
//! * [`similarity`] — the stock-pair similarity
//!   `sim(s_i, s_j) = exp(−γ ‖U_i − U_j‖²_F)` (Eq. 10) and the similarity
//!   graph with zeroed self-loops (Eq. 11).
//! * [`knn`] — top-`k` nearest neighbours of a target stock
//!   (Table III(a)).
//! * [`rwr`] — Random Walk with Restart scores by power iteration
//!   (Eq. 12, `r ← (1−c) Ãᵀ r + c q`) for the multi-hop ranking of
//!   Table III(b).
//! * [`index`] — sub-linear Eq. 10 top-k: a cluster-pruned
//!   [`EmbeddingIndex`] over the factor embeddings with an `nprobe`
//!   exactness-vs-speed knob (`nprobe = num_partitions` is bitwise-exact).

pub mod index;
pub mod knn;
pub mod pcc;
pub mod rwr;
pub mod similarity;

pub use index::{EmbeddingIndex, IndexOptions, SearchScratch, SearchStats};
pub use knn::{select_top_k, top_k_neighbors};
pub use pcc::{pcc_matrix, pearson};
pub use rwr::{rwr_scores, RwrConfig};
pub use similarity::{similarity_graph, similarity_topk, squared_distance, stock_similarity};
