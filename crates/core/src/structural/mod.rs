//! Structural analyses (§ III): comparator identification and support-set
//! matching.

mod comparators;
mod support_match;

pub use comparators::{find_comparators, Comparator};
pub use support_match::{find_candidates, CandidateNodes};
