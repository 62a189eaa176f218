//! The experiment suite: one module per paper artifact (indexed in the
//! crate docs).

pub mod ablation;
pub mod apps;
pub mod baseline;
pub mod capacity;
pub mod fig1;
pub mod idl_props;
pub mod impossibility;
pub mod loss;
pub mod me_props;
pub mod modelcheck;
pub mod naive;
pub mod pif_props;
pub mod rtbench;
pub mod scaling;
pub mod stepbench;
pub mod topology;
