//! Facade crate re-exporting the whole Stellar reproduction workspace.

#![forbid(unsafe_code)]

pub use stellar_check as check;
pub use stellar_cluster as cluster;
pub use stellar_core as core;
pub use stellar_net as net;
pub use stellar_pcie as pcie;
pub use stellar_rnic as rnic;
pub use stellar_sim as sim;
pub use stellar_telemetry as telemetry;
pub use stellar_transport as transport;
pub use stellar_virt as virt;
pub use stellar_workloads as workloads;
