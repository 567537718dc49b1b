//! # stellar-core — the Stellar RDMA virtualization framework
//!
//! The paper's primary contribution, assembled from the substrate crates:
//!
//! * [`server`] — a GPU server model: PCIe fabric with per-switch
//!   RNIC/GPU pairs, the IOMMU, RunD containers, and per-RNIC state
//!   (MTT/eMTT, ATC, DMA engine, virtual devices, doorbells, vSwitch).
//! * [`vstellar`] — the vStellar device: virtio control path (QP/MR
//!   requests intercepted by the host driver), direct-mapped data path
//!   (doorbell in the virtio shm window), PVDMA-backed on-demand MR
//!   registration, and eMTT-based GDR.
//! * [`baseline`] — the systems Stellar is compared against: the SR-IOV
//!   VF + VFIO + VxLAN stack on a CX6/CX7-style RNIC (PCIe ATS/ATC GDR
//!   path, full memory pinning, single-path transport) and a HyV/MasQ-
//!   style para-virtual stack without GDR optimization (all peer-to-peer
//!   traffic through the Root Complex).
//! * [`perftest`] — the Fig. 13/14 microbenchmark harness: RDMA
//!   latency/throughput and GDR throughput per stack and message size.
//! * [`controller`] — the legacy host Controller: dynamic vSwitch rule
//!   offload (churn) and the Problem-⑤ zero-MAC cross-RNIC incident.
//! * [`tcp`] — the non-RDMA path: Stellar's virtio-net/SF/VxLAN choice
//!   (~5% penalty, §4) and the Problem-④ `iommu=nopt` host-TCP tax that
//!   eMTT makes avoidable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod controller;
pub mod perftest;
pub mod server;
pub mod tcp;
pub mod vstellar;

pub use baseline::{BaselineKind, BaselineStack};
pub use controller::{Controller, PeerLocation, RouteHealth};
pub use perftest::{perftest_bandwidth, perftest_latency, PerftestPoint, StackKind};
pub use server::{ContainerId, RnicId, ServerConfig, StellarServer};
pub use tcp::{TcpModel, TcpPath};
pub use vstellar::{VStellarDevice, VStellarError, VStellarStack};
