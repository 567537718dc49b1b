//! # stellar-rnic — the RDMA NIC hardware model
//!
//! Models the RNIC at the level the paper's mechanisms live:
//!
//! * [`verbs`] — protection domains, memory regions and queue pairs with
//!   the RDMA-spec access rules vStellar leans on for isolation (§9).
//! * [`mtt`] — the Memory Translation Table and Stellar's **eMTT**
//!   extension that records each page's owner (host memory vs. GPU) and a
//!   pre-translated HPA, letting the RX pipeline skip the PCIe ATC (§6).
//! * [`vswitch`] — the ordered hardware flow-steering table whose shared
//!   TCP/RDMA pipeline causes the Problem-⑤ interference.
//! * [`vdev`] — virtual device management: static SR-IOV VFs (Problem ①),
//!   dynamic SFs, and lightweight vStellar devices (up to 64 k, §4).
//! * [`doorbell`] — doorbell register allocation in the RNIC BAR.
//! * [`dma`] — the DMA engine: turns memory-region accesses into TLPs
//!   routed through the `stellar-pcie` fabric, with a pipelined
//!   translation-latency model that reproduces the Fig. 8 ATC-miss cliff
//!   and the Fig. 14 RC-path bottleneck.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dma;
pub mod doorbell;
pub mod mtt;
pub mod vdev;
pub mod verbs;
pub mod vswitch;

pub use dma::{DmaEngine, DmaError, DmaReport, RnicDataPathConfig, TranslationMode};
pub use doorbell::{DoorbellId, DoorbellTable};
pub use mtt::{MemOwner, Mtt, MttConfig, MttEntry, MttError};
pub use vdev::{VdevError, VdevId, VdevKind, VdevManager, VdevManagerConfig};
pub use verbs::{
    AccessFlags, CqId, MrKey, PdId, QpId, QpState, Verbs, VerbsError, WcStatus, WorkCompletion,
};
pub use vswitch::{RuleAction, RuleClass, SteeringRule, VSwitch, VSwitchConfig};
