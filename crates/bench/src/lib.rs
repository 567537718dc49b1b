//! # stellar-bench — regenerates every table and figure of the paper
//!
//! One module per experiment. Each exposes a `run(quick)` function
//! returning serializable rows plus a `print` helper producing the same
//! rows/series the paper reports. The `reproduce` binary dispatches on
//! experiment id; the criterion benches reuse the same runners with
//! `quick = true`.
//!
//! `quick` trades statistical smoothness for speed (smaller fabrics,
//! shorter runs); the *relative* results — who wins, roughly by how much,
//! where the crossovers sit — are stable across both modes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod claims;
pub mod cluster;
pub mod fig06_startup;
pub mod fig08_atc;
pub mod fig09_permutation;
pub mod fig10_background;
pub mod fig11_failures;
pub mod fig12_imbalance;
pub mod fig13_micro;
pub mod fig14_gdr;
pub mod fig15_virt;
pub mod fig16_llm;
pub mod recovery;
pub mod scale;
pub mod table1_comm;
pub mod timeline;

/// Render a row of fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Pretty gigabit formatting.
pub fn gbps(v: f64) -> String {
    format!("{v:.1}")
}
