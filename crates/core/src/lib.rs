//! # ets-core
//!
//! Core algorithms of the *Email Typosquatting* (Szurdi & Christin, IMC 2017)
//! reproduction.
//!
//! This crate is substrate-free: it contains the string metrics, typo
//! generators, typing-error model, statistics, and the Section-6 projection
//! regression, with no I/O or simulation state. The simulated Internet
//! (DNS, SMTP, registrant population) lives in the sibling crates and is
//! built on top of these primitives.
//!
//! ## Layout
//!
//! * [`domain`] — validated domain names ([`DomainName`]).
//! * [`intern`] — interned domain table: `u32` symbols over a contiguous
//!   byte arena.
//! * [`keyboard`] — the QWERTY adjacency model used by the fat-finger
//!   distance and the typing-error model (`const` 128×128 table).
//! * [`distance`] — Damerau-Levenshtein, fat-finger and visual distances
//!   (byte-level kernels over `const` lookup tables).
//! * [`typogen`] — DL-1 typo candidate generation ("gtypos"): the
//!   zero-allocation [`typogen::TypoTable`] engine plus DL-1
//!   classification.
//! * [`revindex`] — reverse DL-1 index answering "which targets is this
//!   domain a typo of?" in O(len) (deletion-neighborhood keying).
//! * [`taxonomy`] — gtypo / ctypo / typosquatting classification and the
//!   misdirected-email taxonomy (receiver / reflection / SMTP typos).
//! * [`typing`] — the probabilistic model `E_ij = E_i · Pt_ij · (1 − Pc_ij)`.
//! * [`defense`] — the §8 countermeasures: typo correction and defensive
//!   registration planning.
//! * [`stats`] — descriptive statistics, confidence intervals, MAD outlier
//!   detection, ordinary-least-squares regression with R² and LOOCV, and
//!   precision/recall scoring.
//! * [`regress`] — the paper's Section-6 projection model.
//! * [`alexa`] — Zipf-law popularity lists standing in for Alexa rankings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alexa;
pub mod defense;
pub mod distance;
pub mod domain;
pub mod intern;
pub mod keyboard;
pub mod regress;
pub mod revindex;
pub mod stats;
pub mod taxonomy;
pub mod typing;
pub mod typogen;

pub use domain::DomainName;
pub use intern::{DomainId, DomainInterner};
pub use revindex::ReverseDl1Index;
pub use typogen::{MistakeKind, TypoCandidate, TypoScorer, TypoTable};
