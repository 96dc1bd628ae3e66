#![warn(missing_docs)]

//! # redsim-predictor
//!
//! Branch-prediction structures for the redsim front end: a direction
//! predictor (bimodal, or the paper's bimodal + gshare tournament), a
//! branch target buffer, and a return-address stack.
//!
//! The components are deliberately independent — the out-of-order core
//! composes them per the configured front end. All state updates are
//! explicit so a timing model can choose *when* to train (redsim trains
//! at branch resolution, like SimpleScalar).
//!
//! # Examples
//!
//! ```
//! use redsim_predictor::Bimodal;
//!
//! let mut p = Bimodal::new(1024);
//! let pc = 0x1000;
//! for _ in 0..4 {
//!     p.update(pc, true);
//! }
//! assert!(p.predict(pc), "a repeatedly taken branch predicts taken");
//! ```

mod btb;
mod counter;
mod direction;
mod ras;

pub use btb::{Btb, BtbConfig};
pub use counter::Counter2;
pub use direction::{Bimodal, Direction, DirectionConfig, Tournament};
pub use ras::ReturnAddressStack;
