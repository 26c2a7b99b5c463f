//! Extra-paper GF(2^m) bit-parallel multiplier generators.
//!
//! The six Table V methods, including the three published baselines
//! the paper compares against (\[2\], \[8\], \[3\]), live in
//! [`rgf2m_core::gen`] behind the [`rgf2m_core::Method`] registry. This
//! crate keeps the two references outside the paper:
//!
//! * [`School`] — a deliberately naive two-step multiplier (chained
//!   XOR accumulation) kept as a structural worst-case reference for
//!   tests and ablations (not part of the paper's Table V);
//! * [`Karatsuba`] — a sub-quadratic recursive multiplier (extension
//!   beyond the paper: fewer AND gates, more XOR depth).
//!
//! # Examples
//!
//! ```
//! use gf2m::Field;
//! use gf2poly::TypeIiPentanomial;
//! use rgf2m_baselines::{Karatsuba, School};
//! use rgf2m_core::MultiplierGenerator;
//!
//! let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2)?);
//! // The schoolbook method forms all m² = 64 partial products;
//! // recursing down to 2 coordinates trades some for extra XORs.
//! assert_eq!(School.generate(&field).stats().ands, 64);
//! assert!(Karatsuba::new(2).generate(&field).stats().ands < 64);
//! # Ok::<(), gf2poly::PentanomialError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod karatsuba;
mod school;

pub use karatsuba::Karatsuba;
pub use school::School;
