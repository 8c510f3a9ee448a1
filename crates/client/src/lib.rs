//! # fides-client
//!
//! The client half of the FIDESlib architecture (Fig. 1): an
//! OpenFHE-equivalent CKKS client providing **Encode / Decode / KeyGen /
//! Encrypt / Decrypt / Serialize / Deserialize**, plus the thin adapter-layer
//! interchange structures (`Raw*`) the GPU server consumes.
//!
//! Security rests entirely on these client-side operations (§III-B); the
//! [`security`] module carries the HomomorphicEncryption.org standard bounds.
//!
//! ```
//! use fides_client::{ClientContext, KeyGenerator, RawParams};
//! use rand::SeedableRng;
//!
//! let params = RawParams::generate(10, 2, 40, 50, 2); // [logN, L, Δ, dnum]
//! let ctx = ClientContext::new(params);
//! let mut kg = KeyGenerator::new(&ctx, 42);
//! let sk = kg.secret_key();
//! let pk = kg.public_key(&sk);
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let pt = ctx.encode_real(&[1.0, 2.0, 3.0, 4.0], ctx.params().scale(), 2)?;
//! let ct = ctx.encrypt(&pt, &pk, &mut rng)?;
//! let back = ctx.decode_real(&ctx.decrypt(&ct, &sk)?)?;
//! assert!((back[2] - 3.0).abs() < 1e-6);
//! # Ok::<(), fides_client::ClientError>(())
//! ```
//!
//! The [`wire`] module adds the serving-layer protocol on top: session
//! (keygen) uploads, evaluation requests carrying op programs, and
//! responses — plus the length-prefixed socket framing. The [`net`]
//! module is a blocking TCP client for that protocol, with pipelined
//! submission ([`net::NetClient::eval_pipelined`]).

#![warn(missing_docs)]

pub mod codec;
mod context;
mod encode;
mod encrypt;
mod error;
mod keygen;
pub mod net;
pub mod persist;
mod raw;
pub mod security;
pub mod wire;

pub use context::ClientContext;
pub use error::ClientError;
pub use keygen::{
    galois_for_conjugation, galois_for_rotation, KeyGenerator, SecretKey, ERROR_SIGMA,
};
pub use raw::{
    Domain, RawCiphertext, RawKeyDigit, RawParams, RawPlaintext, RawPoly, RawPublicKey,
    RawSwitchingKey,
};
