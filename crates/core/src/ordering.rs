//! Memory-ordering rationale for the arbitration primitives.
//!
//! This module is documentation only; the orderings themselves live inside
//! the cells. The reasoning, once, in full:
//!
//! ## What arbitration must order — and what it must not
//!
//! A concurrent-write step has two correctness obligations:
//!
//! 1. **Writer election.** Among the claims for one (cell, round), exactly
//!    one returns `true`.
//! 2. **Reader visibility.** A read that depends on the round's writes
//!    observes the winner's complete payload.
//!
//! Obligation 1 is purely about the *modification order* of the claim word.
//! Atomic RMW operations (CAS, fetch-add) are totally ordered per location
//! in every memory model — even `Relaxed` RMWs — so exactly one CAS from a
//! stale value to the round can succeed regardless of ordering strength.
//! Our claim CASes use `AcqRel` anyway (see below); on x86 every `lock`
//! RMW is sequentially consistent, so this costs nothing on the paper's
//! target architecture.
//!
//! Obligation 2 is **delegated to the synchronization point**, exactly as in
//! the paper ("a synchronization point is required before any subsequent
//! dependent read"). A barrier creates a happens-before edge from every
//! pre-barrier action of every thread (including the winner's payload
//! stores) to every post-barrier action — readers never rely on the claim
//! word for visibility. This is why:
//!
//! * the **fast-path load** in [`crate::CasLtCell::try_claim`] is
//!   `Relaxed`: observing a stale value merely sends a thread to the CAS,
//!   which re-checks; observing the current round means "skip", a decision
//!   with no payload visibility attached;
//! * losers need nothing from the claim word: their only obligation is to
//!   *not* write.
//!
//! ## Why the CAS is `AcqRel` regardless
//!
//! Within a single round the `Acquire`/`Release` pairing on the claim word
//! is not needed for the kernels in this workspace (the barrier dominates
//! it). It is kept because it is free on x86 and it makes the primitive
//! safe for a usage the paper does not exercise but users will attempt:
//! chaining a *claim-ordered* handoff, where a thread that observes a lost
//! claim reasons about prior winners (e.g. [`crate::PriorityCell::winner`]
//! reads with `Acquire` to pair with the offers' `Release` half).
//!
//! ## The naive method and `Relaxed` stores
//!
//! The naive kernels use `Relaxed` atomic stores as the defined-behaviour
//! stand-in for C's racy plain stores ([`crate::naive`] has the full
//! argument). `Relaxed` compiles to the identical unadorned `mov` on
//! x86-64 and does not inhibit the surrounding loop's optimization in
//! practice, so measured costs transfer.
//!
//! ## The round counter needs no atomics at all
//!
//! [`crate::RoundCounter`] is advanced by the single control thread between
//! parallel phases; the round value reaches workers through the machinery
//! that launches the phase (which provides its own happens-before edge).
