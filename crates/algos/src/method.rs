//! The concurrent-write method axis every kernel is parameterized over.

use std::fmt;
use std::str::FromStr;

/// Which concurrent-write implementation a kernel uses — the independent
/// variable of every figure in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CwMethod {
    /// Issue every write, let the memory system serialize (Rodinia's
    /// practice). Sound only for single-word common writes; kernels that
    /// perform multi-word writes produce *internally inconsistent* results
    /// under this method (which the workspace's torn-write tests
    /// demonstrate on purpose).
    Naive,
    /// Per-target atomic fetch-and-increment gatekeeper (the prefix-sum
    /// method of Vishkin et al. 2008); requires a re-zeroing pass before
    /// every round.
    Gatekeeper,
    /// The paper's contribution: CAS-if-Less-Than round claims, wait-free,
    /// reset-free.
    CasLt,
    /// Claims guarded by a per-target mutex — the critical-section
    /// baseline the paper calls "trivial but bad".
    Lock,
}

impl CwMethod {
    /// Every method, in presentation order: the kernel matrix and the
    /// names [`CwMethod::from_str`] accepts.
    pub const ALL: [CwMethod; 4] = [
        CwMethod::Naive,
        CwMethod::Gatekeeper,
        CwMethod::CasLt,
        CwMethod::Lock,
    ];

    /// The three methods the paper's figures compare (naive, prefix-sum,
    /// CAS-LT).
    pub const PAPER: [CwMethod; 3] = [CwMethod::Naive, CwMethod::Gatekeeper, CwMethod::CasLt];

    /// Whether the method elects a unique winner (everything except
    /// [`CwMethod::Naive`]). Kernels whose writes span several words are
    /// only *consistent* under single-winner methods.
    pub fn single_winner(self) -> bool {
        !matches!(self, CwMethod::Naive)
    }

    /// Short stable name (also accepted by [`CwMethod::from_str`]).
    pub fn name(self) -> &'static str {
        match self {
            CwMethod::Naive => "naive",
            CwMethod::Gatekeeper => "gatekeeper",
            CwMethod::CasLt => "caslt",
            CwMethod::Lock => "lock",
        }
    }
}

impl fmt::Display for CwMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for unknown method names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownMethod(pub String);

impl fmt::Display for UnknownMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = CwMethod::ALL.iter().map(|m| m.name()).collect();
        write!(
            f,
            "unknown concurrent-write method '{}'; expected one of: {}",
            self.0,
            names.join(", ")
        )
    }
}

impl std::error::Error for UnknownMethod {}

impl FromStr for CwMethod {
    type Err = UnknownMethod;
    fn from_str(s: &str) -> Result<CwMethod, UnknownMethod> {
        CwMethod::ALL
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| UnknownMethod(s.to_string()))
    }
}

/// Instantiate the arbiter for `method` over `len` targets and run `body`
/// with it, monomorphized per arbiter type (no virtual dispatch on the
/// claim hot path).
macro_rules! dispatch_method {
    ($method:expr, $len:expr, |$arb:ident| $body:expr) => {{
        match $method {
            $crate::method::CwMethod::Naive => {
                let $arb = ::pram_core::NaiveArbiter::new($len);
                $body
            }
            $crate::method::CwMethod::Gatekeeper => {
                let $arb = ::pram_core::GatekeeperArray::new($len);
                $body
            }
            $crate::method::CwMethod::CasLt => {
                let $arb = ::pram_core::CasLtArray::new($len);
                $body
            }
            $crate::method::CwMethod::Lock => {
                let $arb = ::pram_core::LockArray::new($len);
                $body
            }
        }
    }};
}
pub(crate) use dispatch_method;

#[cfg(test)]
mod tests {
    use super::*;
    use pram_core::{Round, SliceArbiter};

    #[test]
    fn names_roundtrip() {
        for m in CwMethod::ALL {
            assert_eq!(m.name().parse::<CwMethod>().unwrap(), m);
            assert_eq!(m.to_string(), m.name());
        }
        for gone in ["bogus", "gatekeeper-skip", "caslt-padded"] {
            assert!(gone.parse::<CwMethod>().is_err(), "{gone}");
        }
        let err = "x".parse::<CwMethod>().unwrap_err();
        assert!(err.to_string().contains("unknown"));
    }

    #[test]
    fn unknown_method_message_lists_every_parsable_name() {
        let msg = "bogus".parse::<CwMethod>().unwrap_err().to_string();
        for m in CwMethod::ALL {
            assert!(msg.contains(m.name()), "{msg:?} omits {m}");
        }
        for gone in ["gatekeeper-skip", "caslt-padded"] {
            assert!(!msg.contains(gone), "{msg:?} lists {gone}");
        }
    }

    #[test]
    fn single_winner_excludes_naive_only() {
        for m in CwMethod::ALL {
            assert_eq!(m.single_winner(), m != CwMethod::Naive);
        }
    }

    #[test]
    fn dispatch_instantiates_each_method() {
        for m in CwMethod::ALL {
            let won = dispatch_method!(m, 3, |arb| {
                let w = arb.try_claim(1, Round::FIRST);
                assert_eq!(arb.len(), 3);
                w
            });
            assert!(won, "first claim must win under {m}");
        }
    }
}
