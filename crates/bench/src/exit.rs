//! Every exit code a `livelock-bench` binary ends with, defined once:
//! one `#[repr(u8)]` enum per owner. `figures` and `livelock` return an
//! [`Exit`], which only these enums can build, so a raw number cannot
//! reach the exit status (`clippy.toml` bans the exit call that would
//! bypass `main`'s return).
//!
//! A claim code's meaning is the list of [`claims::CLAIMS`](crate::claims::CLAIMS)
//! rows that carry it; README prints both tables.

use std::process::{ExitCode, Termination};

/// How a binary ends: success, or one owner enum's code.
#[derive(Clone, Copy, Debug)]
pub struct Exit(u8);

impl Exit {
    /// Every check passed.
    pub const SUCCESS: Exit = Exit(0);
}

impl Termination for Exit {
    fn report(self) -> ExitCode {
        ExitCode::from(self.0)
    }
}

/// Declares an owner's exit enum: its variants (each doc line is the
/// code's meaning), `ALL`, `code()`, `meaning()` and `Into<Exit>`.
macro_rules! exits {
    ($(#[doc = $doc:literal])* $name:ident { $(#[doc = $vdoc:literal] $v:ident = $code:literal,)+ }) => {
        $(#[doc = $doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum $name {
            $(#[doc = $vdoc] $v = $code,)+
        }

        impl $name {
            /// Every variant, in code order.
            pub const ALL: &'static [$name] = &[$($name::$v),+];

            /// The process exit status.
            pub const fn code(self) -> u8 {
                self as u8
            }

            /// What the code means: the variant's doc line.
            pub fn meaning(self) -> &'static str {
                match self {
                    $($name::$v => $vdoc.trim(),)+
                }
            }
        }

        impl From<$name> for Exit {
            fn from(e: $name) -> Exit {
                Exit(e.code())
            }
        }
    };
}

exits! {
    /// `figures`: bad arguments or output, then one code per claim group.
    FiguresExit {
        /// unknown flag or figure id, bad --jobs, unwritable results/ directory, or a CSV write error
        Io = 1,
        /// a paper figure's shape or calibration claim failed
        Shape = 2,
        /// an L-1 latency claim failed
        Latency = 3,
        /// a C-1 CPU-share claim failed
        Cpu = 4,
        /// an R-1 fault-storm claim failed
        Fault = 5,
        /// an S-1 SMP claim failed
        Smp = 6,
        /// an O-1 online-detection claim failed
        Observe = 7,
        /// a P-1 priority-isolation claim failed
        Priority = 8,
    }
}

exits! {
    /// `livelock`, every subcommand.
    LivelockExit {
        /// unknown subcommand, unknown flag, or a trial spec that cannot run
        Usage = 2,
    }
}

exits! {
    /// `livelock chaos`: one code per graceful-degradation claim group.
    ChaosExit {
        /// the polled kernel delivered nothing under the storm
        NoDelivery = 3,
        /// the interrupt gate ended the run inhibited
        GateInhibited = 4,
        /// the screend queue still holds packets after the drain
        ScreendBacklog = 5,
        /// the ledger leaves packets unaccounted
        LedgerLeak = 6,
        /// fewer faults fired than were scheduled
        FaultsMissing = 7,
        /// the unmodified kernel did not livelock under the storm
        NotLivelocked = 8,
        /// --priority: the classified polled kernel showed priority inversion
        PriorityInversion = 9,
        /// --priority: the unmodified kernel showed no inversion
        NoInversionContrast = 10,
    }
}

exits! {
    /// `livelock observe`: one code per online-detection claim.
    ObserveExit {
        /// the unmodified kernel produced no livelock-onset event
        NoOnset = 3,
        /// the polled kernel reported livelock onset
        FalseOnset = 4,
        /// the starvation contrast between the kernels failed
        Starvation = 5,
        /// a per-flow ledger leaked arrivals or did not close
        FlowLedger = 6,
    }
}
