//! Coherence protocol messages.
//!
//! The protocol is a full-map directory MESI with the paper's extensions:
//!
//! * invalidations may **bounce** off a Bypass Set (`InvAck { bounced }`),
//! * write requests may carry the **Order** bit or a **Conditional Order**
//!   word mask (the request then carries its update so the directory can
//!   merge it into memory),
//! * sharers may ask to be **kept as sharers** after invalidation,
//! * writebacks can request keep-as-sharer (dirty eviction of a line whose
//!   address sits in the Bypass Set, paper §5.1),
//! * the WeeFence comparison design adds GRT deposit, reply and remove
//!   traffic (ids and a line count; the lines stay in the GRT table).

use asymfence_common::ids::{CoreId, LineAddr};

/// The paper's Order modes attached to a write request.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OrderMode {
    /// Plain write: a Bypass-Set hit bounces it.
    #[default]
    None,
    /// WS+ Order operation: completes past Bypass Sets, keeping matching
    /// caches as sharers.
    Order,
    /// SW+ Conditional Order: like Order, but fails if any Bypass-Set match
    /// is on the same *words* (true sharing).
    CondOrder,
}

/// A word-granularity update carried by an Order/Conditional-Order request
/// (and by every `GetX`, so the directory can merge it on an Order).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WordUpdate {
    /// Word index within the line.
    pub word: u8,
    /// New value.
    pub value: u64,
}

/// Atomic read-modify-write operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RmwKind {
    /// Unconditionally writes the operand, returning the old value.
    Swap(u64),
    /// Adds the operand, returning the old value.
    Add(u64),
    /// Compare-and-swap: writes `new` only if the old value equals
    /// `expect`; returns the old value either way.
    Cas {
        /// Expected old value.
        expect: u64,
        /// Replacement value.
        new: u64,
    },
}

impl RmwKind {
    /// The value stored given the old value, or `None` if the RMW does not
    /// write (failed CAS).
    pub fn apply(self, old: u64) -> Option<u64> {
        match self {
            RmwKind::Swap(v) => Some(v),
            RmwKind::Add(v) => Some(old.wrapping_add(v)),
            RmwKind::Cas { expect, new } => (old == expect).then_some(new),
        }
    }
}

/// Maximum words per line representable by the inline [`LineData`]
/// payload (the paper's machine uses 4: 32 B lines of 8 B words).
/// Kept small on purpose: `LineData` is `Copy` and rides inside every
/// protocol [`Msg`], so its inline array is the dominant per-message
/// copy cost in the simulation kernel. `MachineConfig::validate`
/// enforces the same bound.
pub const MAX_LINE_WORDS: usize = 8;

/// Line data payload (one value per word), stored inline so protocol
/// messages, cache lines, and the directory's memory image never touch
/// the heap. Dereferences to a `[u64]` slice of the line's words.
#[derive(Clone, Copy)]
pub struct LineData {
    len: u8,
    words: [u64; MAX_LINE_WORDS],
}

impl LineData {
    /// An all-zero line of `len` words.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`MAX_LINE_WORDS`].
    pub fn zeroed(len: usize) -> Self {
        assert!(len <= MAX_LINE_WORDS, "{len} words/line > MAX_LINE_WORDS");
        LineData {
            len: len as u8,
            words: [0; MAX_LINE_WORDS],
        }
    }

    /// A line holding a copy of `words`.
    ///
    /// # Panics
    ///
    /// Panics if `words` is longer than [`MAX_LINE_WORDS`].
    pub fn from_words(words: &[u64]) -> Self {
        let mut d = Self::zeroed(words.len());
        d.words[..words.len()].copy_from_slice(words);
        d
    }
}

impl std::ops::Deref for LineData {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        &self.words[..self.len as usize]
    }
}

impl std::ops::DerefMut for LineData {
    fn deref_mut(&mut self) -> &mut [u64] {
        &mut self.words[..self.len as usize]
    }
}

impl PartialEq for LineData {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for LineData {}

impl std::fmt::Debug for LineData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self[..], f)
    }
}

/// Protocol messages exchanged between L1 controllers and directory banks.
#[derive(Clone, Copy, Debug)]
pub enum Msg {
    // ------------------------------------------------------- core -> dir
    /// Read request.
    GetS {
        /// Requesting core.
        core: CoreId,
        /// Requested line.
        line: LineAddr,
    },
    /// Write/upgrade request. Carries the update so Order can merge it.
    GetX {
        /// Requesting core.
        core: CoreId,
        /// Requested line.
        line: LineAddr,
        /// The word this write will modify (`None` for an RMW upgrade,
        /// which applies its operation after the fill).
        update: Option<WordUpdate>,
        /// Order mode for this attempt.
        order: OrderMode,
        /// Retry attempt number (0 = first try); used for traffic split.
        attempt: u32,
    },
    /// Dirty writeback. `keep_sharer` implements paper §5.1.
    PutM {
        /// Evicting core.
        core: CoreId,
        /// Evicted line.
        line: LineAddr,
        /// Dirty data.
        data: LineData,
        /// Keep the evicting node in the sharer list.
        keep_sharer: bool,
    },
    /// Wee: deposit this core's Pending Set and read everyone else's.
    GrtDepositAndRead {
        /// Depositing core.
        core: CoreId,
        /// Fence identifier, echoed in the reply.
        fence_serial: u64,
        /// Pending-Set lines carried (the lines wait in the GRT table).
        lines: usize,
    },
    /// Wee: fence completed, drop that fence's Pending Set.
    GrtRemove {
        /// Core whose fence completed.
        core: CoreId,
        /// The completed fence (a core may have several fences open).
        fence_serial: u64,
    },
    /// Fill confirmation: the requester received its data grant, so the
    /// directory may release the line's busy state. (The classic
    /// "Unblock" of directory protocols — without it a second writer
    /// could be granted ownership while the first grant is in flight.)
    Unblock {
        /// Core that received the grant.
        core: CoreId,
        /// Line.
        line: LineAddr,
    },

    // ------------------------------------------------------- dir -> core
    /// Read data, shared state.
    DataS {
        /// Filled line.
        line: LineAddr,
        /// Line contents.
        data: LineData,
    },
    /// Read data, exclusive state (no other sharer).
    DataE {
        /// Filled line.
        line: LineAddr,
        /// Line contents.
        data: LineData,
    },
    /// Write data, modified state (plain GetX success).
    DataM {
        /// Filled line.
        line: LineAddr,
        /// Line contents (pre-merge; the L1 applies the store).
        data: LineData,
    },
    /// Order / Conditional-Order success: the update was merged into
    /// memory and the requester holds the line Shared.
    OrderDone {
        /// Line.
        line: LineAddr,
        /// Post-merge contents.
        data: LineData,
    },
    /// The write bounced off at least one Bypass Set (or a Conditional
    /// Order hit true sharing). Retry later.
    NackBounce {
        /// Line.
        line: LineAddr,
    },
    /// The directory had a transaction in flight for this line; retry soon
    /// (not a Bypass-Set bounce).
    NackBusy {
        /// Line.
        line: LineAddr,
    },
    /// Wee: the other cores' Pending Sets, as read by a deposit.
    GrtReply {
        /// Echoed fence identifier.
        fence_serial: u64,
        /// Remote lines carried (the set waits in the GRT table).
        lines: usize,
    },

    // ---------------------------------------------------- dir -> sharer
    /// Invalidate (or bounce) a cached copy on behalf of a writer.
    Inv {
        /// Line to invalidate.
        line: LineAddr,
        /// The writing core (never invalidated).
        requester: CoreId,
        /// Order mode of the write.
        order: OrderMode,
        /// Word mask of the write (Conditional Order true-sharing test).
        word_mask: u32,
    },
    /// Ask the M/E owner to downgrade to Shared and return data.
    FetchDowngrade {
        /// Line.
        line: LineAddr,
    },

    // ---------------------------------------------------- sharer -> dir
    /// Reply to `Inv`.
    InvAck {
        /// Responding core.
        core: CoreId,
        /// Line.
        line: LineAddr,
        /// The Bypass Set rejected the invalidation; the copy was *not*
        /// invalidated and the write must be NACKed.
        bounced: bool,
        /// The copy was invalidated but the core must stay a sharer
        /// (Bypass-Set match under Order/Conditional Order).
        keep_sharer: bool,
        /// Under Conditional Order: the Bypass-Set match overlapped the
        /// written words.
        true_share: bool,
        /// Dirty data, if the responder was the owner.
        data: Option<LineData>,
    },
    /// Reply to `FetchDowngrade`.
    DowngradeAck {
        /// Responding core.
        core: CoreId,
        /// Line.
        line: LineAddr,
        /// Dirty data (`None` if the line was already gone: a racing
        /// writeback carries it instead).
        data: Option<LineData>,
    },
}

impl Msg {
    /// Short static name of the message kind, for trace labels.
    pub fn label(&self) -> &'static str {
        match self {
            Msg::GetS { .. } => "GetS",
            Msg::GetX { .. } => "GetX",
            Msg::PutM { .. } => "PutM",
            Msg::GrtDepositAndRead { .. } => "GrtDepositAndRead",
            Msg::GrtRemove { .. } => "GrtRemove",
            Msg::Unblock { .. } => "Unblock",
            Msg::DataS { .. } => "DataS",
            Msg::DataE { .. } => "DataE",
            Msg::DataM { .. } => "DataM",
            Msg::OrderDone { .. } => "OrderDone",
            Msg::NackBounce { .. } => "NackBounce",
            Msg::NackBusy { .. } => "NackBusy",
            Msg::GrtReply { .. } => "GrtReply",
            Msg::Inv { .. } => "Inv",
            Msg::FetchDowngrade { .. } => "FetchDowngrade",
            Msg::InvAck { .. } => "InvAck",
            Msg::DowngradeAck { .. } => "DowngradeAck",
        }
    }

    /// The cache line this message concerns, when it concerns one (GRT
    /// traffic operates on fence serials / Pending Sets, not lines).
    /// Schedule oracles use this to decide which deliveries conflict.
    pub fn line(&self) -> Option<LineAddr> {
        match self {
            Msg::GetS { line, .. }
            | Msg::GetX { line, .. }
            | Msg::PutM { line, .. }
            | Msg::Unblock { line, .. }
            | Msg::DataS { line, .. }
            | Msg::DataE { line, .. }
            | Msg::DataM { line, .. }
            | Msg::OrderDone { line, .. }
            | Msg::NackBounce { line }
            | Msg::NackBusy { line }
            | Msg::Inv { line, .. }
            | Msg::FetchDowngrade { line }
            | Msg::InvAck { line, .. }
            | Msg::DowngradeAck { line, .. } => Some(*line),
            Msg::GrtDepositAndRead { .. } | Msg::GrtRemove { .. } | Msg::GrtReply { .. } => None,
        }
    }
}

/// Byte-size model for traffic accounting: 8 B header + 8 B address, plus
/// 8 B per carried word and the full line for data messages.
pub fn msg_bytes(msg: &Msg, line_bytes: u64) -> u64 {
    const HDR: u64 = 16;
    match msg {
        Msg::GetS { .. }
        | Msg::GrtRemove { .. }
        | Msg::NackBounce { .. }
        | Msg::NackBusy { .. }
        | Msg::Inv { .. }
        | Msg::FetchDowngrade { .. }
        | Msg::Unblock { .. } => HDR,
        Msg::GetX { update, .. } => HDR + 8 * u64::from(update.is_some()),
        Msg::PutM { .. } => HDR + line_bytes,
        Msg::DataS { .. } | Msg::DataE { .. } | Msg::DataM { .. } | Msg::OrderDone { .. } => {
            HDR + line_bytes
        }
        Msg::GrtDepositAndRead { lines, .. } | Msg::GrtReply { lines, .. } => {
            HDR + 8 * *lines as u64
        }
        Msg::InvAck { data, .. } | Msg::DowngradeAck { data, .. } => {
            HDR + data.as_ref().map_or(0, |_| line_bytes)
        }
    }
}

/// Whether a message is bounce-retry traffic (Table 4 accounting).
///
/// `NackBusy` and its resends are ordinary protocol serialization (they
/// exist in the baseline too), so only Bypass-Set bounces and the retries
/// they trigger count.
pub fn msg_is_retry(msg: &Msg) -> bool {
    match msg {
        Msg::GetX { attempt, .. } => *attempt > 0,
        Msg::NackBounce { .. } => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence_common::ids::{Addr, CoreId};

    #[test]
    fn rmw_apply_semantics() {
        assert_eq!(RmwKind::Swap(5).apply(9), Some(5));
        assert_eq!(RmwKind::Add(3).apply(u64::MAX), Some(2));
        assert_eq!(RmwKind::Cas { expect: 1, new: 7 }.apply(1), Some(7));
        assert_eq!(RmwKind::Cas { expect: 1, new: 7 }.apply(2), None);
    }

    #[test]
    fn message_sizes() {
        let line = LineAddr::containing(Addr::new(0), 32);
        let c = CoreId(0);
        assert_eq!(msg_bytes(&Msg::GetS { core: c, line }, 32), 16);
        assert_eq!(
            msg_bytes(
                &Msg::GetX {
                    core: c,
                    line,
                    update: Some(WordUpdate { word: 0, value: 1 }),
                    order: OrderMode::None,
                    attempt: 0
                },
                32
            ),
            24
        );
        assert_eq!(
            msg_bytes(
                &Msg::DataM {
                    line,
                    data: LineData::zeroed(4)
                },
                32
            ),
            48
        );
        assert_eq!(
            msg_bytes(
                &Msg::InvAck {
                    core: c,
                    line,
                    bounced: false,
                    keep_sharer: false,
                    true_share: false,
                    data: None
                },
                32
            ),
            16
        );
    }

    #[test]
    fn retry_classification() {
        let line = LineAddr::from_raw(1);
        assert!(msg_is_retry(&Msg::NackBounce { line }));
        assert!(!msg_is_retry(&Msg::NackBusy { line }));
        assert!(!msg_is_retry(&Msg::GetS {
            core: CoreId(0),
            line
        }));
        let gx = |attempt| Msg::GetX {
            core: CoreId(0),
            line,
            update: None,
            order: OrderMode::None,
            attempt,
        };
        assert!(!msg_is_retry(&gx(0)));
        assert!(msg_is_retry(&gx(2)));
    }

    #[test]
    fn line_data_is_inline_and_slice_like() {
        let mut d = LineData::from_words(&[1, 2, 3]);
        assert_eq!(d.len(), 3);
        assert_eq!(d[1], 2);
        d[1] = 9;
        assert_eq!(&d[..], &[1, 9, 3]);
        assert_eq!(d, LineData::from_words(&[1, 9, 3]));
        assert_ne!(d, LineData::zeroed(3));
        assert_eq!(format!("{:?}", LineData::from_words(&[7])), "[7]");
    }
}
