//! Messages, chare identity, and callbacks.

use std::any::Any;
use std::fmt;

/// Global identifier of a chare (index into the machine's chare table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChareId(pub usize);

/// Entry method selector within a chare (the analogue of an entry-method
/// index in a Charm Interface file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntryId(pub u16);

/// Scheduling priority of a message. Communication-completion callbacks
/// run at high priority so a chare's pending kernels never starve
/// communication progress (paper §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MsgPriority {
    /// Ordinary entry-method invocations.
    Normal,
    /// Communication/GPU completion callbacks.
    High,
}

/// A clonable message payload: blanket-implemented for every `'static +
/// Clone` type, so entry methods keep passing plain structs. The clone
/// hook is what lets a world fork deep-copy in-flight envelopes for the
/// sweep memoizer; delivery still downcasts exactly
/// as with `Box<dyn Any>`.
pub trait Payload: Any {
    /// Deep-copy into a fresh boxed payload.
    fn clone_boxed(&self) -> Box<dyn Payload>;
    /// Convert to `Any` for by-value downcasting.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T: Any + Clone> Payload for T {
    fn clone_boxed(&self) -> Box<dyn Payload> {
        Box::new(self.clone())
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// A message bound for a chare's entry method.
pub struct Envelope {
    /// Target entry method.
    pub entry: EntryId,
    /// Reference number (the paper's mechanism for matching halo messages
    /// to the receiver's iteration).
    pub refnum: u64,
    /// Typed payload; entry methods downcast it.
    pub data: Box<dyn Payload>,
    /// Estimated wire size (payload marshalled), used for network timing
    /// of remote deliveries.
    pub wire_bytes: u64,
    /// Scheduling priority.
    pub priority: MsgPriority,
}

impl Clone for Envelope {
    fn clone(&self) -> Self {
        Envelope {
            entry: self.entry,
            refnum: self.refnum,
            data: self.data.clone_boxed(),
            wire_bytes: self.wire_bytes,
            priority: self.priority,
        }
    }
}

impl Envelope {
    /// An empty-payload message.
    pub fn empty(entry: EntryId) -> Self {
        Envelope {
            entry,
            refnum: 0,
            data: Box::new(()),
            wire_bytes: 0,
            priority: MsgPriority::Normal,
        }
    }

    /// A message with a typed payload.
    pub fn new<T: Any + Clone>(entry: EntryId, data: T) -> Self {
        Envelope {
            entry,
            refnum: 0,
            data: Box::new(data),
            wire_bytes: std::mem::size_of::<T>() as u64,
            priority: MsgPriority::Normal,
        }
    }

    /// Set the reference number.
    pub fn with_refnum(mut self, refnum: u64) -> Self {
        self.refnum = refnum;
        self
    }

    /// Set the marshalled wire size.
    pub fn with_bytes(mut self, bytes: u64) -> Self {
        self.wire_bytes = bytes;
        self
    }

    /// Mark as high priority.
    pub fn high_priority(mut self) -> Self {
        self.priority = MsgPriority::High;
        self
    }

    /// Downcast the payload by value.
    ///
    /// # Panics
    /// Panics when the payload has a different type — an entry-method
    /// signature mismatch, which is a programming error.
    pub fn take<T: Any>(self) -> T {
        *self
            .data
            .into_any()
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("entry {} payload type mismatch", self.entry.0))
    }
}

impl fmt::Debug for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Envelope")
            .field("entry", &self.entry)
            .field("refnum", &self.refnum)
            .field("wire_bytes", &self.wire_bytes)
            .field("priority", &self.priority)
            .finish()
    }
}

/// Where to deliver a completion notification (the CkCallback analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    /// Invoke an entry method on a chare (empty payload, given refnum).
    ToChare {
        /// Target chare.
        chare: ChareId,
        /// Entry method.
        entry: EntryId,
        /// Reference number carried by the callback message.
        refnum: u64,
    },
    /// Drop the notification.
    Ignore,
}

impl Callback {
    /// Callback invoking `entry` on `chare` with refnum 0.
    pub fn to(chare: ChareId, entry: EntryId) -> Self {
        Callback::ToChare {
            chare,
            entry,
            refnum: 0,
        }
    }

    /// Callback with an explicit refnum.
    pub fn to_ref(chare: ChareId, entry: EntryId, refnum: u64) -> Self {
        Callback::ToChare {
            chare,
            entry,
            refnum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_roundtrips_payload() {
        let e = Envelope::new(EntryId(3), vec![1u32, 2, 3])
            .with_refnum(9)
            .with_bytes(12)
            .high_priority();
        assert_eq!(e.entry, EntryId(3));
        assert_eq!(e.refnum, 9);
        assert_eq!(e.wire_bytes, 12);
        assert_eq!(e.priority, MsgPriority::High);
        assert_eq!(e.take::<Vec<u32>>(), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "payload type mismatch")]
    fn wrong_downcast_panics() {
        Envelope::new(EntryId(0), 5u32).take::<String>();
    }

    #[test]
    fn empty_envelope() {
        let e = Envelope::empty(EntryId(1));
        assert_eq!(e.wire_bytes, 0);
        e.take::<()>();
    }

    #[test]
    fn callback_builders() {
        assert_eq!(
            Callback::to(ChareId(1), EntryId(2)),
            Callback::ToChare {
                chare: ChareId(1),
                entry: EntryId(2),
                refnum: 0
            }
        );
        assert_eq!(
            Callback::to_ref(ChareId(1), EntryId(2), 7),
            Callback::ToChare {
                chare: ChareId(1),
                entry: EntryId(2),
                refnum: 7
            }
        );
    }
}
