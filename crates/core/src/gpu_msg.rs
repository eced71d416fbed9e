//! The GPU Messaging API — the older GPU-aware mechanism the paper
//! contrasts with the Channel API (§II-B).
//!
//! It keeps message-driven semantics but needs an extra *post entry
//! method* on the receiver: the sender first ships metadata; the runtime
//! schedules the receiver's post entry method, which registers the
//! destination GPU buffer; only then can the receive be posted and a
//! ready notification travel back to the sender, which finally moves the
//! data. The added round trip and scheduler hop delay the receive posting
//! — the performance disadvantage that motivated the Channel API.
//!
//! The pieces here are app-coordinated: the sending chare embeds a
//! [`GpuMsgSender`] and handles a "ready" entry; the receiving chare
//! handles the post entry method and calls [`post_recv`].

use std::collections::HashMap;

use gaat_ucx::{MemLoc, Tag};

use crate::machine::Ctx;
use crate::msg::{Callback, ChareId, EntryId, Envelope};

/// Metadata shipped ahead of the GPU payload.
#[derive(Debug, Clone, Copy)]
pub struct GpuMsgMeta {
    /// Transfer id, unique per sending chare.
    pub id: u64,
    /// The sending chare.
    pub from: ChareId,
    /// The sending chare's PE at send time.
    pub from_pe: usize,
    /// Entry on the sender that receives the ready notification.
    pub ready_entry: EntryId,
    /// Payload size in bytes.
    pub bytes: u64,
}

fn gpu_tag(from: ChareId, id: u64) -> Tag {
    Tag((1u64 << 63) | ((from.0 as u64) << 24) | (id & 0xFF_FFFF))
}

/// Sender-side state for in-flight GPU messages.
#[derive(Debug, Clone, Default)]
pub struct GpuMsgSender {
    pending: HashMap<u64, (MemLoc, Callback)>,
    next: u64,
}

impl GpuMsgSender {
    /// Fresh sender state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a GPU message: ships metadata to `to`'s `post_entry`. The
    /// payload in `loc` is sent once the receiver posts its buffer;
    /// `done` fires when the send completes.
    pub fn send(
        &mut self,
        ctx: &mut Ctx<'_>,
        to: ChareId,
        post_entry: EntryId,
        ready_entry: EntryId,
        loc: MemLoc,
        done: Callback,
    ) {
        let id = self.next;
        self.next += 1;
        self.pending.insert(id, (loc, done));
        let meta = GpuMsgMeta {
            id,
            from: ctx.me(),
            from_pe: ctx.pe(),
            ready_entry,
            bytes: loc.range.bytes(),
        };
        ctx.send(to, Envelope::new(post_entry, meta).with_bytes(64));
    }

    /// Handle the ready notification (the app routes its `ready_entry`
    /// here): the receiver has posted its buffer, so move the data. The
    /// ready envelope's refnum carries the receiver's PE.
    pub fn on_ready(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        let peer_pe = env.refnum as usize;
        let id = env.take::<u64>();
        let (loc, done) = self
            .pending
            .remove(&id)
            .expect("ready for unknown GPU message");
        let me = ctx.me();
        ctx.ucx_isend(peer_pe, gpu_tag(me, id), loc, done);
    }

    /// In-flight sends (diagnostics).
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

/// Receiver side: called from the post entry method with the delivered
/// metadata. Posts the UCX receive into `loc` (completion → `recv_cb`)
/// and notifies the sender that the buffer is ready. The ready message's
/// refnum carries this PE so the sender addresses the right worker.
pub fn post_recv(ctx: &mut Ctx<'_>, meta: &GpuMsgMeta, loc: MemLoc, recv_cb: Callback) {
    assert_eq!(
        meta.bytes,
        loc.range.bytes(),
        "posted buffer must match advertised size"
    );
    ctx.ucx_irecv(meta.from_pe, gpu_tag(meta.from, meta.id), loc, recv_cb);
    let pe = ctx.pe();
    ctx.send(
        meta.from,
        Envelope::new(meta.ready_entry, meta.id)
            .with_refnum(pe as u64)
            .with_bytes(16)
            .high_priority(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_tags_are_unique_per_sender_and_id() {
        let a = gpu_tag(ChareId(1), 0);
        let b = gpu_tag(ChareId(1), 1);
        let c = gpu_tag(ChareId(2), 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // Top bit set: disjoint from channel tags.
        assert!(a.0 & (1 << 63) != 0);
    }
}
