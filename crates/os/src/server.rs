//! The user-level Unix server's shared pages.
//!
//! Mach's Unix server "allocates and shares several pages of memory with
//! each Unix process ... expected to be used as a high-bandwidth,
//! low-latency channel for passing information between applications and the
//! Unix server" (§4.2). In the original system the server requested these
//! pages at *specific* virtual addresses in its own and each process'
//! space, which did not align and caused frequent consistency faults; the
//! fixed system lets the VM pick aligning addresses.
//!
//! This module is the bookkeeping; the kernel drives the actual mapping
//! and the request/reply traffic.

use vic_core::fxhash::FxHashMap;

use vic_core::serial::{SerialError, WordReader, WordWriter};
use vic_core::types::{PFrame, SpaceId, VPage};

use crate::vm::Task;

/// One client's channel: a frame mapped in the client and in the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Channel {
    /// The shared frame.
    pub frame: PFrame,
    /// The client-side virtual page.
    pub client_vp: VPage,
    /// The server-side virtual page.
    pub server_vp: VPage,
}

/// The Unix server: its address space plus the per-client channels.
#[derive(Debug)]
pub struct UnixServer {
    /// The server's own task (address space).
    pub task: Task,
    channels: FxHashMap<u32, Channel>,
    next_fixed: u64,
}

/// Base of the server's fixed-address channel region (the "old" behaviour:
/// the server asks for specific addresses, which rarely align with the
/// clients').
pub const SERVER_FIXED_VP_BASE: u64 = 0x500;

impl UnixServer {
    /// A server in the given address space.
    pub fn new(space: SpaceId, align_mod: u64) -> Self {
        UnixServer {
            task: Task::new(space, align_mod),
            channels: FxHashMap::default(),
            next_fixed: SERVER_FIXED_VP_BASE,
        }
    }

    /// The channel for a client, if established.
    pub fn channel(&self, client: u32) -> Option<&Channel> {
        self.channels.get(&client)
    }

    /// Record a newly established channel.
    pub fn register(&mut self, client: u32, ch: Channel) {
        let prev = self.channels.insert(client, ch);
        debug_assert!(prev.is_none(), "client {client} already had a channel");
    }

    /// Remove a client's channel (task termination).
    pub fn unregister(&mut self, client: u32) -> Option<Channel> {
        self.channels.remove(&client)
    }

    /// Next fixed server-side virtual page (old-style address selection).
    pub fn next_fixed_vp(&mut self) -> VPage {
        let vp = VPage(self.next_fixed);
        self.next_fixed += 1;
        vp
    }

    /// Number of live channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Serialize the server's task and channels. Channels live in a
    /// point-lookup hash map and are written sorted by client id for a
    /// canonical stream.
    pub fn save_state(&self, w: &mut WordWriter) {
        self.task.save_state(w);
        let mut channels: Vec<_> = self.channels.iter().collect();
        channels.sort_by_key(|(client, _)| **client);
        w.usize(channels.len());
        for (client, ch) in channels {
            w.u32(*client);
            w.u64(ch.frame.0);
            w.u64(ch.client_vp.0);
            w.u64(ch.server_vp.0);
        }
        w.u64(self.next_fixed);
    }

    /// Restore state saved by [`UnixServer::save_state`]; every page it
    /// holds must lie in one of `frames` physical frames.
    pub fn restore_state(&mut self, r: &mut WordReader, frames: u64) -> Result<(), SerialError> {
        self.task.restore_state(r, frames)?;
        let n = r.usize()?;
        self.channels.clear();
        for _ in 0..n {
            let client = r.u32()?;
            let ch = Channel {
                frame: r.frame(frames)?,
                client_vp: VPage(r.u64()?),
                server_vp: VPage(r.u64()?),
            };
            self.channels.insert(client, ch);
        }
        self.next_fixed = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_lookup_unregister() {
        let mut s = UnixServer::new(SpaceId(1), 4);
        let ch = Channel {
            frame: PFrame(9),
            client_vp: VPage(20),
            server_vp: VPage(0x500),
        };
        s.register(7, ch);
        assert_eq!(s.channel(7), Some(&ch));
        assert_eq!(s.channel_count(), 1);
        assert_eq!(s.unregister(7), Some(ch));
        assert_eq!(s.channel(7), None);
    }

    #[test]
    fn fixed_vps_advance() {
        let mut s = UnixServer::new(SpaceId(1), 4);
        let a = s.next_fixed_vp();
        let b = s.next_fixed_vp();
        assert_eq!(a, VPage(SERVER_FIXED_VP_BASE));
        assert_eq!(b, VPage(SERVER_FIXED_VP_BASE + 1));
    }
}
