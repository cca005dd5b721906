//! Stepwise workload execution: the machinery behind checkpoint/restore.
//!
//! A monolithic workload function cannot be interrupted mid-flight: its
//! progress lives in Rust stack frames, which no serializer can reach.
//! Every driver in this crate therefore implements [`StepWorkload`] — a
//! resumable state machine whose *entire* progress lives in a flat,
//! serializable [`Cursor`]. One `step` performs
//! one bounded unit of the benchmark (typically one iteration of the
//! driver's current phase loop); [`drive`] runs steps until the workload
//! finishes or the machine's cycle counter reaches a stop point.
//!
//! Checkpointing falls out: pause at a cycle boundary, serialize the kernel
//! (see `vic_os::Kernel::save_state`) plus the cursor, and the pair is a
//! complete system image. Restoring both and calling [`drive`] again
//! replays the remaining steps in exactly the order the uninterrupted run
//! would have taken — same operations, same RNG draws, same cycle counts.
//!
//! [`run`](crate::runner::run) drives the same state machine to
//! completion with no stop point, so a checkpointed run and a plain run
//! execute identical code.

use vic_core::serial::{SerialError, WordReader, WordWriter};
use vic_core::types::CpuId;
use vic_core::Rng64;
use vic_os::{Kernel, OsError};

/// Section tag guarding a serialized cursor.
pub const CURSOR_STATE_TAG: u64 = u64::from_le_bytes(*b"cursor-2");

/// The serializable progress of a [`StepWorkload`].
///
/// Drivers treat this as their register file: `phase` selects the current
/// benchmark phase, `i`/`j` are that phase's loop counters, `rng` is the
/// driver's seeded generator, and `u`/`lists` hold whatever scalars
/// (task ids, buffer addresses) and sequences (file id / length tables)
/// the remaining phases will need. Everything is plain `u64`s, so a cursor
/// serializes exactly and compares exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cursor {
    /// The driver's current phase (0 = not started).
    pub phase: u64,
    /// Outer loop counter within the phase.
    pub i: u64,
    /// Inner loop counter within the phase.
    pub j: u64,
    /// The driver's random-number generator. Drivers that use randomness
    /// re-seed this in their phase 0; the initial value is a placeholder.
    pub rng: Rng64,
    /// Scalar registers (task ids, virtual addresses, file ids).
    pub u: Vec<u64>,
    /// Sequence registers (e.g. created file ids and their page counts).
    pub lists: Vec<Vec<u64>>,
}

impl Cursor {
    /// A cursor positioned before the first step.
    pub fn new() -> Self {
        Cursor {
            phase: 0,
            i: 0,
            j: 0,
            rng: Rng64::seed_from_u64(0),
            u: Vec::new(),
            lists: Vec::new(),
        }
    }

    /// Advance to the next phase, resetting both loop counters.
    pub fn next_phase(&mut self) {
        self.phase += 1;
        self.i = 0;
        self.j = 0;
    }

    /// Serialize the cursor: tag, phase/loop counters, RNG state, then the
    /// scalar and sequence registers with explicit lengths.
    pub fn save_state(&self, w: &mut WordWriter) {
        w.tag(CURSOR_STATE_TAG);
        w.u64(self.phase);
        w.u64(self.i);
        w.u64(self.j);
        w.u64(self.rng.state());
        w.usize(self.u.len());
        for &v in &self.u {
            w.u64(v);
        }
        w.usize(self.lists.len());
        for list in &self.lists {
            w.usize(list.len());
            for &v in list {
                w.u64(v);
            }
        }
    }

    /// Restore a cursor saved by [`Cursor::save_state`].
    ///
    /// # Errors
    ///
    /// [`SerialError::Corrupt`] on a wrong tag, [`SerialError::Truncated`]
    /// if the stream ends early.
    pub fn restore_state(r: &mut WordReader) -> Result<Self, SerialError> {
        r.expect(CURSOR_STATE_TAG)?;
        let phase = r.u64()?;
        let i = r.u64()?;
        let j = r.u64()?;
        let rng = Rng64::from_state(r.u64()?);
        let nu = r.count(1)?;
        let mut u = Vec::with_capacity(nu);
        for _ in 0..nu {
            u.push(r.u64()?);
        }
        // Every list takes at least its own length word.
        let nl = r.count(1)?;
        let mut lists = Vec::with_capacity(nl);
        for _ in 0..nl {
            let n = r.count(1)?;
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                list.push(r.u64()?);
            }
            lists.push(list);
        }
        Ok(Cursor {
            phase,
            i,
            j,
            rng,
            u,
            lists,
        })
    }
}

impl Default for Cursor {
    fn default() -> Self {
        Cursor::new()
    }
}

/// A benchmark program expressed as a resumable state machine.
///
/// Contract: `step` must derive its behaviour *only* from the driver's own
/// (immutable) parameters, the kernel, and the cursor — never from state
/// held in `&self` mutably or in captured variables. That is what makes
/// checkpoint (serialize kernel + cursor) and restore (deserialize both,
/// keep stepping) equivalent to never having stopped.
pub trait StepWorkload {
    /// Name as reported in the tables.
    fn name(&self) -> &'static str;

    /// Execute one bounded unit of work. Returns `Ok(true)` while there is
    /// more to do, `Ok(false)` once the workload has completed.
    ///
    /// # Errors
    ///
    /// Propagates any kernel error (always a bug in the driver or kernel).
    fn step(&self, k: &mut Kernel, cpu: CpuId, cur: &mut Cursor) -> Result<bool, OsError>;
}

/// Why [`drive`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveOutcome {
    /// The workload ran to completion.
    Completed,
    /// The machine's cycle counter reached `stop_at` with work remaining;
    /// kernel + cursor together are a checkpointable system image.
    Paused,
}

/// Run a step workload until it completes, or — when `stop_at` is given —
/// until the simulated cycle counter reaches that value.
///
/// The stop check happens *before* each step, so a pause point is always a
/// step boundary: the paused run has performed exactly the steps an
/// uninterrupted run would have performed by that point, and resuming
/// performs exactly the remainder. `stop_at` values at or below the
/// current cycle count pause immediately.
///
/// # Errors
///
/// Propagates any kernel error from the workload.
pub fn drive(
    k: &mut Kernel,
    cpu: CpuId,
    w: &dyn StepWorkload,
    cur: &mut Cursor,
    stop_at: Option<u64>,
) -> Result<DriveOutcome, OsError> {
    loop {
        if let Some(at) = stop_at {
            if k.machine().cycles() >= at {
                return Ok(DriveOutcome::Paused);
            }
        }
        if !w.step(k, cpu, cur)? {
            return Ok(DriveOutcome::Completed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_roundtrips_exactly() {
        let mut cur = Cursor::new();
        cur.phase = 3;
        cur.i = 17;
        cur.j = 2;
        cur.rng = Rng64::seed_from_u64(0xfeed);
        let _ = cur.rng.gen_u64(0, 99);
        cur.u = vec![1, 2, 3];
        cur.lists = vec![vec![], vec![10, 20], vec![30]];
        let mut w = WordWriter::new();
        cur.save_state(&mut w);
        let words = w.into_words();
        let mut r = WordReader::new(&words);
        let back = Cursor::restore_state(&mut r).expect("restores");
        r.finish().expect("no trailing words");
        assert_eq!(back, cur);
    }

    #[test]
    fn cursor_restore_rejects_bad_tag_and_truncation() {
        let mut w = WordWriter::new();
        Cursor::new().save_state(&mut w);
        let mut words = w.into_words();
        assert!(matches!(
            Cursor::restore_state(&mut WordReader::new(&words[..3])),
            Err(SerialError::Truncated { .. })
        ));
        // Then corruption: flip the tag.
        words[0] ^= 1;
        assert!(matches!(
            Cursor::restore_state(&mut WordReader::new(&words)),
            Err(SerialError::Corrupt { .. })
        ));
    }

    #[test]
    fn cursor_restore_rejects_inflated_lengths() {
        let mut cur = Cursor::new();
        cur.u = vec![1, 2, 3];
        cur.lists = vec![vec![], vec![10, 20]];
        let mut w = WordWriter::new();
        cur.save_state(&mut w);
        let words = w.into_words();
        // Tag, four registers, then `u`'s length (5), the list count
        // (9) and the second list's length (11).
        assert_eq!(words[5..], [3, 1, 2, 3, 2, 0, 2, 10, 20]);
        for at in [5, 9, 11] {
            let mut bad = words.clone();
            bad[at] = u64::MAX >> 4;
            assert_eq!(
                Cursor::restore_state(&mut WordReader::new(&bad)),
                Err(SerialError::Truncated { at: words.len() }),
                "inflated length at word {at}"
            );
        }
    }
}
