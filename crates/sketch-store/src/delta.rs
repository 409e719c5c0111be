//! Version-based delta extraction and CRDT-style merge application —
//! the store-side substrate of multi-node replication, and the only
//! way state moves between stores.
//!
//! Every slot carries a version stamped from the store's monotonic
//! write counter (see [`crate::store`]). A replica that has applied
//! everything up to counter value `v` can therefore ask for "the keys
//! whose version exceeds `v`" and receive the keys that moved —
//! [`SketchStore::delta_since`] — one bounded **page** at a time, in
//! ascending version order, with each key's registers as the sketch's
//! [`compress`](Sketch::compress) payload: cold (warm/frozen) entries
//! ship their already-compressed bytes without rehydration and hot
//! entries are compressed on the way out. A page says how far it reaches
//! ([`StoreDelta::up_to`]), so the receiver's high-water mark is also
//! its resume cursor: whatever was lost, it asks again from the mark.
//!
//! On the receiving side, [`SketchStore::merge_in`] applies a shipped
//! state with union-merge semantics (create on first sight, merge
//! otherwise). Merging is idempotent, commutative and associative, so
//! pages may be duplicated, reordered or re-sent wholesale without
//! corrupting anything — which is also why a replica never needs an
//! atomic image of a whole store. The version stamp only moves when the
//! merge **raised** a local register (the sketch reports it from the
//! merge pass itself) — an echo of state a replica already holds does
//! not re-mark the key as dirty, which is what lets a mesh of replicas
//! pulling deltas from each other quiesce instead of ping-ponging
//! unchanged keys forever.

use crate::error::StoreError;
use crate::store::SketchStore;
use sketch_core::Sketch;

/// One key's state inside a [`StoreDelta`]: the key, the version that
/// produced the payload, and the registers in the sketch's
/// [`compress`](Sketch::compress) wire format.
///
/// The same triple is a checkpoint entry on disk and a delta-page
/// entry on the wire, in one encoding ([`crate::frame::put_entry`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaEntry {
    /// The key whose state this entry carries.
    pub key: String,
    /// The slot version the payload was extracted at (in the *source*
    /// store's write-counter domain).
    pub version: u64,
    /// The registers, compressed through the sketch's
    /// [`compress`](Sketch::compress) codec.
    pub payload: Vec<u8>,
}

/// One page of the keys whose version moved past a floor, with their
/// compact payloads — what one replica ships to another during delta
/// sync (see [`SketchStore::delta_since`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreDelta {
    /// The highest version this page fully covers: every key stamped
    /// above the requested floor and at or below `up_to` is in
    /// `entries`, so a receiver that applies the page may advance its
    /// high-water mark for this source to `up_to` and ask for the next
    /// page from there. Never above the write-counter value observed
    /// **before** the sweep: keys stamped concurrently ship in a later
    /// delta — at-least-once, which idempotent merging makes harmless.
    pub up_to: u64,
    /// True when no key past the floor was left out: the receiver is
    /// caught up to `up_to` and need not ask again until the next round.
    pub complete: bool,
    /// The page's keys in ascending version order.
    pub entries: Vec<DeltaEntry>,
}

impl StoreDelta {
    /// Number of keys the page carries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the page carries no key.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total payload bytes across all entries.
    pub fn payload_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.payload.len()).sum()
    }
}

impl<S: Sketch> SketchStore<S> {
    /// Current value of the store's monotonic write counter — the
    /// domain of every slot version. A replica that has applied a delta
    /// produced at counter value `v` holds everything stamped `≤ v`.
    pub fn write_epoch(&self) -> u64 {
        self.write_epoch_load()
    }

    /// The version stamp of `key`'s slot, without promoting it out of
    /// a cold tier (`None` when the key holds no sketch).
    pub fn version_of(&self, key: &str) -> Option<u64> {
        self.shard(key).read().get(key).map(|slot| slot.version)
    }

    /// Builds an empty sketch through the store's factory — the
    /// configuration and seed every stored sketch shares. Replication
    /// peers use it as the [`decompress`](Sketch::decompress) prototype for
    /// payloads shipped from compatible stores.
    pub fn empty_sketch(&self) -> S {
        self.make_sketch()
    }

    /// Extracts one page of the keys whose version exceeds `after`,
    /// lowest versions first, each with its registers as a
    /// [`compress`](Sketch::compress) payload — the shipping side of
    /// delta sync.
    ///
    /// The page closes once its entries' encoded sizes
    /// ([`DeltaEntry::encoded_len`]) reach `page_bytes`, so it exceeds
    /// the budget by at most one entry and always carries at least one
    /// when any key moved. [`StoreDelta::complete`] says whether that
    /// was all of them; if not, ask again with `after` =
    /// [`StoreDelta::up_to`]. `delta_since(0, _)` starts a full-state
    /// transfer.
    ///
    /// The sweep **peeks**: a first pass under each shard's read lock
    /// only notes which keys moved; then the keys the page has room for
    /// are compressed (hot), cloned (warm) or read from the spill
    /// segment (frozen) — nothing is promoted or demoted, so shipping a
    /// delta never perturbs the memory tiers (tier moves do not bump
    /// versions, so they never appear in a delta either), and a key
    /// that does not ship is not compressed.
    pub fn delta_since(&self, after: u64, page_bytes: usize) -> StoreDelta {
        // Read the counter *before* sweeping: a key stamped after this
        // load may be missed by its shard's read pass, so `up_to` must
        // not claim to cover it.
        let epoch = self.write_epoch_load();
        let mut moved: Vec<(u64, usize, String)> = Vec::new();
        for (index, shard) in self.shards().iter().enumerate() {
            for (key, slot) in shard.read().iter() {
                if slot.version > after {
                    moved.push((slot.version, index, key.clone()));
                }
            }
        }
        moved.sort_unstable();

        let mut entries = Vec::new();
        let mut room = page_bytes;
        let mut moved = moved.into_iter();
        for (_, index, key) in moved.by_ref() {
            let shard = self.shards()[index].read();
            // A key removed since the first pass ships nothing. One
            // written since ships its newer state — a superset of the
            // one the first pass saw, so the page still covers it.
            let Some(slot) = shard.get(&key) else {
                continue;
            };
            // Quarantined/corrupt slots ship nothing: their registers
            // are unrecoverable, and it is the *peers'* healthy copies
            // that will heal this store, not the other way round.
            let Some(payload) = self.slot_payload(&slot.state) else {
                continue;
            };
            let entry = DeltaEntry {
                key,
                version: slot.version,
                payload: payload.into_owned(),
            };
            drop(shard);
            let cost = entry.encoded_len();
            entries.push(entry);
            if cost >= room {
                break;
            }
            room -= cost;
        }
        // Everything the first pass saw below the first key left out
        // is in the page.
        let left_out = moved.next().map(|(version, ..)| version);
        StoreDelta {
            up_to: left_out.map_or(epoch, |version| epoch.min(version - 1)),
            complete: left_out.is_none(),
            entries,
        }
    }

    /// Applies a shipped state to `key` with union-merge semantics:
    /// creates the key when absent, merges otherwise. Returns `true`
    /// when the local state changed.
    ///
    /// The merge is applied first and the sketch reports whether a
    /// register rose; the version stamp moves — and on a durable store
    /// the merge is logged — **only on change**. Re-applying a state the
    /// store already covers (a duplicated delta, or an echo of registers
    /// that originated here) is a read, so replication meshes quiesce
    /// once everyone holds everything instead of re-shipping unchanged
    /// keys forever.
    ///
    /// A key created here is stamped like any other write, so it ships
    /// onward in this store's own deltas — that transitivity is what
    /// lets gossip spread state beyond direct peer pairs. A refused
    /// merge changes nothing and logs nothing.
    ///
    /// # Errors
    /// [`StoreError::Incompatible`] when `incoming`'s configuration or
    /// seed does not match the stored (or factory-built) sketch.
    pub fn merge_in(&self, key: &str, incoming: &S) -> Result<bool, StoreError> {
        // A missing (or corrupt) key merges into a factory-built empty
        // sketch rather than installing `incoming` verbatim: union with
        // the empty set is identity, and the merge is where
        // configuration mismatches surface.
        self.apply_then_log(
            key,
            |sketch| {
                sketch
                    .merge_from(incoming)
                    .map_err(StoreError::incompatible)
            },
            || crate::wal::encode_merge_in(key, &incoming.compress()),
        )
    }
}
