//! Point-in-time store snapshots and their serialization.
//!
//! A [`StoreSnapshot`] is the *in-process* snapshot shape: typed
//! entries, serde round-trips, rebuilt with
//! [`SketchStore::from_snapshot`](crate::SketchStore::from_snapshot).
//! State moves **between processes** as paged deltas instead
//! ([`SketchStore::delta_since`](crate::SketchStore::delta_since) from
//! version 0, applied with
//! [`SketchStore::merge_in`](crate::SketchStore::merge_in)): bounded
//! pages, resumable from the last one applied, merged into whatever
//! the receiving store already holds.

use std::collections::BTreeMap;

/// One key's state inside a [`StoreSnapshot`].
///
/// A tiered store snapshots warm and frozen keys **without
/// rehydrating** them: their compressed bytes travel as-is
/// ([`Compact`](Self::Compact)), while hot keys clone their sketch
/// ([`Resident`](Self::Resident)). On restore
/// ([`SketchStore::from_snapshot`](crate::SketchStore::from_snapshot)),
/// compact entries come back as warm slots and stay compressed until
/// first touched.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotEntry<S> {
    /// A resident sketch clone (the key was hot).
    Resident(S),
    /// The key's compressed register payload, in the family's
    /// [`CompactSketch`](sketch_core::CompactSketch) wire format (the
    /// key was warm or frozen).
    Compact(Vec<u8>),
}

impl<S> SnapshotEntry<S> {
    /// The resident sketch, if this entry carries one.
    pub fn as_resident(&self) -> Option<&S> {
        match self {
            SnapshotEntry::Resident(sketch) => Some(sketch),
            SnapshotEntry::Compact(_) => None,
        }
    }

    /// The compressed payload, if this entry carries one.
    pub fn as_compact(&self) -> Option<&[u8]> {
        match self {
            SnapshotEntry::Resident(_) => None,
            SnapshotEntry::Compact(bytes) => Some(bytes),
        }
    }
}

/// A point-in-time copy of a [`SketchStore`](crate::SketchStore)'s
/// contents: every key with its state (resident clone or compressed
/// payload — see [`SnapshotEntry`]), plus the shard count so the store
/// can be rebuilt with the same layout.
///
/// Snapshots are the store's unit of persistence and shipping: they are
/// plain data (no locks, no factory), order their entries
/// deterministically, and — with the `serde` feature — round-trip
/// through any serde format. Restore one with
/// [`SketchStore::from_snapshot`](crate::SketchStore::from_snapshot).
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSnapshot<S> {
    /// Number of shards of the originating store.
    pub shard_count: usize,
    /// Key → snapshotted state, ordered by key.
    pub entries: BTreeMap<String, SnapshotEntry<S>>,
}

impl<S> StoreSnapshot<S> {
    /// Number of stored sketches.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the snapshot holds no sketches.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The state snapshotted under `key`, if any.
    pub fn get(&self, key: &str) -> Option<&SnapshotEntry<S>> {
        self.entries.get(key)
    }
}

#[cfg(feature = "serde")]
mod serde_impls {
    //! Hand-written serde wiring.
    //!
    //! The vendored serde_derive shim only handles non-generic structs,
    //! so the generic snapshot pivots through the shim's [`Content`]
    //! tree directly. The wire shapes match what the real derive would
    //! produce: `{ shard_count, entries }` for the snapshot and an
    //! externally tagged map (`{"Resident": …}` / `{"Compact": […]}`)
    //! for each entry.

    use super::{SnapshotEntry, StoreSnapshot};
    use serde::{Content, Deserialize, Deserializer, Serialize, Serializer};

    impl<S: Serialize> Serialize for SnapshotEntry<S> {
        fn serialize<Z: Serializer>(&self, serializer: Z) -> Result<Z::Ok, Z::Error> {
            let (tag, content) = match self {
                SnapshotEntry::Resident(sketch) => {
                    ("Resident", serde::__private::to_content(sketch))
                }
                SnapshotEntry::Compact(bytes) => ("Compact", serde::__private::to_content(bytes)),
            };
            serializer.serialize_content(Content::Map(vec![(tag.to_owned(), content)]))
        }
    }

    impl<'de, S: Deserialize<'de>> Deserialize<'de> for SnapshotEntry<S> {
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
            let content = deserializer.deserialize_content()?;
            let mut fields = match content {
                Content::Map(map) => map,
                other => return Err(serde::__private::expected_map::<D::Error>(&other)),
            };
            if fields.len() != 1 {
                return Err(<D::Error as serde::de::Error>::custom(
                    "snapshot entry must be a single-variant map",
                ));
            }
            let (tag, value) = fields.pop().expect("length checked above");
            match tag.as_str() {
                "Resident" => Ok(SnapshotEntry::Resident(serde::__private::from_content::<
                    S,
                    D::Error,
                >(value)?)),
                "Compact" => Ok(SnapshotEntry::Compact(serde::__private::from_content::<
                    Vec<u8>,
                    D::Error,
                >(value)?)),
                other => Err(<D::Error as serde::de::Error>::custom(format!(
                    "unknown snapshot entry variant `{other}`"
                ))),
            }
        }
    }

    impl<S: Serialize> Serialize for StoreSnapshot<S> {
        fn serialize<Z: Serializer>(&self, serializer: Z) -> Result<Z::Ok, Z::Error> {
            let fields = vec![
                (
                    "shard_count".to_owned(),
                    serde::__private::to_content(&self.shard_count),
                ),
                (
                    "entries".to_owned(),
                    serde::__private::to_content(&self.entries),
                ),
            ];
            serializer.serialize_content(Content::Map(fields))
        }
    }

    impl<'de, S: Deserialize<'de>> Deserialize<'de> for StoreSnapshot<S> {
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
            let content = deserializer.deserialize_content()?;
            let mut fields = match content {
                Content::Map(map) => map,
                other => return Err(serde::__private::expected_map::<D::Error>(&other)),
            };
            let shard_count = serde::__private::from_content::<usize, D::Error>(
                serde::__private::take_field(&mut fields, "shard_count")
                    .ok_or_else(|| serde::__private::missing_field::<D::Error>("shard_count"))?,
            )?;
            if shard_count == 0 {
                return Err(<D::Error as serde::de::Error>::custom(
                    "snapshot shard_count must be at least 1",
                ));
            }
            let entries = serde::__private::from_content::<_, D::Error>(
                serde::__private::take_field(&mut fields, "entries")
                    .ok_or_else(|| serde::__private::missing_field::<D::Error>("entries"))?,
            )?;
            Ok(StoreSnapshot {
                shard_count,
                entries,
            })
        }
    }
}
