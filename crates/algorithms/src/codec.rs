//! Snapshot codec for the single-field lookup structures.
//!
//! These encoders serialize the *physical* state of each structure — hash
//! slot arrays verbatim, trie level arenas as raw packed words — rather
//! than a logical rule list. That buys two properties the durability
//! layer depends on:
//!
//! * **byte-identity**: encode → decode → encode is the identity on
//!   bytes, so the chaos suite can prove a restored runtime equals the
//!   pre-crash oracle by comparing images directly;
//! * **cold-start speed**: decoding is a linear copy of arenas, not a
//!   re-run of the build algorithm (no hashing, no trie insertion, no
//!   prefix expansion) — this is where the snapshot-vs-rebuild gap
//!   `repro -- coldstart` measures comes from.
//!
//! Derived state that is deterministic in the serialized state is *not*
//! written: a [`PartitionedTrie`]'s ancestor tables are recomputed by
//! [`PartitionedTrie::finalize`] after decode.
//!
//! Every decoder validates structure (tag ranges, arity, power-of-two
//! capacities, stride bounds) and returns named [`PersistError`]s on
//! hostile bytes instead of panicking.

use mtl_persist::{PersistError, Reader, Writer};

use crate::em::HashLut;
use crate::label::{Dictionary, Label};
use crate::partitioned::PartitionedTrie;
use crate::trie::{Level, Mbt, PackedEntry, StrideSchedule};
use std::collections::BTreeMap;
use std::hash::Hash;

/// Encodes a label as its raw `u32`.
pub fn encode_label(w: &mut Writer, label: Label) {
    w.put_u32(label.0);
}

/// Decodes a label.
///
/// # Errors
/// Propagates truncation.
pub fn decode_label(r: &mut Reader<'_>) -> Result<Label, PersistError> {
    Ok(Label(r.u32()?))
}

/// Encodes a dictionary: distinct values in label order, then the total
/// intern count (which includes repeats and is not derivable).
pub fn encode_dictionary<K, F>(w: &mut Writer, dict: &Dictionary<K>, mut enc: F)
where
    K: Eq + Hash + Clone,
    F: FnMut(&mut Writer, &K),
{
    w.put_usize(dict.len());
    for value in dict.values() {
        enc(w, value);
    }
    w.put_usize(dict.interned_total());
}

/// Decodes a dictionary, rebuilding the value → label map from the
/// canonical label-order value list.
///
/// # Errors
/// Truncation, or an intern total smaller than the distinct count.
pub fn decode_dictionary<K, F>(
    r: &mut Reader<'_>,
    mut dec: F,
) -> Result<Dictionary<K>, PersistError>
where
    K: Eq + Hash + Clone,
    F: FnMut(&mut Reader<'_>) -> Result<K, PersistError>,
{
    let len = r.seq_len(1)?;
    let mut values = Vec::with_capacity(len);
    for _ in 0..len {
        values.push(dec(r)?);
    }
    let interned_total = r.usize()?;
    if interned_total < values.len() {
        return Err(PersistError::Malformed {
            context: "dictionary",
            detail: format!("interned_total {interned_total} < distinct count {}", values.len()),
        });
    }
    Ok(Dictionary::from_parts(values, interned_total))
}

/// Encodes a hash LUT with its slot array verbatim.
pub fn encode_hash_lut(w: &mut Writer, lut: &HashLut) {
    w.put_u32(lut.key_bits());
    w.put_usize(lut.len());
    w.put_usize(lut.max_probes());
    w.put_usize(lut.capacity());
    for slot in lut.slots() {
        match slot {
            Some((key, label)) => {
                w.put_bool(true);
                w.put_u64(*key);
                encode_label(w, *label);
            }
            None => w.put_bool(false),
        }
    }
}

/// Decodes a hash LUT.
///
/// # Errors
/// Truncation, a non-power-of-two capacity, or an occupancy count that
/// disagrees with the slots actually present.
pub fn decode_hash_lut(r: &mut Reader<'_>) -> Result<HashLut, PersistError> {
    let key_bits = r.u32()?;
    if !(1..=64).contains(&key_bits) {
        return Err(PersistError::Malformed {
            context: "hash lut",
            detail: format!("key width {key_bits} outside 1..=64"),
        });
    }
    let len = r.usize()?;
    let max_probes = r.usize()?;
    let capacity = r.seq_len(1)?;
    if !capacity.is_power_of_two() {
        return Err(PersistError::Malformed {
            context: "hash lut",
            detail: format!("capacity {capacity} is not a power of two"),
        });
    }
    let mut slots = Vec::with_capacity(capacity);
    let mut occupied = 0usize;
    for _ in 0..capacity {
        if r.bool()? {
            let key = r.u64()?;
            let label = decode_label(r)?;
            slots.push(Some((key, label)));
            occupied += 1;
        } else {
            slots.push(None);
        }
    }
    if occupied != len {
        return Err(PersistError::Malformed {
            context: "hash lut",
            detail: format!("header says {len} entries, slots hold {occupied}"),
        });
    }
    Ok(HashLut::from_parts(key_bits, slots, len, max_probes))
}

/// Encodes a multi-bit trie: schedule, per-level entry arenas verbatim,
/// and the prefix source-of-truth map (already sorted — it's a BTreeMap).
pub fn encode_mbt(w: &mut Writer, mbt: &Mbt) {
    let strides = mbt.schedule.strides();
    w.put_usize(strides.len());
    for &s in strides {
        w.put_u32(s);
    }
    for level in &mbt.levels {
        w.put_usize(level.entries.len());
        for entry in &level.entries {
            w.put_u64(entry.raw());
        }
    }
    w.put_usize(mbt.prefixes.len());
    for (&(value, len), &label) in &mbt.prefixes {
        w.put_u64(value);
        w.put_u32(len);
        encode_label(w, label);
    }
}

/// Decodes a multi-bit trie.
///
/// # Errors
/// Truncation, an invalid stride schedule, or a level arena that is not
/// a whole number of blocks.
pub fn decode_mbt(r: &mut Reader<'_>) -> Result<Mbt, PersistError> {
    let level_count = r.seq_len(4)?;
    if level_count == 0 {
        return Err(PersistError::Malformed {
            context: "mbt",
            detail: "empty stride schedule".into(),
        });
    }
    let mut strides = Vec::with_capacity(level_count);
    for _ in 0..level_count {
        let s = r.u32()?;
        if !(1..=16).contains(&s) {
            return Err(PersistError::Malformed {
                context: "mbt",
                detail: format!("stride {s} outside 1..=16"),
            });
        }
        strides.push(s);
    }
    let schedule = StrideSchedule::new(strides.clone());
    let mut levels = Vec::with_capacity(level_count);
    for &stride in &strides {
        let entry_count = r.seq_len(8)?;
        let block = 1usize << stride;
        if !entry_count.is_multiple_of(block) {
            return Err(PersistError::Malformed {
                context: "mbt",
                detail: format!(
                    "level arena of {entry_count} entries is not whole {block}-entry blocks"
                ),
            });
        }
        let entries = r.u64_iter(entry_count)?.map(PackedEntry::from_raw).collect();
        levels.push(Level { stride, entries });
    }
    let prefix_count = r.seq_len(16)?;
    let mut prefixes = BTreeMap::new();
    for _ in 0..prefix_count {
        let value = r.u64()?;
        let len = r.u32()?;
        let label = decode_label(r)?;
        prefixes.insert((value, len), label);
    }
    Ok(Mbt { schedule, levels, prefixes })
}

/// Encodes a partitioned trie (without its derived ancestor tables).
pub fn encode_partitioned(w: &mut Writer, trie: &PartitionedTrie) {
    w.put_u32(trie.field_bits());
    w.put_u32(trie.partition_bits());
    w.put_usize(trie.partitions());
    for mbt in trie.tries() {
        encode_mbt(w, mbt);
    }
    for dict in trie.dictionaries() {
        encode_dictionary(w, dict, |w, &(value, len)| {
            w.put_u64(value);
            w.put_u32(len);
        });
    }
}

/// Decodes a partitioned trie and recomputes its ancestor tables.
///
/// # Errors
/// Truncation, partitions that do not tile the field, or a partition
/// arity mismatch.
pub fn decode_partitioned(r: &mut Reader<'_>) -> Result<PartitionedTrie, PersistError> {
    let field_bits = r.u32()?;
    let partition_bits = r.u32()?;
    let valid = partition_bits >= 1
        && field_bits >= partition_bits
        && field_bits.is_multiple_of(partition_bits);
    if !valid {
        return Err(PersistError::Malformed {
            context: "partitioned trie",
            detail: format!("{partition_bits}-bit partitions do not tile a {field_bits}-bit field"),
        });
    }
    let partitions = r.seq_len(1)?;
    if partitions != (field_bits / partition_bits) as usize {
        return Err(PersistError::Malformed {
            context: "partitioned trie",
            detail: format!("{partitions} partitions for a {field_bits}/{partition_bits} split"),
        });
    }
    let mut tries = Vec::with_capacity(partitions);
    for _ in 0..partitions {
        tries.push(decode_mbt(r)?);
    }
    let mut dicts = Vec::with_capacity(partitions);
    for _ in 0..partitions {
        dicts.push(decode_dictionary(r, |r| Ok((r.u64()?, r.u32()?)))?);
    }
    let mut trie = PartitionedTrie::from_parts(field_bits, partition_bits, tries, dicts);
    trie.finalize();
    Ok(trie)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T>(
        value: &T,
        enc: impl Fn(&mut Writer, &T),
        dec: impl Fn(&mut Reader<'_>) -> Result<T, PersistError>,
    ) -> (Vec<u8>, T) {
        let mut w = Writer::new();
        enc(&mut w, value);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "test");
        let back = dec(&mut r).expect("decodes");
        r.finish().expect("fully consumed");
        (bytes, back)
    }

    #[test]
    fn hash_lut_round_trips_byte_identically() {
        let mut lut = HashLut::with_capacity(16, 8);
        for (i, key) in [7u64, 1034, 99, 4, 65535].into_iter().enumerate() {
            lut.insert(key, Label(i as u32));
        }
        let (bytes, back) = roundtrip(&lut, encode_hash_lut, decode_hash_lut);
        assert_eq!(back.len(), lut.len());
        assert_eq!(back.lookup(1034), Some(Label(1)));
        assert_eq!(back.lookup(5), None);
        let mut w = Writer::new();
        encode_hash_lut(&mut w, &back);
        assert_eq!(w.into_bytes(), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn mbt_round_trips_byte_identically() {
        let mut mbt = Mbt::new(StrideSchedule::classic_16());
        for (i, (v, l)) in
            [(0x1200u64, 8u32), (0x1230, 12), (0, 0), (0xFFFF, 16)].into_iter().enumerate()
        {
            mbt.insert(v, l, Label(i as u32));
        }
        let (bytes, back) = roundtrip(&mbt, encode_mbt, decode_mbt);
        assert_eq!(back, mbt, "decoded trie is structurally equal");
        let mut w = Writer::new();
        encode_mbt(&mut w, &back);
        assert_eq!(w.into_bytes(), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn partitioned_trie_round_trips_and_refinalizes() {
        let mut trie = PartitionedTrie::new(32);
        trie.insert(0x0A00_0000, 8);
        trie.insert(0x0A0A_0000, 16);
        trie.insert(0x0A0A_0A00, 24);
        trie.finalize();
        let (bytes, mut back) = roundtrip(&trie, encode_partitioned, decode_partitioned);
        assert!(back.is_finalized(), "decode recomputes ancestor tables");
        assert_eq!(back.labels_of(0x0A0A_0000, 16), trie.labels_of(0x0A0A_0000, 16));
        // Ancestor expansion matches the original.
        assert_eq!(back.shadow_labels(0x0A0A_0A00, 24), trie.shadow_labels(0x0A0A_0A00, 24));
        back.finalize();
        let mut w = Writer::new();
        encode_partitioned(&mut w, &back);
        assert_eq!(w.into_bytes(), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn dictionary_preserves_intern_accounting() {
        let mut dict = Dictionary::new();
        for v in [5u64, 5, 9, 9, 9, 11] {
            dict.intern(v);
        }
        let (_, back) = roundtrip(
            &dict,
            |w, d| encode_dictionary(w, d, |w, &v| w.put_u64(v)),
            |r| decode_dictionary(r, |r| r.u64()),
        );
        assert_eq!(back.values(), dict.values());
        assert_eq!(back.interned_total(), 6);
        assert_eq!(back.duplicates_avoided(), 3);
        assert_eq!(back.get(&9), dict.get(&9));
    }

    #[test]
    fn corrupt_structures_decode_to_named_errors() {
        let mut w = Writer::new();
        let mut lut = HashLut::with_capacity(8, 2);
        lut.insert(1, Label(0));
        encode_hash_lut(&mut w, &lut);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut], "cut");
            assert!(decode_hash_lut(&mut r).is_err(), "cut at {cut}");
        }
        // A stride outside 1..=16 is malformed, not a panic.
        let mut w = Writer::new();
        w.put_usize(1);
        w.put_u32(40);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "mbt");
        assert!(matches!(decode_mbt(&mut r), Err(PersistError::Malformed { .. })));
    }
}
