//! Persistent, content-addressed scenario result cache.
//!
//! A farm sweep is a pure function: `(canonical spec JSON, effective
//! seed, kernel/model semantics)` fully determines the deterministic
//! outcome payload. This module exploits that to make sweeps
//! *incremental* — rerunning a sweep with a `--cache-dir` skips every
//! point whose inputs are unchanged and replays its recorded outcome
//! instead, producing a **byte-identical** results document in a
//! fraction of the time.
//!
//! ## Keying
//!
//! [`ScenarioCache::key_for`] hashes, with the dependency-free 128-bit
//! [`Hash128`] mixer:
//!
//! * the rendered [`ScenarioSpec::to_canonical_json`] bytes **with the
//!   effective per-point seed already applied** — so two points of the
//!   same sweep never collide, and a spec edit of any serialized knob
//!   changes the key;
//! * a *build salt*: the crate version plus
//!   [`sldl_sim::KERNEL_SCHEMA_REV`], so entries written by an older
//!   kernel or metric definition self-invalidate instead of silently
//!   resurfacing.
//!
//! ## Storage
//!
//! One file per entry, `<dir>/<032x-key>.json`, schema
//! `rtos-sld-cache/1`, carrying the key, a payload hash and the
//! outcome's deterministic JSON. Writes go through a temporary file in
//! the same directory followed by an atomic rename, so a cache shared
//! by concurrent sweeps never yields torn reads. Lookups re-verify the
//! schema, key and payload hash; any mismatch (truncation, corruption,
//! hand-editing) degrades to a miss — the cache can make a sweep
//! faster, never wrong.
//!
//! Degraded points (panics, watchdog overtime) are **never** cached:
//! only the insert path for completed outcomes exists, and even those
//! are re-verified to round-trip byte-identically before being written.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;
use crate::scenario::{ScenarioOutcome, ScenarioSpec};

/// Schema identifier of one on-disk cache entry.
pub const CACHE_SCHEMA: &str = "rtos-sld-cache/1";

/// A 128-bit content hash (two independently mixed 64-bit lanes),
/// rendered as 32 hex digits. Hand-rolled on the SplitMix64 finalizer so
/// the workspace stays dependency-free; not cryptographic, but with two
/// independent lanes a collision between the handful of specs a
/// repository ever sweeps is vanishingly unlikely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hash128 {
    hi: u64,
    lo: u64,
}

impl Hash128 {
    /// The canonical 32-hex-digit rendering (also the entry file stem).
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses the [`to_hex`](Self::to_hex) rendering; `None` unless `hex`
    /// is exactly 32 lowercase hex digits.
    #[must_use]
    pub fn from_hex(hex: &str) -> Option<Hash128> {
        if hex.len() != 32 || !hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return None;
        }
        Some(Hash128 {
            hi: u64::from_str_radix(&hex[..16], 16).ok()?,
            lo: u64::from_str_radix(&hex[16..], 16).ok()?,
        })
    }
}

/// SplitMix64 finalizer: the avalanche core used for both lanes.
const fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Incremental two-lane hasher over arbitrary byte streams. The stream
/// is chunked into 8-byte little-endian words with a carry buffer
/// across `update` calls, so splitting the same bytes over any number
/// of calls produces the same hash as one shot.
#[derive(Debug, Clone)]
pub struct Hasher128 {
    hi: u64,
    lo: u64,
    buf: [u8; 8],
    buf_len: usize,
    len: u64,
}

impl Hasher128 {
    /// A fresh hasher (fixed distinct lane seeds).
    #[must_use]
    pub fn new() -> Self {
        Hasher128 {
            hi: 0x9e37_79b9_7f4a_7c15,
            lo: 0x517c_c1b7_2722_0a95,
            buf: [0; 8],
            buf_len: 0,
            len: 0,
        }
    }

    fn fold(&mut self, word: u64) {
        self.hi = mix(self.hi ^ word);
        self.lo = mix(self
            .lo
            .wrapping_add(word)
            .wrapping_add(0x2545_f491_4f6c_dd1d));
    }

    /// Folds `bytes` into both lanes.
    pub fn update(&mut self, bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        let mut rest = bytes;
        if self.buf_len > 0 {
            let take = rest.len().min(8 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 8 {
                return;
            }
            let word = u64::from_le_bytes(self.buf);
            self.fold(word);
            self.buf_len = 0;
        }
        let mut chunks = rest.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
        let tail = chunks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Folds a `u64` (little-endian) into the stream.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Finalizes both lanes: the trailing partial word is zero-padded,
    /// then the total length is mixed in so that padding cannot alias a
    /// longer input (`"ab"` vs `"ab\0"`).
    #[must_use]
    pub fn finish(&self) -> Hash128 {
        let mut h = self.clone();
        if h.buf_len > 0 {
            let mut word = [0u8; 8];
            word[..h.buf_len].copy_from_slice(&h.buf[..h.buf_len]);
            h.fold(u64::from_le_bytes(word));
        }
        Hash128 {
            hi: mix(h.hi ^ h.len),
            lo: mix(h.lo ^ h.len.rotate_left(32)),
        }
    }
}

impl Default for Hasher128 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot convenience: hash a byte slice.
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> Hash128 {
    let mut h = Hasher128::new();
    h.update(bytes);
    h.finish()
}

/// Hit/miss/corruption counters of one [`ScenarioCache`]. Host-dependent
/// observability only — reported on stdout, never part of the
/// deterministic results JSON.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    inserts: AtomicU64,
}

impl CacheStats {
    /// Lookups answered from disk.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to a fresh simulation (includes
    /// corrupt entries, which are also counted separately).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries that existed on disk but failed verification
    /// (truncated, hand-edited, wrong schema/key/payload hash).
    #[must_use]
    pub fn corrupt(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// Entries written this run.
    #[must_use]
    pub fn inserts(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }
}

/// A directory-backed, content-addressed cache of completed
/// [`ScenarioOutcome`]s, safe to share across worker threads and across
/// concurrent processes.
#[derive(Debug)]
pub struct ScenarioCache {
    dir: PathBuf,
    salt: String,
    stats: CacheStats,
}

impl ScenarioCache {
    /// Opens (creating if needed) the cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error message if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cache: cannot create {}: {e}", dir.display()))?;
        Ok(ScenarioCache {
            dir,
            salt: format!(
                "{}|{}",
                env!("CARGO_PKG_VERSION"),
                sldl_sim::KERNEL_SCHEMA_REV
            ),
            stats: CacheStats::default(),
        })
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// This run's counters.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Keys this cache's entries under `runner` as well, so outcomes of
    /// a point runner other than [`ScenarioSpec::run`] never answer a
    /// plain run of the same spec, nor the reverse.
    #[must_use]
    pub fn for_runner(mut self, runner: &str) -> Self {
        self.salt = format!("{}|{runner}", self.salt);
        self
    }

    /// Overrides the build salt — test hook for exercising
    /// kernel-revision invalidation without rebuilding the crate.
    pub fn set_salt(&mut self, salt: impl Into<String>) {
        self.salt = salt.into();
    }

    /// The content key of `spec` run under `seed` (the farm's effective
    /// per-point seed). The seed is applied to the spec *before*
    /// rendering, so the key covers exactly what
    /// [`ScenarioSpec::run_seeded`] executes.
    #[must_use]
    pub fn key_for(&self, spec: &ScenarioSpec, seed: u64) -> Hash128 {
        let rendered = spec.clone().seeded(seed).to_canonical_json().render();
        let mut h = Hasher128::new();
        h.update(self.salt.as_bytes());
        h.update_u64(seed);
        h.update(rendered.as_bytes());
        h.finish()
    }

    fn entry_path(&self, key: Hash128) -> PathBuf {
        self.dir.join(format!("{}.json", key.to_hex()))
    }

    /// Looks up the outcome recorded for `key`. Any verification failure
    /// — unreadable file, parse error, wrong schema/key, payload-hash
    /// mismatch, undecodable outcome — degrades to `None` (a miss) and
    /// bumps the corruption counter when a file was present but bad.
    #[must_use]
    pub fn lookup(&self, key: Hash128) -> Option<ScenarioOutcome> {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_entry(&text, key) {
            Ok(o) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(o)
            }
            Err(_) => {
                self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Records `outcome` under `key` — atomically (tmp + rename), and
    /// only if the outcome's JSON round-trips byte-identically through
    /// [`ScenarioOutcome::from_json`]; otherwise a later warm run could
    /// produce a document that differs from the cold one, and skipping
    /// the insert (a permanent miss) is strictly safer.
    pub fn insert(&self, key: Hash128, outcome: &ScenarioOutcome) {
        let payload = outcome.to_json();
        let rendered = payload.render();
        let round_trips = ScenarioOutcome::from_json(&payload)
            .is_ok_and(|back| back.to_json().render() == rendered);
        if !round_trips {
            return;
        }
        let entry = Json::obj([
            ("schema", Json::str(CACHE_SCHEMA)),
            ("key", Json::str(key.to_hex())),
            (
                "payload_hash",
                Json::str(hash_bytes(rendered.as_bytes()).to_hex()),
            ),
            ("point", payload),
        ]);
        let path = self.entry_path(key);
        let tmp = self
            .dir
            .join(format!(".{}.{}.tmp", key.to_hex(), std::process::id()));
        if entry.write_to(&tmp).is_ok() && std::fs::rename(&tmp, &path).is_ok() {
            self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Convenience: [`key_for`](Self::key_for) + [`lookup`](Self::lookup).
    #[must_use]
    pub fn lookup_spec(&self, spec: &ScenarioSpec, seed: u64) -> Option<ScenarioOutcome> {
        self.lookup(self.key_for(spec, seed))
    }

    /// Convenience: [`key_for`](Self::key_for) + [`insert`](Self::insert).
    pub fn insert_spec(&self, spec: &ScenarioSpec, seed: u64, outcome: &ScenarioOutcome) {
        self.insert(self.key_for(spec, seed), outcome);
    }

    /// One-line, greppable stdout summary (`cache: hits=… misses=…
    /// corrupt=… inserts=… dir=…`).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "cache: hits={} misses={} corrupt={} inserts={} dir={}",
            self.stats.hits(),
            self.stats.misses(),
            self.stats.corrupt(),
            self.stats.inserts(),
            self.dir.display()
        )
    }
}

/// Parses and verifies one entry file body against the expected key:
/// the schema, the key, the payload hash and the outcome itself. This is
/// the only reader of `rtos-sld-cache/1`; [`ScenarioCache::lookup`] and
/// `trace_lint` both call it.
///
/// # Errors
///
/// Returns a message naming the first check that failed.
pub fn decode_entry(text: &str, key: Hash128) -> Result<ScenarioOutcome, String> {
    let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(CACHE_SCHEMA) {
        return Err(format!("schema is not {CACHE_SCHEMA}"));
    }
    if doc.get("key").and_then(Json::as_str) != Some(key.to_hex().as_str()) {
        return Err(format!("key is not {}", key.to_hex()));
    }
    let point = doc.get("point").ok_or("no cached `point`")?;
    let rendered = point.render();
    let payload_hash = doc.get("payload_hash").and_then(Json::as_str);
    if payload_hash != Some(hash_bytes(rendered.as_bytes()).to_hex().as_str()) {
        return Err("payload hash does not match the cached point".into());
    }
    ScenarioOutcome::from_json(point)
}

/// A no-allocation view of cache state for bins that only need to know
/// whether every point came from the cache (CI's warm-run assertion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOutcomeCounts {
    /// Points answered from the cache.
    pub hits: u64,
    /// Points that required a fresh simulation.
    pub misses: u64,
}

impl ScenarioCache {
    /// Snapshot of the hit/miss split.
    #[must_use]
    pub fn counts(&self) -> CacheOutcomeCounts {
        CacheOutcomeCounts {
            hits: self.stats.hits(),
            misses: self.stats.misses(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_framing_independent() {
        let a = hash_bytes(b"hello world");
        assert_eq!(a, hash_bytes(b"hello world"));
        assert_ne!(a, hash_bytes(b"hello worle"));
        let mut h = Hasher128::new();
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finish(), a);
        // Zero-padding of the trailing chunk must not alias longer input.
        assert_ne!(hash_bytes(b"ab"), hash_bytes(b"ab\0"));
    }

    #[test]
    fn hex_rendering_is_32_digits() {
        let h = hash_bytes(b"x").to_hex();
        assert_eq!(h.len(), 32);
        assert!(h.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(Hash128::from_hex(&h), Some(hash_bytes(b"x")));
        assert_eq!(Hash128::from_hex("abc"), None);
    }
}
