//! Two-tier content-addressed response store.
//!
//! Keys are the engine's response keys (FNV-1a 64 over the canonical
//! request text, the resident model's digest, and
//! [`crate::MAPPER_FORMAT`]); values are complete
//! `lisa-response v1` bodies. Tier one is a bounded in-memory LRU map;
//! tier two is an optional on-disk directory with one
//! `<key>.lisa-response` file per entry, written via a temp file and an
//! atomic rename so a killed daemon never leaves a torn response. A disk
//! hit is promoted into the memory tier.
//!
//! Soundness rests on the compiler's determinism: equal keys imply equal
//! request semantics imply byte-identical responses, so a cached body —
//! from either tier, in any later daemon process — is exactly what a
//! fresh computation would produce.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::lock_unpoisoned;

use crate::protocol::RESPONSE_HEADER;

/// Which tier answered a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// The in-memory LRU.
    Memory,
    /// The on-disk directory.
    Disk,
}

/// The two-tier store. Cheap to share behind an `Arc`; all mutation is
/// internal.
#[derive(Debug)]
pub struct ResultCache {
    memory: Mutex<MemoryTier>,
    disk: Option<PathBuf>,
}

#[derive(Debug)]
struct MemoryTier {
    capacity: usize,
    entries: HashMap<u64, Arc<String>>,
    /// Recency order, least-recent first. Linear maintenance is fine at
    /// serving-cache sizes (hundreds to low thousands of entries).
    order: Vec<u64>,
}

impl MemoryTier {
    fn touch(&mut self, key: u64) {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
        }
        self.order.push(key);
    }

    fn get(&mut self, key: u64) -> Option<Arc<String>> {
        let body = self.entries.get(&key).cloned()?;
        self.touch(key);
        Some(body)
    }

    fn put(&mut self, key: u64, body: Arc<String>) {
        if self.capacity == 0 {
            return;
        }
        self.entries.insert(key, body);
        self.touch(key);
        while self.entries.len() > self.capacity {
            let evicted = self.order.remove(0);
            self.entries.remove(&evicted);
        }
    }
}

impl ResultCache {
    /// Builds the cache. `mem_capacity` of zero disables the memory tier;
    /// `disk` of `None` disables the disk tier. The disk directory is
    /// created if missing.
    ///
    /// # Errors
    ///
    /// Propagates directory creation failures.
    pub fn new(mem_capacity: usize, disk: Option<PathBuf>) -> io::Result<Self> {
        if let Some(dir) = &disk {
            fs::create_dir_all(dir)?;
        }
        Ok(ResultCache {
            memory: Mutex::new(MemoryTier {
                capacity: mem_capacity,
                entries: HashMap::new(),
                order: Vec::new(),
            }),
            disk,
        })
    }

    /// Probes both tiers. A disk hit is promoted to memory.
    pub fn get(&self, key: u64) -> Option<(Arc<String>, CacheTier)> {
        if let Some(body) = lock_unpoisoned(&self.memory).get(key) {
            return Some((body, CacheTier::Memory));
        }
        let dir = self.disk.as_deref()?;
        let body = match fs::read_to_string(entry_path(dir, key)) {
            Ok(body) => body,
            Err(_) => return None,
        };
        // A foreign or torn file under our key must not be served. Torn
        // files cannot happen through our own tmp+rename writes, but the
        // directory is user-visible.
        if !body.starts_with(RESPONSE_HEADER) {
            return None;
        }
        let body = Arc::new(body);
        lock_unpoisoned(&self.memory).put(key, body.clone());
        Some((body, CacheTier::Disk))
    }

    /// Stores a response body under its key in both tiers. Disk write
    /// failures are reported but non-fatal to the caller's response path.
    ///
    /// # Errors
    ///
    /// Propagates disk-tier write failures (the memory tier cannot fail).
    pub fn put(&self, key: u64, body: Arc<String>) -> io::Result<()> {
        lock_unpoisoned(&self.memory).put(key, body.clone());
        if let Some(dir) = &self.disk {
            let target = entry_path(dir, key);
            let tmp = target.with_extension("tmp");
            fs::write(&tmp, body.as_bytes())?;
            fs::rename(&tmp, &target)?;
        }
        Ok(())
    }

    /// Number of entries resident in the memory tier.
    pub fn memory_len(&self) -> usize {
        lock_unpoisoned(&self.memory).entries.len()
    }
}

fn entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.lisa-response"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(text: &str) -> Arc<String> {
        Arc::new(format!("{RESPONSE_HEADER}\nstatus ok\n{text}\n"))
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ResultCache::new(2, None).unwrap();
        cache.put(1, body("one")).unwrap();
        cache.put(2, body("two")).unwrap();
        assert!(cache.get(1).is_some()); // 2 is now least recent
        cache.put(3, body("three")).unwrap();
        assert!(cache.get(2).is_none(), "LRU entry should be evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.memory_len(), 2);
    }

    #[test]
    fn disk_tier_survives_a_new_cache_instance() {
        let dir = std::env::temp_dir().join("lisa_serve_cache_restart");
        let _ = fs::remove_dir_all(&dir);
        let first = ResultCache::new(4, Some(dir.clone())).unwrap();
        first.put(42, body("answer")).unwrap();
        drop(first);

        // A fresh instance (a restarted daemon) hits the disk tier and
        // returns byte-identical content, then serves memory hits.
        let second = ResultCache::new(4, Some(dir.clone())).unwrap();
        let (hit, tier) = second.get(42).expect("disk hit");
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(*hit, *body("answer"));
        let (again, tier) = second.get(42).expect("promoted");
        assert_eq!(tier, CacheTier::Memory);
        assert_eq!(again, hit);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_disk_content_is_not_served() {
        let dir = std::env::temp_dir().join("lisa_serve_cache_foreign");
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::new(4, Some(dir.clone())).unwrap();
        fs::write(dir.join("000000000000002a.lisa-response"), "not a response").unwrap();
        assert!(cache.get(42).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_capacity_disables_the_memory_tier() {
        let cache = ResultCache::new(0, None).unwrap();
        cache.put(1, body("x")).unwrap();
        assert!(cache.get(1).is_none());
        assert_eq!(cache.memory_len(), 0);
    }

    #[test]
    fn no_tmp_files_remain_after_puts() {
        let dir = std::env::temp_dir().join("lisa_serve_cache_tmp");
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::new(4, Some(dir.clone())).unwrap();
        for key in 0..8u64 {
            cache.put(key, body("v")).unwrap();
        }
        let leftovers = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .count();
        assert_eq!(leftovers, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
