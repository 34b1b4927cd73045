//! Versioned adapter registry over a [`Store`].
//!
//! Each publish commits the tenant's PACCKPT3 adapter bytes with a
//! 16-byte `PACT` meta record `(tenant, version)`. Versions are 1-based
//! and monotonic per tenant; the store retains every commit, so any
//! historical version stays fetchable (`committed(seq)`), and the whole
//! tenant index is rebuilt by scanning the log — no side index to lose.

use std::collections::BTreeMap;
use std::fmt;

use pac_peft::{CheckpointError, TrainCheckpoint};
use pac_store::{Store, StoreError};
use pac_telemetry::counter_inc;

/// Magic prefix of a registry meta record.
const META_MAGIC: &[u8; 4] = b"PACT";

/// Encodes the `(tenant, version)` tag committed alongside adapter bytes.
fn encode_meta(tenant: u64, version: u32) -> Vec<u8> {
    let mut meta = Vec::with_capacity(16);
    meta.extend_from_slice(META_MAGIC);
    meta.extend_from_slice(&tenant.to_le_bytes());
    meta.extend_from_slice(&version.to_le_bytes());
    meta
}

/// Decodes a registry meta record; `None` for foreign commits (the store
/// may be shared with non-registry snapshots, which the index skips).
fn decode_meta(meta: &[u8]) -> Option<(u64, u32)> {
    if meta.len() != 16 || &meta[..4] != META_MAGIC {
        return None;
    }
    let tenant = u64::from_le_bytes(meta[4..12].try_into().ok()?);
    let version = u32::from_le_bytes(meta[12..16].try_into().ok()?);
    Some((tenant, version))
}

/// Registry failure: the store or the checkpoint codec underneath.
#[derive(Debug)]
pub enum RegistryError {
    /// The backing [`Store`] failed.
    Store(StoreError),
    /// Adapter bytes failed to encode or decode as PACCKPT3.
    Checkpoint(CheckpointError),
    /// A fetched commit's meta did not match the index (corrupt index
    /// rebuild or a store that reordered history — never expected).
    Inconsistent(&'static str),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Store(e) => write!(f, "registry store: {e}"),
            RegistryError::Checkpoint(e) => write!(f, "registry checkpoint: {e}"),
            RegistryError::Inconsistent(what) => write!(f, "registry inconsistent: {what}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<StoreError> for RegistryError {
    fn from(e: StoreError) -> Self {
        RegistryError::Store(e)
    }
}

impl From<CheckpointError> for RegistryError {
    fn from(e: CheckpointError) -> Self {
        RegistryError::Checkpoint(e)
    }
}

/// The tenant → adapter-version catalog over a [`Store`].
#[derive(Debug)]
pub struct AdapterRegistry<S: Store> {
    store: S,
    /// tenant → [(version, store seq)], versions ascending.
    index: BTreeMap<u64, Vec<(u32, u64)>>,
}

impl<S: Store> AdapterRegistry<S> {
    /// Opens a registry over `store`, rebuilding the tenant index by
    /// scanning every committed snapshot's meta record. Commits without a
    /// `PACT` meta are skipped, so the registry can share a store with
    /// other snapshot traffic.
    pub fn open(store: S) -> Result<Self, RegistryError> {
        let mut index: BTreeMap<u64, Vec<(u32, u64)>> = BTreeMap::new();
        for seq in 0..store.commits() {
            if let Some(c) = store.committed(seq)? {
                if let Some((tenant, version)) = decode_meta(&c.meta) {
                    index.entry(tenant).or_default().push((version, seq));
                }
            }
        }
        for versions in index.values_mut() {
            versions.sort_unstable();
        }
        Ok(AdapterRegistry { store, index })
    }

    /// Publishes `adapter` as the tenant's next version; returns it
    /// (1-based): [`TrainCheckpoint::to_bytes`] + [`Self::publish_bytes`].
    pub fn publish(
        &mut self,
        tenant: u64,
        adapter: &TrainCheckpoint,
    ) -> Result<u32, RegistryError> {
        self.publish_bytes(tenant, &adapter.to_bytes()?)
    }

    /// Publishes already-serialized PACCKPT3 adapter bytes as the
    /// tenant's next version; returns it (1-based). The commit is atomic
    /// in the store; the index entry is added only after the commit
    /// succeeds. The serve tick encodes on the rank that ran the burst
    /// and calls this from its sequential commit phase, so only the store
    /// commit holds the tick up.
    pub fn publish_bytes(&mut self, tenant: u64, payload: &[u8]) -> Result<u32, RegistryError> {
        let version = self.latest_version(tenant).map_or(1, |v| v + 1);
        let seq = self.store.commit(payload, &encode_meta(tenant, version))?;
        self.index.entry(tenant).or_default().push((version, seq));
        counter_inc("serve.registry.publishes");
        Ok(version)
    }

    /// The tenant's newest published version, if any.
    pub fn latest_version(&self, tenant: u64) -> Option<u32> {
        self.index
            .get(&tenant)
            .and_then(|v| v.last())
            .map(|&(version, _)| version)
    }

    /// Fetches and decodes one historical adapter version.
    pub fn fetch(
        &self,
        tenant: u64,
        version: u32,
    ) -> Result<Option<TrainCheckpoint>, RegistryError> {
        let seq = match self
            .index
            .get(&tenant)
            .and_then(|v| v.iter().find(|&&(ver, _)| ver == version))
        {
            Some(&(_, seq)) => seq,
            None => return Ok(None),
        };
        let committed = self
            .store
            .committed(seq)?
            .ok_or(RegistryError::Inconsistent(
                "indexed seq missing from store",
            ))?;
        if decode_meta(&committed.meta) != Some((tenant, version)) {
            return Err(RegistryError::Inconsistent("meta mismatch at indexed seq"));
        }
        Ok(Some(TrainCheckpoint::from_bytes(&committed.payload)?))
    }

    /// Fetches the tenant's newest adapter, if any.
    pub fn fetch_latest(
        &self,
        tenant: u64,
    ) -> Result<Option<(u32, TrainCheckpoint)>, RegistryError> {
        match self.latest_version(tenant) {
            Some(version) => Ok(self.fetch(tenant, version)?.map(|ck| (version, ck))),
            None => Ok(None),
        }
    }

    /// Number of tenants with at least one published adapter.
    pub fn tenants(&self) -> usize {
        self.index.len()
    }

    /// Number of versions published for `tenant`.
    pub fn versions(&self, tenant: u64) -> usize {
        self.index.get(&tenant).map_or(0, Vec::len)
    }

    /// The backing store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Consumes the registry, returning the backing store (e.g. to reopen
    /// and prove the index is log-derived).
    pub fn into_store(self) -> S {
        self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_model::{EncDecModel, ModelConfig};
    use pac_peft::ParallelTuner;
    use pac_store::MemStore;
    use pac_tensor::rng::seeded;

    fn tuner(seed: u64) -> ParallelTuner {
        let cfg = ModelConfig::micro(2, 1, 16, 2);
        let model = EncDecModel::new(&cfg, 2, &mut seeded(seed));
        ParallelTuner::new(model, 4, 2, &mut seeded(seed + 1))
    }

    #[test]
    fn versions_are_monotonic_per_tenant_and_survive_reopen() {
        let t = tuner(11);
        let ck = pac_peft::TrainCheckpoint::capture(&t, 0, 3, 3);
        let mut reg = AdapterRegistry::open(MemStore::new()).unwrap();
        assert_eq!(reg.publish(7, &ck).unwrap(), 1);
        assert_eq!(reg.publish(7, &ck).unwrap(), 2);
        assert_eq!(reg.publish(9, &ck).unwrap(), 1);
        assert_eq!(reg.latest_version(7), Some(2));
        assert_eq!(reg.versions(7), 2);
        assert_eq!(reg.tenants(), 2);

        // The index is pure log: reopen over the same store rebuilds it.
        let reopened = AdapterRegistry::open(reg.into_store()).unwrap();
        assert_eq!(reopened.latest_version(7), Some(2));
        assert_eq!(reopened.latest_version(9), Some(1));
        let (v, fetched) = reopened.fetch_latest(7).unwrap().unwrap();
        assert_eq!(v, 2);
        assert_eq!(fetched.to_bytes().unwrap(), ck.to_bytes().unwrap());
        // Historical versions stay addressable.
        assert!(reopened.fetch(7, 1).unwrap().is_some());
        assert!(reopened.fetch(7, 3).unwrap().is_none());
        assert!(reopened.fetch(8, 1).unwrap().is_none());
    }

    #[test]
    fn meta_codec_rejects_foreign_records() {
        assert_eq!(decode_meta(&encode_meta(42, 3)), Some((42, 3)));
        assert_eq!(decode_meta(b"PACX0000000000ab"), None);
        assert_eq!(decode_meta(b"short"), None);
    }
}
