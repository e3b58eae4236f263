//! The model registry: versioned CRC-framed checkpoints on disk, with
//! an atomically-updated `CURRENT` pointer.
//!
//! Zero-downtime model replacement needs a place where checkpoint
//! versions accumulate and exactly one is "what this process serves".
//! The registry is deliberately dumb storage — a directory:
//!
//! ```text
//! registry/
//!   v1.dotckpt      ← checkpoint format v1 (persist.rs framing)
//!   v2.dotckpt
//!   CURRENT         ← "2\n", written via temp-file + rename
//! ```
//!
//! Every mutation is crash-safe the same way checkpoints themselves
//! are ([`odt_obs::atomic_write`]): content lands under a temp name in the
//! same directory, is synced, and is renamed into place, so a torn write
//! can never leave a half-visible version or a `CURRENT` pointing at
//! garbage. Candidate files are
//! framing-validated (magic, version, declared length, CRC32) **before**
//! they're admitted into the registry; schema/shape validation happens
//! at [`Dot::load`] time, and the swap machinery on top adds shadow
//! scoring — the registry only guarantees "this file is an intact
//! checkpoint".

use crate::oracle::Dot;
use crate::persist::{read_validated_bytes, PersistError, CKPT_MAGIC};
use std::path::{Path, PathBuf};

/// File extension of registry checkpoint versions.
pub const REGISTRY_EXT: &str = "dotckpt";
/// Name of the current-version pointer file.
pub const CURRENT_FILE: &str = "CURRENT";

/// Why a registry operation failed.
#[derive(Debug)]
pub enum RegistryError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The candidate (or stored) checkpoint failed integrity or schema
    /// validation.
    Persist(PersistError),
    /// `CURRENT` exists but names a version with no checkpoint file.
    MissingVersion {
        /// The dangling version number.
        version: u64,
    },
    /// The registry has no `CURRENT` pointer yet.
    NoCurrent,
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "registry I/O error: {e}"),
            RegistryError::Persist(e) => write!(f, "registry checkpoint invalid: {e}"),
            RegistryError::MissingVersion { version } => {
                write!(f, "registry CURRENT points at missing version v{version}")
            }
            RegistryError::NoCurrent => write!(f, "registry has no CURRENT version"),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Io(e) => Some(e),
            RegistryError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RegistryError {
    fn from(e: std::io::Error) -> Self {
        RegistryError::Io(e)
    }
}

impl From<PersistError> for RegistryError {
    fn from(e: PersistError) -> Self {
        RegistryError::Persist(e)
    }
}

/// A checkpoint registry rooted at one directory.
#[derive(Clone, Debug)]
pub struct ModelRegistry {
    dir: PathBuf,
}

impl ModelRegistry {
    /// Open (creating if needed) the registry at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ModelRegistry, RegistryError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ModelRegistry { dir })
    }

    /// The registry directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of version `v`'s checkpoint file.
    pub fn version_path(&self, v: u64) -> PathBuf {
        self.dir.join(format!("v{v}.{REGISTRY_EXT}"))
    }

    /// All stored versions, ascending.
    pub fn versions(&self) -> Result<Vec<u64>, RegistryError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_suffix(&format!(".{REGISTRY_EXT}")) else {
                continue;
            };
            if let Some(v) = stem.strip_prefix('v').and_then(|s| s.parse::<u64>().ok()) {
                out.push(v);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// The version `CURRENT` points at, if any.
    pub fn current_version(&self) -> Result<Option<u64>, RegistryError> {
        match std::fs::read_to_string(self.dir.join(CURRENT_FILE)) {
            Ok(text) => Ok(text.trim().parse::<u64>().ok()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Framing-validate a candidate checkpoint file (magic, version,
    /// length, CRC32) without loading it. The cheap first gate of every
    /// swap: a corrupt file is refused here, before model construction.
    pub fn validate_file(&self, path: &Path) -> Result<(), RegistryError> {
        read_validated_bytes(path, CKPT_MAGIC)?;
        Ok(())
    }

    /// Save `model` as the next version and point `CURRENT` at it.
    /// Returns the new version number.
    pub fn publish(&self, model: &Dot) -> Result<u64, RegistryError> {
        let v = self.next_version()?;
        model.save(&self.version_path(v))?;
        self.set_current(v)?;
        Ok(v)
    }

    /// Admit an external checkpoint file as the next version and point
    /// `CURRENT` at it: framing-validate, then copy into the version slot
    /// through [`odt_obs::atomic_write`]. Returns the version.
    pub fn promote_file(&self, candidate: &Path) -> Result<u64, RegistryError> {
        self.validate_file(candidate)?;
        let v = self.next_version()?;
        odt_obs::atomic_write(&self.version_path(v), &std::fs::read(candidate)?)?;
        self.set_current(v)?;
        Ok(v)
    }

    /// Point `CURRENT` at an existing version (atomic temp + rename).
    pub fn set_current(&self, v: u64) -> Result<(), RegistryError> {
        if !self.version_path(v).exists() {
            return Err(RegistryError::MissingVersion { version: v });
        }
        odt_obs::atomic_write(&self.dir.join(CURRENT_FILE), format!("{v}\n").as_bytes())?;
        Ok(())
    }

    /// Load the `CURRENT` model (full integrity + shape validation).
    pub fn load_current(&self) -> Result<(u64, Dot), RegistryError> {
        let v = self.current_version()?.ok_or(RegistryError::NoCurrent)?;
        Ok((v, self.load_version(v)?))
    }

    /// Load one stored version.
    pub fn load_version(&self, v: u64) -> Result<Dot, RegistryError> {
        let path = self.version_path(v);
        if !path.exists() {
            return Err(RegistryError::MissingVersion { version: v });
        }
        Ok(Dot::load(&path)?)
    }

    fn next_version(&self) -> Result<u64, RegistryError> {
        Ok(self.versions()?.last().copied().unwrap_or(0) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::write_framed;

    fn temp_registry(tag: &str) -> ModelRegistry {
        let dir = std::env::temp_dir().join(format!("odt_registry_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ModelRegistry::open(dir).unwrap()
    }

    /// A structurally-valid framed file whose payload is arbitrary JSON
    /// (framing validation is schema-blind, so registry plumbing tests
    /// need no trained model).
    fn framed_file(dir: &Path, name: &str) -> PathBuf {
        let path = dir.join(name);
        write_framed(&path, CKPT_MAGIC, br#"{"k":[1,2,3]}"#).unwrap();
        path
    }

    #[test]
    fn empty_registry_has_no_versions_and_no_current() {
        let r = temp_registry("empty");
        assert_eq!(r.versions().unwrap(), Vec::<u64>::new());
        assert_eq!(r.current_version().unwrap(), None);
        assert!(matches!(r.load_current(), Err(RegistryError::NoCurrent)));
        let _ = std::fs::remove_dir_all(r.dir());
    }

    #[test]
    fn promote_file_validates_copies_and_advances_current() {
        let r = temp_registry("promote");
        let cand = framed_file(r.dir(), "candidate.json");
        let v1 = r.promote_file(&cand).unwrap();
        assert_eq!(v1, 1);
        assert_eq!(r.current_version().unwrap(), Some(1));
        assert!(r.version_path(1).exists());
        // A second promotion lands as v2 and CURRENT follows it.
        let v2 = r.promote_file(&cand).unwrap();
        assert_eq!(v2, 2);
        assert_eq!(r.current_version().unwrap(), Some(2));
        assert_eq!(r.versions().unwrap(), vec![1, 2]);
        let _ = std::fs::remove_dir_all(r.dir());
    }

    #[test]
    fn corrupt_candidates_are_refused_and_leave_no_trace() {
        let r = temp_registry("corrupt");
        let cand = framed_file(r.dir(), "candidate.json");
        let mut bytes = std::fs::read(&cand).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10; // flip a payload bit: CRC must catch it
        std::fs::write(&cand, &bytes).unwrap();
        match r.promote_file(&cand) {
            Err(RegistryError::Persist(PersistError::Corrupt { detail })) => {
                assert!(detail.contains("crc32"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(r.versions().unwrap(), Vec::<u64>::new());
        assert_eq!(r.current_version().unwrap(), None);
        let _ = std::fs::remove_dir_all(r.dir());
    }

    #[test]
    fn current_cannot_point_at_a_missing_version() {
        let r = temp_registry("dangling");
        assert!(matches!(
            r.set_current(7),
            Err(RegistryError::MissingVersion { version: 7 })
        ));
        let _ = std::fs::remove_dir_all(r.dir());
    }

    #[test]
    fn stray_files_do_not_count_as_versions() {
        let r = temp_registry("stray");
        framed_file(r.dir(), "notes.json");
        std::fs::write(r.dir().join("vX.dotckpt"), "junk").unwrap();
        std::fs::write(r.dir().join("v3.backup"), "junk").unwrap();
        let cand = framed_file(r.dir(), "candidate.json");
        r.promote_file(&cand).unwrap();
        assert_eq!(r.versions().unwrap(), vec![1]);
        let _ = std::fs::remove_dir_all(r.dir());
    }
}
