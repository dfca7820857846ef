//! Warm model registry for the serving daemon.
//!
//! Each `lisa-model v1` artifact is imported once at startup and shared
//! read-only behind an `Arc` — [`crate::Lisa`]'s inference and mapping
//! entry points take `&self`, so one resident model serves any number of
//! concurrent requests without cloning the networks. Import also freezes
//! the networks into compiled plans, so every label prediction a
//! resident model serves is tape-free from the first request.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::{Lisa, LisaConfig, ModelImportError};

/// Trained models keyed by the accelerator name they were trained for.
///
/// Ordered storage (DET001): the registry's key iteration feeds
/// [`ModelRegistry::accelerators`], which reaches daemon output, so the
/// map must not depend on per-process hash seeding.
#[derive(Debug, Default, Clone)]
pub struct ModelRegistry {
    models: BTreeMap<String, Arc<Lisa>>,
}

/// Why loading a model into the registry failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum RegistryError {
    /// Reading a file or directory failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A model file failed to import.
    Import {
        /// The offending file.
        path: PathBuf,
        /// The underlying error.
        source: ModelImportError,
    },
    /// Two files provide a model for the same accelerator.
    Duplicate {
        /// The contested accelerator name.
        accelerator: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io { path, source } => {
                write!(f, "reading {}: {source}", path.display())
            }
            RegistryError::Import { path, source } => {
                write!(f, "importing {}: {source}", path.display())
            }
            RegistryError::Duplicate { accelerator } => {
                write!(f, "duplicate model for accelerator `{accelerator}`")
            }
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Io { source, .. } => Some(source),
            RegistryError::Import { source, .. } => Some(source),
            RegistryError::Duplicate { .. } => None,
        }
    }
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Registers an already-constructed model under its accelerator name.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Duplicate`] when the accelerator already has a model.
    pub fn insert(&mut self, lisa: Lisa) -> Result<(), RegistryError> {
        let name = lisa.accelerator_name().to_string();
        if self.models.contains_key(&name) {
            return Err(RegistryError::Duplicate { accelerator: name });
        }
        self.models.insert(name, Arc::new(lisa));
        Ok(())
    }

    /// Imports one `lisa-model v1` file. The config supplies the
    /// inference-time annealer parameters (it is not persisted with the
    /// weights).
    ///
    /// # Errors
    ///
    /// I/O, import, and duplicate failures, each naming the file.
    pub fn load_file(&mut self, path: &Path, config: &LisaConfig) -> Result<(), RegistryError> {
        let text = fs::read_to_string(path).map_err(|source| RegistryError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let lisa = Lisa::import_model(config, &text).map_err(|source| RegistryError::Import {
            path: path.to_path_buf(),
            source,
        })?;
        self.insert(lisa)
    }

    /// Imports every `*.model` / `*.lisa-model` file in a directory, in
    /// filename order (deterministic load order ⇒ deterministic duplicate
    /// reporting).
    ///
    /// # Errors
    ///
    /// Propagates the first file that fails.
    pub fn load_dir(&mut self, dir: &Path, config: &LisaConfig) -> Result<usize, RegistryError> {
        let entries = fs::read_dir(dir).map_err(|source| RegistryError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                matches!(
                    p.extension().and_then(|e| e.to_str()),
                    Some("model" | "lisa-model")
                )
            })
            .collect();
        paths.sort();
        for path in &paths {
            self.load_file(path, config)?;
        }
        Ok(paths.len())
    }

    /// The model trained for `accelerator`, if resident.
    pub fn get(&self, accelerator: &str) -> Option<Arc<Lisa>> {
        self.models.get(accelerator).cloned()
    }

    /// Accelerator names with a resident model, sorted (the `BTreeMap`
    /// already iterates in key order).
    pub fn accelerators(&self) -> Vec<&str> {
        self.models.keys().map(String::as_str).collect()
    }

    /// Number of resident models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether no model is resident.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_arch::Accelerator;

    fn tiny_model() -> Lisa {
        let acc = Accelerator::cgra("3x3", 3, 3);
        let config = LisaConfig {
            training_dfgs: 4,
            ..LisaConfig::fast()
        };
        Lisa::train_for(&acc, &config).unwrap()
    }

    #[test]
    fn file_roundtrip_and_duplicate_detection() {
        let model = tiny_model();
        let dir = std::env::temp_dir().join("lisa_registry_test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("a.model"), model.export_model()).unwrap();
        fs::write(dir.join("ignored.txt"), "not a model").unwrap();

        let mut reg = ModelRegistry::new();
        let loaded = reg.load_dir(&dir, &LisaConfig::fast()).unwrap();
        assert_eq!(loaded, 1);
        assert_eq!(reg.accelerators(), ["3x3"]);
        let resident = reg.get("3x3").expect("model resident");
        assert_eq!(resident.accelerator_name(), "3x3");
        assert!(reg.get("4x4").is_none());

        let err = reg.insert(model).unwrap_err();
        assert!(matches!(err, RegistryError::Duplicate { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_shares_one_model_across_clones() {
        let mut reg = ModelRegistry::new();
        reg.insert(tiny_model()).unwrap();
        let a = reg.get("3x3").unwrap();
        let b = reg.get("3x3").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "get must share, not clone");
    }
}
