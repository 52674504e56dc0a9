//! OCI images and a node-local image store.
//!
//! Images are sets of layer files plus a config (entrypoint, env). Layer
//! files live once in the simulated VFS; containers *reference* them
//! (overlayfs-style) rather than copying, so image bytes are naturally
//! shared across every container of the same image — on the real systems
//! in the paper this is the containerd snapshotter doing the same job.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytelite::Bytes;
use simkernel::vfs::FileContent;
use simkernel::{FileId, Kernel, KernelError, KernelResult};

/// Image configuration (the OCI image-spec `config` object subset).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ImageConfig {
    pub entrypoint: Vec<String>,
    pub cmd: Vec<String>,
    pub env: Vec<String>,
    pub working_dir: String,
    /// Annotations propagated to container specs (e.g. the Wasm variant).
    pub annotations: BTreeMap<String, String>,
}

/// One layer file inside an image.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerFile {
    /// Path inside the container rootfs (e.g. "/app/main.wasm").
    pub guest_path: String,
    /// Backing file in the VFS.
    pub file: FileId,
    pub size: u64,
}

/// The rootfs view of an image, by guest path: a function of the image
/// alone, so it is built once where the image is registered and every
/// bundle of the image holds the same allocation.
#[derive(Debug, Default, PartialEq)]
pub struct Rootfs {
    /// Guest rootfs path → backing layer file.
    pub files: BTreeMap<String, FileId>,
    /// Guest rootfs path → backing VFS path (for WASI preopens).
    pub host_paths: BTreeMap<String, String>,
}

/// A stored image.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    pub reference: String,
    pub config: ImageConfig,
    pub files: Vec<LayerFile>,
    pub(crate) rootfs: Arc<Rootfs>,
}

impl Image {
    /// Total bytes across layers.
    pub fn size(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }

    /// Find a layer file by its guest path.
    pub fn file(&self, guest_path: &str) -> Option<&LayerFile> {
        self.files.iter().find(|f| f.guest_path == guest_path)
    }

    /// The effective command: entrypoint + cmd.
    pub fn command(&self) -> Vec<String> {
        let mut v = self.config.entrypoint.clone();
        v.extend(self.config.cmd.iter().cloned());
        v
    }
}

/// Builder for registering an image into the store.
#[derive(Debug, Default)]
pub struct ImageBuilder {
    reference: String,
    config: ImageConfig,
    files: Vec<(String, FileContent)>,
}

impl ImageBuilder {
    pub fn new(reference: &str) -> Self {
        ImageBuilder { reference: reference.to_string(), ..Default::default() }
    }

    pub fn entrypoint(mut self, args: impl IntoIterator<Item = String>) -> Self {
        self.config.entrypoint = args.into_iter().collect();
        self
    }

    pub fn env(mut self, k: &str, v: &str) -> Self {
        self.config.env.push(format!("{k}={v}"));
        self
    }

    pub fn annotation(mut self, k: &str, v: &str) -> Self {
        self.config.annotations.insert(k.to_string(), v.to_string());
        self
    }

    /// Add a file with real content.
    pub fn file(mut self, guest_path: &str, content: impl Into<Bytes>) -> Self {
        self.files.push((guest_path.to_string(), FileContent::Bytes(content.into())));
        self
    }

    /// Add a size-only file (modeled binaries, stdlib trees).
    pub fn synthetic(mut self, guest_path: &str, size: u64) -> Self {
        self.files.push((guest_path.to_string(), FileContent::Synthetic(size)));
        self
    }

    fn build(self, kernel: &Kernel) -> KernelResult<Image> {
        let mut files = Vec::with_capacity(self.files.len());
        let mut rootfs = Rootfs::default();
        for (guest_path, content) in self.files {
            let vfs_path = format!(
                "/var/lib/images/{}/{}",
                self.reference.replace([':', '/'], "_"),
                guest_path.trim_start_matches('/')
            );
            let size = content.len();
            let file = match kernel.lookup(&vfs_path) {
                Ok(existing) => {
                    // Re-registering a reference refreshes changed layers (a
                    // stale file would otherwise serve old bytes under the
                    // new manifest — the same length does not make them the
                    // same bytes). An unchanged layer keeps its file and its
                    // page-cache residency.
                    if kernel.file_content(existing)? != content {
                        kernel.overwrite_file(existing, content)?;
                    }
                    existing
                }
                Err(_) => kernel.create_file(&vfs_path, content)?,
            };
            rootfs.files.insert(guest_path.clone(), file);
            rootfs.host_paths.insert(guest_path.clone(), vfs_path);
            files.push(LayerFile { guest_path, file, size });
        }
        Ok(Image {
            reference: self.reference,
            config: self.config,
            files,
            rootfs: Arc::new(rootfs),
        })
    }
}

/// The node-local image store (containerd's content store stand-in).
#[derive(Debug, Default, Clone)]
pub struct ImageStore {
    images: BTreeMap<String, Image>,
}

impl ImageStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register ("pull") an image, materializing its layers in the VFS.
    pub fn register(&mut self, kernel: &Kernel, builder: ImageBuilder) -> KernelResult<&Image> {
        let image = builder.build(kernel)?;
        let reference = image.reference.clone();
        self.images.insert(reference.clone(), image);
        Ok(self.images.get(&reference).expect("just inserted"))
    }

    pub fn get(&self, reference: &str) -> KernelResult<&Image> {
        self.images
            .get(reference)
            .ok_or_else(|| KernelError::PathNotFound(format!("image {reference}")))
    }

    pub fn len(&self) -> usize {
        self.images.len()
    }

    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::KernelConfig;

    fn kernel() -> Kernel {
        Kernel::boot(KernelConfig::default())
    }

    #[test]
    fn register_and_lookup() {
        let k = kernel();
        let mut store = ImageStore::new();
        let img = store
            .register(
                &k,
                ImageBuilder::new("registry.local/microservice:v1")
                    .entrypoint(["/app/main.wasm".to_string()])
                    .env("MODE", "prod")
                    .file("/app/main.wasm", &b"\0asm"[..])
                    .synthetic("/lib/libc.so", 1 << 20),
            )
            .unwrap();
        assert_eq!(img.size(), 4 + (1 << 20));
        assert_eq!(img.command(), vec!["/app/main.wasm"]);
        let f = img.file("/app/main.wasm").unwrap();
        assert_eq!(k.file_size(f.file).unwrap(), 4);
        assert!(store.get("registry.local/microservice:v1").is_ok());
        assert!(store.get("missing").is_err());
    }

    #[test]
    fn layers_shared_across_pulls() {
        let k = kernel();
        let mut store = ImageStore::new();
        let build = || ImageBuilder::new("img:v1").file("/app/a.wasm", &b"\0asm1234"[..]);
        let first = store.register(&k, build()).unwrap().file("/app/a.wasm").unwrap().file;
        let second = store.register(&k, build()).unwrap().file("/app/a.wasm").unwrap().file;
        assert_eq!(first, second, "re-pull reuses the stored layer file");
    }

    #[test]
    fn a_re_pulled_layer_of_the_same_length_serves_the_new_bytes() {
        let k = kernel();
        let mut store = ImageStore::new();
        let pull = |store: &mut ImageStore, bytes: &'static [u8]| {
            let image = store.register(&k, ImageBuilder::new("svc:v1").file("/app/m.wasm", bytes));
            image.unwrap().file("/app/m.wasm").unwrap().file
        };
        let pid = k.spawn("reader", Kernel::ROOT_CGROUP).unwrap();
        let first = pull(&mut store, b"AAAA");
        assert_eq!(k.read_file(pid, first).unwrap().unwrap(), b"AAAA"[..]);
        assert!(k.file_cached(first).unwrap() > 0);

        // Identical bytes: the layer file and its page-cache residency stay.
        assert_eq!(pull(&mut store, b"AAAA"), first);
        assert!(k.file_cached(first).unwrap() > 0, "an unchanged layer is not refreshed");

        // Same length, different bytes: the file is refreshed in place.
        assert_eq!(pull(&mut store, b"BBBB"), first);
        assert_eq!(k.file_cached(first).unwrap(), 0, "stale pages dropped");
        assert_eq!(k.read_file(pid, first).unwrap().unwrap(), b"BBBB"[..]);
    }

    #[test]
    fn annotations_propagate() {
        let k = kernel();
        let mut store = ImageStore::new();
        let img = store
            .register(
                &k,
                ImageBuilder::new("w:v1").annotation("module.wasm.image/variant", "compat"),
            )
            .unwrap();
        assert_eq!(
            img.config.annotations.get("module.wasm.image/variant").map(String::as_str),
            Some("compat")
        );
    }
}
