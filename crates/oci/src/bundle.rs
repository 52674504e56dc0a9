//! OCI bundles: a directory with `config.json` plus a rootfs view.
//!
//! The `config.json` is written to the simulated VFS as **real JSON
//! bytes** — the low-level runtimes read and parse it back, exactly as crun
//! does. The rootfs is the image's own reference map onto its layer files
//! (overlayfs semantics: no copies), shared by every bundle of the image.

use std::sync::Arc;

use bytelite::Bytes;
use simkernel::vfs::FileContent;
use simkernel::{FileId, Kernel, KernelError, KernelResult};

use crate::image::{Image, Rootfs};
use crate::spec::RuntimeSpec;

/// A materialized bundle.
#[derive(Debug, Clone)]
pub struct Bundle {
    /// Bundle directory (VFS path prefix).
    pub path: String,
    /// The written `config.json` file.
    pub config_file: FileId,
    /// The rootfs view of the image the bundle was created from — a
    /// snapshot: re-registering the reference leaves it as it was.
    pub rootfs: Arc<Rootfs>,
}

impl Bundle {
    /// Create a bundle for `container_id` from an image and a spec.
    pub fn create(
        kernel: &Kernel,
        container_id: &str,
        image: &Image,
        spec: &RuntimeSpec,
    ) -> KernelResult<Bundle> {
        let path = format!("/run/containers/{container_id}");
        let config_path = format!("{path}/config.json");
        let json = spec.to_json();
        let config_file =
            kernel.create_file(&config_path, FileContent::Bytes(Bytes::from(json)))?;
        Ok(Bundle { path, config_file, rootfs: Arc::clone(&image.rootfs) })
    }

    /// Read the spec back from the on-disk `config.json` (as the runtime
    /// binary does), charging the read to `pid`.
    pub fn load_spec(&self, kernel: &Kernel, pid: simkernel::Pid) -> KernelResult<RuntimeSpec> {
        let bytes = kernel
            .read_file(pid, self.config_file)?
            .ok_or_else(|| KernelError::InvalidState("config.json has no content".into()))?;
        let text = std::str::from_utf8(&bytes)
            .map_err(|_| KernelError::InvalidState("config.json is not UTF-8".into()))?;
        RuntimeSpec::from_json(text)
            .map_err(|e| KernelError::InvalidState(format!("config.json: {e}")))
    }

    /// Resolve a guest path within the rootfs.
    pub fn resolve(&self, guest_path: &str) -> Option<FileId> {
        self.rootfs.files.get(guest_path).copied()
    }

    /// Remove the bundle directory contents.
    pub fn destroy(&self, kernel: &Kernel) -> KernelResult<()> {
        kernel.remove_file(self.config_file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{ImageBuilder, ImageStore};
    use simkernel::{Kernel, KernelConfig};

    #[test]
    fn bundle_roundtrips_config_json() {
        let kernel = Kernel::boot(KernelConfig::default());
        let mut store = ImageStore::new();
        let image = store
            .register(
                &kernel,
                ImageBuilder::new("svc:v1")
                    .entrypoint(["/app/main.wasm".to_string()])
                    .file("/app/main.wasm", &b"\0asm"[..]),
            )
            .unwrap()
            .clone();
        let mut spec = RuntimeSpec::for_command("c1", image.command());
        spec.process.env = vec!["A=1".into()];
        let bundle = Bundle::create(&kernel, "c1", &image, &spec).unwrap();

        let pid = kernel.spawn("runtime", Kernel::ROOT_CGROUP).unwrap();
        let loaded = bundle.load_spec(&kernel, pid).unwrap();
        assert_eq!(loaded, spec);
        // The config read went through the page cache.
        assert!(kernel.file_cached(bundle.config_file).unwrap() > 0);
        // Rootfs references the layer file without copying.
        let layer = image.file("/app/main.wasm").unwrap().file;
        assert_eq!(bundle.resolve("/app/main.wasm"), Some(layer));
        assert_eq!(bundle.resolve("/nope"), None);
        bundle.destroy(&kernel).unwrap();
        assert!(kernel.file_size(bundle.config_file).is_err());
    }

    #[test]
    fn bundles_share_their_images_rootfs_and_keep_it_across_a_re_pull() {
        let kernel = Kernel::boot(KernelConfig::default());
        let mut store = ImageStore::new();
        let v1 = ImageBuilder::new("svc:v1").file("/app/main.wasm", &b"\0asm"[..]);
        let image = store.register(&kernel, v1).unwrap().clone();
        let spec = RuntimeSpec::for_command("c", image.command());
        let a = Bundle::create(&kernel, "a", &image, &spec).unwrap();
        let b = Bundle::create(&kernel, "b", &image, &spec).unwrap();
        assert!(Arc::ptr_eq(&a.rootfs, &b.rootfs), "one table per image, not per bundle");
        assert_eq!(
            a.rootfs.host_paths.get("/app/main.wasm").map(String::as_str),
            Some("/var/lib/images/svc_v1/app/main.wasm")
        );

        // Re-registering the reference builds a new view; a bundle is a
        // snapshot of the image it was created from.
        let v2 = ImageBuilder::new("svc:v1")
            .file("/app/main.wasm", &b"\0asm"[..])
            .synthetic("/data/stream.bin", 1 << 20);
        let repulled = store.register(&kernel, v2).unwrap().clone();
        let c = Bundle::create(&kernel, "c", &repulled, &spec).unwrap();
        assert!(!Arc::ptr_eq(&a.rootfs, &c.rootfs));
        assert!(c.resolve("/data/stream.bin").is_some());
        assert_eq!(a.resolve("/data/stream.bin"), None, "the earlier bundle's view is unchanged");
        assert_eq!(a.resolve("/app/main.wasm"), c.resolve("/app/main.wasm"), "same layer file");

        let pid = kernel.spawn("runtime", Kernel::ROOT_CGROUP).unwrap();
        for bundle in [&a, &b, &c] {
            assert_eq!(bundle.load_spec(&kernel, pid).unwrap(), spec);
            bundle.destroy(&kernel).unwrap();
            assert!(kernel.file_size(bundle.config_file).is_err());
        }
    }

    #[test]
    fn duplicate_bundle_id_rejected() {
        let kernel = Kernel::boot(KernelConfig::default());
        let mut store = ImageStore::new();
        let image = store.register(&kernel, ImageBuilder::new("svc:v1")).unwrap().clone();
        let spec = RuntimeSpec::for_command("c1", vec!["x".into()]);
        Bundle::create(&kernel, "c1", &image, &spec).unwrap();
        assert!(Bundle::create(&kernel, "c1", &image, &spec).is_err());
    }
}
