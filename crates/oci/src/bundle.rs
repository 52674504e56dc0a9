//! OCI bundles: a directory with `config.json` plus a rootfs view.
//!
//! The `config.json` is written to the simulated VFS as its **size**: the
//! spec is serialized with [`RuntimeSpec::to_json`], whose length is part
//! of the model, and the file holds that many synthetic bytes, as an
//! engine `.so` or a runtime binary does. The low-level runtimes read it
//! back through the kernel exactly as crun reads its bundle: page-cache
//! fault, first-toucher charge, fault site. The bytes would have no reader,
//! so the bundle keeps the spec it serialized until its container has
//! started, and every read returns that spec. The rootfs is the image's own
//! reference map onto its layer files (overlayfs semantics: no copies),
//! shared by every bundle of the image.

use std::sync::Arc;

use simkernel::vfs::FileContent;
use simkernel::{FileId, Kernel, KernelError, KernelResult, Pid};

use crate::image::{Image, Rootfs};
use crate::spec::RuntimeSpec;

/// A materialized bundle: `/run/containers/<id>/config.json` and a rootfs.
#[derive(Debug, Clone)]
pub struct Bundle {
    /// The written `config.json` file.
    pub config_file: FileId,
    /// The rootfs view of the image the bundle was created from — a
    /// snapshot: re-registering the reference leaves it as it was.
    pub rootfs: Arc<Rootfs>,
    /// The spec `create` serialized, until [`Bundle::release_spec`].
    spec: Option<Arc<RuntimeSpec>>,
}

impl Bundle {
    /// Create a bundle for `container_id` from an image and a spec, which
    /// the bundle keeps (a borrowed one is cloned).
    pub fn create(
        kernel: &Kernel,
        container_id: &str,
        image: &Image,
        spec: impl Into<RuntimeSpec>,
    ) -> KernelResult<Bundle> {
        let spec = spec.into();
        let config_path = format!("/run/containers/{container_id}/config.json");
        let size = FileContent::Synthetic(spec.to_json().len() as u64);
        let config_file = kernel.create_file(&config_path, size)?;
        Ok(Bundle { config_file, rootfs: Arc::clone(&image.rootfs), spec: Some(Arc::new(spec)) })
    }

    /// Read `config.json` (as the runtime binary does), charging the read
    /// to `pid`, and return the spec it was written from. The read is
    /// always made; once the spec is released, the load fails after it.
    pub fn load_spec(&self, kernel: &Kernel, pid: Pid) -> KernelResult<Arc<RuntimeSpec>> {
        kernel.read_file(pid, self.config_file)?;
        self.spec.clone().ok_or_else(|| {
            KernelError::InvalidState("config.json: the bundle has released its spec".into())
        })
    }

    /// The spec this bundle wrote, in memory — how the runwasi shim, which
    /// runs no OCI runtime binary, gets it. `None` once released.
    pub fn spec(&self) -> Option<&RuntimeSpec> {
        self.spec.as_deref()
    }

    /// Drop the kept spec: the container has started, and a resident pod
    /// holds no spec on the host. Later loads fail.
    pub fn release_spec(&mut self) {
        self.spec = None;
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
    use bytelite::Bytes;
    use simkernel::{FaultPlan, FaultSite, Kernel, KernelConfig, ProcessImage};

    fn image(kernel: &Kernel) -> Image {
        let mut store = ImageStore::new();
        let builder = ImageBuilder::new("svc:v1")
            .entrypoint(["/app/main.wasm".to_string()])
            .file("/app/main.wasm", &b"\0asm"[..]);
        store.register(kernel, builder).unwrap().clone()
    }

    fn spec(image: &Image) -> RuntimeSpec {
        let mut spec = RuntimeSpec::for_command("c1", image.command());
        spec.process.env = vec!["A=1".into()];
        spec.linux.memory.limit = Some(64 << 20);
        spec
    }

    /// A bundle, and a reader in a cgroup of its own.
    fn setup() -> (Kernel, Bundle, RuntimeSpec, Pid) {
        let kernel = Kernel::boot(KernelConfig::default());
        let image = image(&kernel);
        let spec = spec(&image);
        let bundle = Bundle::create(&kernel, "c1", &image, &spec).unwrap();
        let cg = kernel.cgroup_create(Kernel::ROOT_CGROUP, "rt").unwrap();
        let pid = ProcessImage::spawn(&kernel, "runtime", cg).build().unwrap().detach();
        (kernel, bundle, spec, pid)
    }

    #[test]
    fn bundle_roundtrips_config_json() {
        let kernel = Kernel::boot(KernelConfig::default());
        let image = image(&kernel);
        let spec = spec(&image);
        let bundle = Bundle::create(&kernel, "c1", &image, &spec).unwrap();
        // The file is the document's size, not its bytes.
        let size = spec.to_json().len() as u64;
        assert_eq!(kernel.file_content(bundle.config_file).unwrap(), FileContent::Synthetic(size));

        let pid =
            ProcessImage::spawn(&kernel, "runtime", Kernel::ROOT_CGROUP).build().unwrap().detach();
        let loaded = bundle.load_spec(&kernel, pid).unwrap();
        assert_eq!(*loaded, spec);
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
    fn every_load_returns_the_kept_spec() {
        let (kernel, bundle, _, pid) = setup();
        let first = bundle.load_spec(&kernel, pid).unwrap();
        let second = bundle.load_spec(&kernel, pid).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert!(std::ptr::eq(&*first, bundle.spec().unwrap()));
    }

    #[test]
    fn a_removed_config_fails_the_load() {
        let (kernel, bundle, _, pid) = setup();
        kernel.remove_file(bundle.config_file).unwrap();
        let err = bundle.load_spec(&kernel, pid).unwrap_err();
        assert!(matches!(err, KernelError::NoSuchFile(f) if f == bundle.config_file), "{err:?}");
    }

    #[test]
    fn a_cold_read_fault_fails_the_load() {
        let (kernel, bundle, _, pid) = setup();
        kernel.set_fault_plan(FaultPlan::new(1).fail_call(FaultSite::ColdRead, 0));
        let err = bundle.load_spec(&kernel, pid).unwrap_err();
        assert!(matches!(err, KernelError::FaultInjected(FaultSite::ColdRead)), "{err:?}");
        assert_eq!(kernel.file_cached(bundle.config_file).unwrap(), 0);
        // The retry reads the file in and returns the kept spec.
        let loaded = bundle.load_spec(&kernel, pid).unwrap();
        assert!(std::ptr::eq(&*loaded, bundle.spec().unwrap()));
        assert!(kernel.file_cached(bundle.config_file).unwrap() > 0);
    }

    /// A load from the size reads as a load from the document's bytes did.
    #[test]
    fn the_kernel_reads_the_size_as_it_read_the_bytes() {
        let (kernel, sized, spec, _) = setup();
        let image = image(&kernel);
        let written = Bundle::create(&kernel, "c2", &image, &spec).unwrap();
        let bytes = FileContent::Bytes(Bytes::from(spec.to_json()));
        kernel.overwrite_file(written.config_file, bytes).unwrap();
        let runtime = |name| {
            let cg = kernel.cgroup_create(Kernel::ROOT_CGROUP, name).unwrap();
            (cg, ProcessImage::spawn(&kernel, "runtime", cg).build().unwrap().detach())
        };
        let ((sized_cg, sized_pid), (written_cg, written_pid)) = (runtime("rt1"), runtime("rt2"));

        let a = sized.load_spec(&kernel, sized_pid).unwrap();
        let b = written.load_spec(&kernel, written_pid).unwrap();
        assert_eq!(a, b);
        let cached = |b: &Bundle| kernel.file_cached(b.config_file).unwrap();
        assert_eq!(cached(&sized), cached(&written));
        assert!(cached(&sized) > 0);
        let stat = |cg| kernel.cgroup_stat(cg).unwrap();
        assert_eq!(stat(sized_cg), stat(written_cg));
        // The same spawn that read nothing: the difference is page cache.
        let (idle_cg, _) = runtime("idle");
        assert!(stat(sized_cg).current > stat(idle_cg).current, "the first toucher is charged");
    }

    /// A released bundle still reads its `config.json`, then fails with a
    /// typed error instead of returning a spec it no longer holds.
    #[test]
    fn a_released_bundle_holds_no_spec_and_fails_the_load_after_the_read() {
        let (kernel, mut bundle, _, pid) = setup();
        let kept = bundle.load_spec(&kernel, pid).unwrap();
        kernel.evict_file(bundle.config_file).unwrap();
        bundle.release_spec();
        assert!(bundle.spec().is_none());
        assert_eq!(Arc::strong_count(&kept), 1, "the bundle's own reference is gone");
        let err = bundle.load_spec(&kernel, pid).unwrap_err();
        assert!(
            matches!(&err, KernelError::InvalidState(m) if m.starts_with("config.json:")),
            "{err:?}"
        );
        assert!(kernel.file_cached(bundle.config_file).unwrap() > 0, "the read came first");
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
            a.resolve("/app/main.wasm"),
            kernel.lookup("/var/lib/images/svc_v1/app/main.wasm").ok()
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

        let pid =
            ProcessImage::spawn(&kernel, "runtime", Kernel::ROOT_CGROUP).build().unwrap().detach();
        for bundle in [&a, &b, &c] {
            assert_eq!(*bundle.load_spec(&kernel, pid).unwrap(), spec);
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
        assert!(Bundle::create(&kernel, "c1", &image, spec).is_err());
    }
}
