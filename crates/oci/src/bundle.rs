//! OCI bundles: a directory with `config.json` plus a rootfs view.
//!
//! The `config.json` is written to the simulated VFS as **real JSON
//! bytes**, and the low-level runtimes read them back through the kernel
//! exactly as crun reads its bundle: page-cache fault, first-toucher
//! charge, fault site. Turning the bytes into a struct has no simulated
//! meaning, so a bundle keeps the spec it serialized until its container
//! has started, and a read that returns the very buffer it wrote is
//! answered with that spec; any other bytes are parsed. The rootfs is the
//! image's own reference map onto its layer files (overlayfs semantics: no
//! copies), shared by every bundle of the image.

use std::sync::Arc;

use bytelite::Bytes;
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
    /// What `create` wrote, until [`Bundle::release_spec`].
    written: Option<Written>,
}

/// The `config.json` buffer a bundle handed the kernel and the spec it was
/// serialized from. Holding the buffer pins its address, the way
/// `ArtifactCache` pins its identity entries: while it is held, a buffer
/// at that address and of that length is these bytes, and parsing them
/// gives `spec` (`from_json(to_json(s)) == s`, `tests/proptests.rs`).
#[derive(Debug, Clone)]
struct Written {
    bytes: Bytes,
    spec: Arc<RuntimeSpec>,
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
        let bytes = Bytes::from(spec.to_json());
        let config_file = kernel.create_file(&config_path, FileContent::Bytes(bytes.clone()))?;
        Ok(Bundle {
            config_file,
            rootfs: Arc::clone(&image.rootfs),
            written: Some(Written { bytes, spec: Arc::new(spec) }),
        })
    }

    /// Read the spec back from the on-disk `config.json` (as the runtime
    /// binary does), charging the read to `pid`. The read is always made;
    /// only bytes this bundle did not write are parsed.
    pub fn load_spec(&self, kernel: &Kernel, pid: Pid) -> KernelResult<Arc<RuntimeSpec>> {
        let bytes = kernel
            .read_file(pid, self.config_file)?
            .ok_or_else(|| KernelError::InvalidState("config.json has no content".into()))?;
        // `ptr::eq` on slices compares address and length.
        match &self.written {
            Some(w) if std::ptr::eq(&*w.bytes, &*bytes) => {
                #[cfg(debug_assertions)]
                check_law(&bytes, &w.spec);
                Ok(Arc::clone(&w.spec))
            }
            _ => parse(&bytes).map(Arc::new),
        }
    }

    /// The spec this bundle wrote, in memory — how the runwasi shim, which
    /// runs no OCI runtime binary, gets it. `None` once released.
    pub fn spec(&self) -> Option<&RuntimeSpec> {
        self.written.as_ref().map(|w| &*w.spec)
    }

    /// Drop the kept spec and buffer: the container has started, and a
    /// resident pod holds no spec on the host. Later loads parse.
    pub fn release_spec(&mut self) {
        self.written = None;
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

fn parse(bytes: &[u8]) -> KernelResult<RuntimeSpec> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| KernelError::InvalidState("config.json is not UTF-8".into()))?;
    RuntimeSpec::from_json(text).map_err(|e| KernelError::InvalidState(format!("config.json: {e}")))
}

/// Debug builds re-check the law a reuse stands on against real specs:
/// each thread's first reuses (every test runs on its own thread) are
/// parsed all the same. Not every reuse — `tests/host_footprint.rs` counts
/// a pod start's allocations in a debug build.
#[cfg(debug_assertions)]
fn check_law(bytes: &[u8], spec: &RuntimeSpec) {
    use std::cell::Cell;
    thread_local!(static CHECKS_LEFT: Cell<u32> = const { Cell::new(16) });
    if CHECKS_LEFT.with(|n| n.replace(n.get().saturating_sub(1))) > 0 {
        assert_eq!(parse(bytes).ok().as_ref(), Some(spec), "from_json(to_json(s)) != s");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{ImageBuilder, ImageStore};
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

    fn overwrite(kernel: &Kernel, bundle: &Bundle, json: &str) {
        kernel.overwrite_file(bundle.config_file, FileContent::Bytes(Bytes::from(json))).unwrap();
    }

    #[test]
    fn bundle_roundtrips_config_json() {
        let kernel = Kernel::boot(KernelConfig::default());
        let image = image(&kernel);
        let spec = spec(&image);
        let bundle = Bundle::create(&kernel, "c1", &image, &spec).unwrap();

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
    fn loads_of_the_written_buffer_return_the_kept_spec() {
        let (kernel, bundle, _, pid) = setup();
        let first = bundle.load_spec(&kernel, pid).unwrap();
        let second = bundle.load_spec(&kernel, pid).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert!(std::ptr::eq(&*first, bundle.spec().unwrap()), "the kept spec, not a parse");
    }

    #[test]
    fn other_bytes_are_parsed() {
        let (kernel, bundle, spec, pid) = setup();
        let kept = bundle.load_spec(&kernel, pid).unwrap();
        // The same document in another buffer: parsed, and equal.
        overwrite(&kernel, &bundle, &spec.to_json());
        let reparsed = bundle.load_spec(&kernel, pid).unwrap();
        assert!(!Arc::ptr_eq(&kept, &reparsed));
        assert_eq!(reparsed, kept);
        // Another valid document: its values, not the kept ones.
        let mut other = spec.clone();
        other.hostname = "renamed".into();
        other.linux.memory.limit = Some(u64::MAX);
        overwrite(&kernel, &bundle, &other.to_json());
        assert_eq!(*bundle.load_spec(&kernel, pid).unwrap(), other);
    }

    #[test]
    fn garbage_fails_as_it_always_has() {
        let (kernel, bundle, _, pid) = setup();
        let truncated = "{\"hostname\":";
        overwrite(&kernel, &bundle, truncated);
        let err = bundle.load_spec(&kernel, pid).unwrap_err();
        let expected = format!("config.json: {}", RuntimeSpec::from_json(truncated).unwrap_err());
        assert!(matches!(&err, KernelError::InvalidState(m) if *m == expected), "{err:?}");
        let not_text = FileContent::Bytes(Bytes::from(vec![0xff]));
        kernel.overwrite_file(bundle.config_file, not_text).unwrap();
        let err = bundle.load_spec(&kernel, pid).unwrap_err();
        assert!(matches!(&err, KernelError::InvalidState(m) if m == "config.json is not UTF-8"));
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
        // The retry reads the file in, and it is still the written buffer.
        let loaded = bundle.load_spec(&kernel, pid).unwrap();
        assert!(std::ptr::eq(&*loaded, bundle.spec().unwrap()));
    }

    /// The kernel sees the same read whichever way the spec comes back.
    #[test]
    fn reuse_leaves_the_kernel_as_a_parse_does() {
        let (kernel, kept, spec, _) = setup();
        let image = image(&kernel);
        let parsed = Bundle::create(&kernel, "c2", &image, &spec).unwrap();
        overwrite(&kernel, &parsed, &spec.to_json());
        let runtime = |name| {
            let cg = kernel.cgroup_create(Kernel::ROOT_CGROUP, name).unwrap();
            (cg, ProcessImage::spawn(&kernel, "runtime", cg).build().unwrap().detach())
        };
        let ((kept_cg, kept_pid), (parsed_cg, parsed_pid)) = (runtime("rt1"), runtime("rt2"));

        let a = kept.load_spec(&kernel, kept_pid).unwrap();
        let b = parsed.load_spec(&kernel, parsed_pid).unwrap();
        assert!(std::ptr::eq(&*a, kept.spec().unwrap()));
        assert!(!std::ptr::eq(&*b, parsed.spec().unwrap()));
        assert_eq!(a, b);
        let cached = |b: &Bundle| kernel.file_cached(b.config_file).unwrap();
        assert_eq!(cached(&kept), cached(&parsed));
        assert!(cached(&kept) > 0);
        let stat = |cg| kernel.cgroup_stat(cg).unwrap();
        assert_eq!(stat(kept_cg), stat(parsed_cg));
        // The same spawn that read nothing: the difference is page cache.
        let (idle_cg, _) = runtime("idle");
        assert!(stat(kept_cg).current > stat(idle_cg).current, "the first toucher is charged");
    }

    #[test]
    fn a_released_bundle_holds_no_spec_and_parses() {
        let (kernel, mut bundle, spec, pid) = setup();
        let kept = bundle.load_spec(&kernel, pid).unwrap();
        bundle.release_spec();
        assert!(bundle.spec().is_none());
        let parsed = bundle.load_spec(&kernel, pid).unwrap();
        assert!(!Arc::ptr_eq(&kept, &parsed));
        assert_eq!(*parsed, spec);
        assert_eq!(Arc::strong_count(&kept), 1, "the bundle's own reference is gone");
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
