//! OCI runtime specification types (the subset the paper's stack uses),
//! with a hand-written `config.json` codec on [`crate::json`]'s tokenizer
//! and writers — no intermediate tree in either direction.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{document, write_bool, write_seq, write_string, JsonError, Reader};

/// The annotation crun uses to dispatch a container to a Wasm handler
/// (the `module.wasm.image/variant=compat` convention).
pub const WASM_VARIANT_ANNOTATION: &str = "module.wasm.image/variant";

/// Annotation carrying the guest watchdog's epoch budget in nanoseconds.
/// The kubelet writes it (derived from the pod's liveness-probe window) and
/// every guest handler honors it; absent means the guest runs unwatched.
pub const WATCHDOG_BUDGET_ANNOTATION: &str = "container.sim/watchdog-epoch-budget-ns";

/// Adversarial annotation: instantiate the module this many extra times
/// after `_start` (the fork-bomb workload). Absent or unparsable means no
/// churn.
pub const INSTANTIATE_CHURN_ANNOTATION: &str = "container.sim/instantiate-churn";

/// Adversarial annotation: stream this many cold-read passes over the
/// image's stream file after `_start` (the page-cache thrasher). Absent or
/// unparsable means no churn.
pub const IO_CHURN_ANNOTATION: &str = "container.sim/io-churn-passes";

/// Annotation declaring how much of the function's per-request work is
/// *optional* (parts-per-million): work the service layer may tell the
/// guest to skip in brownout/degraded mode (smaller response, no
/// enrichment). Absent or unparsable means the function has no degraded
/// mode.
pub const BROWNOUT_ANNOTATION: &str = "container.sim/brownout-optional-work-ppm";

/// `process` object: what to execute.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProcessSpec {
    pub args: Vec<String>,
    /// `KEY=VALUE` strings, as in the OCI spec.
    pub env: Vec<String>,
    pub(crate) cwd: String,
    pub(crate) terminal: bool,
}

impl ProcessSpec {
    /// Parse `env` entries into pairs (ill-formed entries are skipped).
    pub fn env_pairs(&self) -> Vec<(String, String)> {
        self.env
            .iter()
            .filter_map(|e| e.split_once('=').map(|(k, v)| (k.to_string(), v.to_string())))
            .collect()
    }
}

/// `root` object.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct RootSpec {
    pub(crate) path: String,
    pub(crate) readonly: bool,
}

/// One `mounts` entry.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct MountSpec {
    pub(crate) destination: String,
    pub(crate) source: String,
    pub(crate) fstype: String,
    pub(crate) options: Vec<String>,
}

/// `linux.resources.memory`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemoryResources {
    pub limit: Option<u64>,
}

/// `linux` object subset.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinuxSpec {
    /// Namespace type names ("pid", "mount", "network", ...).
    pub namespaces: Vec<String>,
    pub cgroups_path: String,
    pub memory: MemoryResources,
}

/// A `config.json` runtime specification.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuntimeSpec {
    pub(crate) oci_version: String,
    pub process: ProcessSpec,
    pub(crate) root: RootSpec,
    pub(crate) hostname: String,
    pub(crate) mounts: Vec<MountSpec>,
    pub annotations: BTreeMap<String, String>,
    pub linux: LinuxSpec,
}

impl RuntimeSpec {
    /// A sensible default spec for a container executing `args`.
    pub fn for_command(id: &str, args: Vec<String>) -> RuntimeSpec {
        RuntimeSpec {
            oci_version: "1.0.2".to_string(),
            process: ProcessSpec { args, env: Vec::new(), cwd: "/".into(), terminal: false },
            root: RootSpec { path: "rootfs".into(), readonly: true },
            hostname: id.to_string(),
            mounts: vec![MountSpec {
                destination: "/proc".into(),
                source: "proc".into(),
                fstype: "proc".into(),
                options: vec![],
            }],
            annotations: BTreeMap::new(),
            linux: LinuxSpec {
                namespaces: vec![
                    "pid".into(),
                    "mount".into(),
                    "network".into(),
                    "uts".into(),
                    "ipc".into(),
                    "cgroup".into(),
                ],
                cgroups_path: format!("/kubepods/{id}"),
                memory: MemoryResources::default(),
            },
        }
    }

    /// Does this spec request the Wasm handler? True when the variant
    /// annotation is set or the entrypoint names a `.wasm` file.
    pub fn wants_wasm(&self) -> bool {
        self.annotations.get(WASM_VARIANT_ANNOTATION).map(String::as_str) == Some("compat")
            || self.process.args.first().map(|a| a.ends_with(".wasm")).unwrap_or(false)
    }

    /// The guest watchdog's epoch budget in nanoseconds, if the
    /// [`WATCHDOG_BUDGET_ANNOTATION`] is set (and parses).
    pub fn watchdog_budget_ns(&self) -> Option<u64> {
        self.annotations.get(WATCHDOG_BUDGET_ANNOTATION)?.parse().ok()
    }

    /// Fork-bomb churn count, if [`INSTANTIATE_CHURN_ANNOTATION`] is set.
    pub fn instantiate_churn(&self) -> Option<u32> {
        self.annotations.get(INSTANTIATE_CHURN_ANNOTATION)?.parse().ok()
    }

    /// Thrasher pass count, if [`IO_CHURN_ANNOTATION`] is set.
    pub fn io_churn_passes(&self) -> Option<u32> {
        self.annotations.get(IO_CHURN_ANNOTATION)?.parse().ok()
    }

    /// Serialize to `config.json` bytes: compact, keys in sorted order at
    /// every level — byte for byte what serializing the equivalent
    /// [`json::Value`](crate::json::Value) tree gives. The simulation charges
    /// a bundle by this document's size, so the bytes are part of the model.
    pub fn to_json(&self) -> String {
        // Roomy for the usual ~470 bytes; longer documents grow the buffer.
        let mut out = String::with_capacity(1024);
        out.push_str("{\"annotations\":");
        write_seq(&mut out, ['{', '}'], &self.annotations, |out, (k, v)| {
            write_string(out, k);
            out.push(':');
            write_string(out, v);
        });
        out.push_str(",\"hostname\":");
        write_string(&mut out, &self.hostname);
        out.push_str(",\"linux\":{\"cgroupsPath\":");
        write_string(&mut out, &self.linux.cgroups_path);
        out.push_str(",\"namespaces\":");
        write_seq(&mut out, ['[', ']'], &self.linux.namespaces, |out, ns| {
            out.push_str("{\"type\":");
            write_string(out, ns);
            out.push('}');
        });
        if let Some(limit) = self.linux.memory.limit {
            // Exact integer text: the tree's `f64` writer would round
            // anything from 2^53 up.
            let _ = write!(out, ",\"resources\":{{\"memory\":{{\"limit\":{limit}}}}}");
        }
        out.push_str("},\"mounts\":");
        write_seq(&mut out, ['[', ']'], &self.mounts, |out, m| {
            out.push_str("{\"destination\":");
            write_string(out, &m.destination);
            out.push_str(",\"options\":");
            write_strings(out, &m.options);
            out.push_str(",\"source\":");
            write_string(out, &m.source);
            out.push_str(",\"type\":");
            write_string(out, &m.fstype);
            out.push('}');
        });
        out.push_str(",\"ociVersion\":");
        write_string(&mut out, &self.oci_version);
        out.push_str(",\"process\":{\"args\":");
        write_strings(&mut out, &self.process.args);
        out.push_str(",\"cwd\":");
        write_string(&mut out, &self.process.cwd);
        out.push_str(",\"env\":");
        write_strings(&mut out, &self.process.env);
        out.push_str(",\"terminal\":");
        write_bool(&mut out, self.process.terminal);
        out.push_str("},\"root\":{\"path\":");
        write_string(&mut out, &self.root.path);
        out.push_str(",\"readonly\":");
        write_bool(&mut out, self.root.readonly);
        out.push_str("}}");
        out
    }

    /// Parse `config.json` bytes, straight off the tokenizer. Tolerant the
    /// way a lookup in a parsed tree is: unknown members are skipped (and
    /// still validated), a member of the wrong type reads as absent, and
    /// the last of a repeated key replaces the earlier ones wholesale.
    /// Only a syntax error fails.
    pub(crate) fn from_json(input: &str) -> Result<RuntimeSpec, JsonError> {
        document(input, |r| {
            let mut spec = RuntimeSpec {
                process: ProcessSpec::absent(),
                root: RootSpec::absent(),
                ..RuntimeSpec::default()
            };
            r.object(|r, key| {
                match &*key {
                    "ociVersion" => spec.oci_version = r.string()?.unwrap_or_default(),
                    "process" => spec.process = ProcessSpec::read(r)?,
                    "root" => spec.root = RootSpec::read(r)?,
                    "hostname" => spec.hostname = r.string()?.unwrap_or_default(),
                    "mounts" => spec.mounts = read_list(r, |r| MountSpec::read(r).map(Some))?,
                    "annotations" => spec.annotations = read_annotations(r)?,
                    "linux" => spec.linux = LinuxSpec::read(r)?,
                    _ => r.skip()?,
                }
                Ok(())
            })?;
            Ok(spec)
        })
    }
}

/// A copy, for [`Bundle::create`](crate::Bundle::create) callers that keep
/// the spec they hand it.
impl From<&RuntimeSpec> for RuntimeSpec {
    fn from(spec: &RuntimeSpec) -> RuntimeSpec {
        spec.clone()
    }
}

// What each object reads as when its member is absent or not an object,
// and how it is filled from one that is. Every `read` consumes one value.

impl ProcessSpec {
    fn absent() -> ProcessSpec {
        ProcessSpec { cwd: "/".into(), ..ProcessSpec::default() }
    }

    fn read(r: &mut Reader) -> Result<ProcessSpec, JsonError> {
        let mut process = ProcessSpec::absent();
        r.object(|r, key| {
            match &*key {
                "args" => process.args = read_list(r, Reader::string)?,
                "env" => process.env = read_list(r, Reader::string)?,
                "cwd" => process.cwd = r.string()?.unwrap_or_else(|| ProcessSpec::absent().cwd),
                "terminal" => process.terminal = r.boolean()?.unwrap_or(false),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(process)
    }
}

impl RootSpec {
    fn absent() -> RootSpec {
        RootSpec { path: "rootfs".into(), readonly: false }
    }

    fn read(r: &mut Reader) -> Result<RootSpec, JsonError> {
        let mut root = RootSpec::absent();
        r.object(|r, key| {
            match &*key {
                "path" => root.path = r.string()?.unwrap_or_else(|| RootSpec::absent().path),
                "readonly" => root.readonly = r.boolean()?.unwrap_or(false),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(root)
    }
}

impl MountSpec {
    fn read(r: &mut Reader) -> Result<MountSpec, JsonError> {
        let mut mount = MountSpec::default();
        r.object(|r, key| {
            match &*key {
                "destination" => mount.destination = r.string()?.unwrap_or_default(),
                "source" => mount.source = r.string()?.unwrap_or_default(),
                "type" => mount.fstype = r.string()?.unwrap_or_default(),
                "options" => mount.options = read_list(r, Reader::string)?,
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(mount)
    }
}

impl LinuxSpec {
    fn read(r: &mut Reader) -> Result<LinuxSpec, JsonError> {
        let mut linux = LinuxSpec::default();
        r.object(|r, key| {
            match &*key {
                "namespaces" => {
                    linux.namespaces = read_list(r, |r| read_member(r, "type", Reader::string))?
                }
                "cgroupsPath" => linux.cgroups_path = r.string()?.unwrap_or_default(),
                "resources" => {
                    linux.memory.limit =
                        read_member(r, "memory", |r| read_member(r, "limit", Reader::unsigned))?
                }
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(linux)
    }
}

/// The elements `item` yields a value for; not an array reads as empty.
fn read_list<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<Option<T>, JsonError>,
) -> Result<Vec<T>, JsonError> {
    let mut list = Vec::new();
    r.array(|r| {
        list.extend(item(r)?);
        Ok(())
    })?;
    Ok(list)
}

/// Member `name` of an object, read by `inner`: the last occurrence wins,
/// and a value that is no object or has no such member reads as absent.
fn read_member<'a, T>(
    r: &mut Reader<'a>,
    name: &str,
    mut inner: impl FnMut(&mut Reader<'a>) -> Result<Option<T>, JsonError>,
) -> Result<Option<T>, JsonError> {
    let mut found = None;
    r.object(|r, key| {
        if key == name {
            found = inner(r)?;
            Ok(())
        } else {
            r.skip()
        }
    })?;
    Ok(found)
}

/// The members that are strings.
fn read_annotations(r: &mut Reader) -> Result<BTreeMap<String, String>, JsonError> {
    let mut annotations = BTreeMap::new();
    r.object(|r, key| {
        match r.string()? {
            Some(value) => annotations.insert(key.into_owned(), value),
            None => annotations.remove(&*key),
        };
        Ok(())
    })?;
    Ok(annotations)
}

fn write_strings(out: &mut String, items: &[String]) {
    write_seq(out, ['[', ']'], items, |out, s| write_string(out, s));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_default_spec() {
        let mut spec = RuntimeSpec::for_command("web-1", vec!["/app/main.wasm".into()]);
        spec.process.env = vec!["PORT=8080".into(), "MODE=prod".into()];
        spec.annotations.insert(WASM_VARIANT_ANNOTATION.to_string(), "compat".to_string());
        spec.linux.memory.limit = Some(64 << 20);
        let json = spec.to_json();
        let back = RuntimeSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn env_pairs_parsed() {
        let p = ProcessSpec {
            env: vec!["A=1".into(), "B=x=y".into(), "BROKEN".into()],
            ..Default::default()
        };
        assert_eq!(
            p.env_pairs(),
            vec![("A".to_string(), "1".to_string()), ("B".to_string(), "x=y".to_string())]
        );
    }

    #[test]
    fn wasm_dispatch_detection() {
        let mut spec = RuntimeSpec::for_command("c", vec!["/usr/bin/python3".into()]);
        assert!(!spec.wants_wasm());
        spec.annotations.insert(WASM_VARIANT_ANNOTATION.to_string(), "compat".to_string());
        assert!(spec.wants_wasm());

        let spec2 = RuntimeSpec::for_command("c", vec!["/app/svc.wasm".into()]);
        assert!(spec2.wants_wasm(), "entrypoint extension triggers dispatch");
    }

    #[test]
    fn missing_fields_default() {
        let spec = RuntimeSpec::from_json("{}").unwrap();
        assert_eq!(spec.process.cwd, "/");
        assert_eq!(spec.root.path, "rootfs");
        assert!(spec.mounts.is_empty());
        assert!(!spec.wants_wasm());
    }

    /// Every `u64`, not only those an `f64` holds exactly.
    #[test]
    fn memory_limit_survives() {
        let mut spec = RuntimeSpec::for_command("c", vec!["x".into()]);
        for limit in [0, 128 << 20, (1 << 53) + 1, i64::MAX as u64 + 1, u64::MAX] {
            spec.linux.memory.limit = Some(limit);
            let json = spec.to_json();
            assert!(json.contains(&format!("\"limit\":{limit}}}")), "{json}");
            let back = RuntimeSpec::from_json(&json).unwrap();
            assert_eq!(back.linux.memory.limit, Some(limit));
        }
    }

    mod codec {
        //! The `config.json` codec: exact bytes out, exact tolerance in.
        //!
        //! A bundle's `config.json` is simulated by its size (`config_kib ×
        //! parse_ns_per_kib`, page-cache pages), so `RuntimeSpec::to_json` may not
        //! move by a byte: the goldens below were recorded before the direct codec
        //! replaced the DOM-based one. That DOM-based decoder lives on here as
        //! [`reference_from_json`], the oracle `RuntimeSpec::from_json` is compared
        //! against over generated specs and over hostile documents.

        use crate::json::{parse, JsonError, Value};
        use crate::spec::{
            LinuxSpec, MemoryResources, MountSpec, ProcessSpec, RootSpec, RuntimeSpec,
            WASM_VARIANT_ANNOTATION, WATCHDOG_BUDGET_ANNOTATION,
        };
        use simkernel::prop::check;
        use simkernel::rng::SplitMix64;

        /// The pod's pause container, as `Containerd::run_pod_sandbox` builds it.
        fn pause_spec() -> RuntimeSpec {
            RuntimeSpec::for_command("pod-7-pause", vec!["/pause".to_string()])
        }

        /// A workload container, as `Containerd::create_container_with` builds it
        /// from the microservice image: image env and annotations, `cgroupsPath`
        /// under the pod.
        fn workload_spec() -> RuntimeSpec {
            let mut spec =
                RuntimeSpec::for_command("pod-7-app", vec!["/app/main.wasm".to_string()]);
            spec.process.env = vec!["SERVICE_NAME=microservice".to_string()];
            spec.linux.cgroups_path = "/kubepods/pod-7/pod-7-app".to_string();
            spec.annotations.insert(WASM_VARIANT_ANNOTATION.to_string(), "compat".to_string());
            spec
        }

        /// A memory limit, the kubelet's watchdog annotation, and strings needing
        /// every escape class: `"`, `\`, `\n`, a control byte, a non-ASCII char.
        fn escapy_spec() -> RuntimeSpec {
            let mut spec = workload_spec();
            spec.linux.memory.limit = Some(64 << 20);
            spec.annotations
                .insert(WATCHDOG_BUDGET_ANNOTATION.to_string(), "30000000000".to_string());
            spec.annotations.insert("note/\"quoted\"".to_string(), "tab\there\r\n".to_string());
            spec.process.args.push("--greeting=\"héllo\\世界\"\n".to_string());
            spec.process.env.push("BELL=\u{7}\u{1f}".to_string());
            spec.hostname = "nœud-😀".to_string();
            spec
        }

        #[test]
        fn to_json_bytes_are_pinned() {
            assert_eq!(
                pause_spec().to_json(),
                r#"{"annotations":{},"hostname":"pod-7-pause","linux":{"cgroupsPath":"/kubepods/pod-7-pause","namespaces":[{"type":"pid"},{"type":"mount"},{"type":"network"},{"type":"uts"},{"type":"ipc"},{"type":"cgroup"}]},"mounts":[{"destination":"/proc","options":[],"source":"proc","type":"proc"}],"ociVersion":"1.0.2","process":{"args":["/pause"],"cwd":"/","env":[],"terminal":false},"root":{"path":"rootfs","readonly":true}}"#
            );
            assert_eq!(
                workload_spec().to_json(),
                r#"{"annotations":{"module.wasm.image/variant":"compat"},"hostname":"pod-7-app","linux":{"cgroupsPath":"/kubepods/pod-7/pod-7-app","namespaces":[{"type":"pid"},{"type":"mount"},{"type":"network"},{"type":"uts"},{"type":"ipc"},{"type":"cgroup"}]},"mounts":[{"destination":"/proc","options":[],"source":"proc","type":"proc"}],"ociVersion":"1.0.2","process":{"args":["/app/main.wasm"],"cwd":"/","env":["SERVICE_NAME=microservice"],"terminal":false},"root":{"path":"rootfs","readonly":true}}"#
            );
            assert_eq!(
                escapy_spec().to_json(),
                r#"{"annotations":{"container.sim/watchdog-epoch-budget-ns":"30000000000","module.wasm.image/variant":"compat","note/\"quoted\"":"tab\there\r\n"},"hostname":"nœud-😀","linux":{"cgroupsPath":"/kubepods/pod-7/pod-7-app","namespaces":[{"type":"pid"},{"type":"mount"},{"type":"network"},{"type":"uts"},{"type":"ipc"},{"type":"cgroup"}],"resources":{"memory":{"limit":67108864}}},"mounts":[{"destination":"/proc","options":[],"source":"proc","type":"proc"}],"ociVersion":"1.0.2","process":{"args":["/app/main.wasm","--greeting=\"héllo\\世界\"\n"],"cwd":"/","env":["SERVICE_NAME=microservice","BELL=\u0007\u001f"],"terminal":false},"root":{"path":"rootfs","readonly":true}}"#
            );
            // Every golden reads back as the spec that wrote it.
            for spec in [pause_spec(), workload_spec(), escapy_spec()] {
                assert_eq!(RuntimeSpec::from_json(&spec.to_json()).unwrap(), spec);
            }
        }

        /// `RuntimeSpec::from_json` as it was when it went through the tree:
        /// parse everything, then look members up. Its tolerance rules — unknown
        /// keys ignored, wrong types read as defaults, the last duplicate wins —
        /// are the tree's, and are what the direct decoder must reproduce.
        fn reference_from_json(input: &str) -> Result<RuntimeSpec, JsonError> {
            let v = parse(input)?;
            let text = |v: Option<&Value>| v.and_then(Value::as_str).map(str::to_string);
            let null = Value::Null;
            let process = v.get("process").unwrap_or(&null);
            let root = v.get("root").unwrap_or(&null);
            let linux = v.get("linux").unwrap_or(&null);
            let mounts = v.get("mounts").and_then(Value::as_array).unwrap_or_default();
            let namespaces = linux.get("namespaces").and_then(Value::as_array).unwrap_or_default();
            let annotations = v.get("annotations").and_then(Value::as_object);
            Ok(RuntimeSpec {
                oci_version: text(v.get("ociVersion")).unwrap_or_default(),
                process: ProcessSpec {
                    args: process.str_list("args"),
                    env: process.str_list("env"),
                    cwd: text(process.get("cwd")).unwrap_or("/".into()),
                    terminal: process.get("terminal").and_then(Value::as_bool).unwrap_or(false),
                },
                root: RootSpec {
                    path: text(root.get("path")).unwrap_or("rootfs".into()),
                    readonly: root.get("readonly").and_then(Value::as_bool).unwrap_or(false),
                },
                hostname: text(v.get("hostname")).unwrap_or_default(),
                mounts: mounts
                    .iter()
                    .map(|m| MountSpec {
                        destination: text(m.get("destination")).unwrap_or_default(),
                        source: text(m.get("source")).unwrap_or_default(),
                        fstype: text(m.get("type")).unwrap_or_default(),
                        options: m.str_list("options"),
                    })
                    .collect(),
                annotations: annotations
                    .into_iter()
                    .flatten()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                    .collect(),
                linux: LinuxSpec {
                    namespaces: namespaces.iter().filter_map(|n| text(n.get("type"))).collect(),
                    cgroups_path: text(linux.get("cgroupsPath")).unwrap_or_default(),
                    memory: MemoryResources {
                        limit: linux
                            .get("resources")
                            .and_then(|r| r.get("memory"))
                            .and_then(|m| m.get("limit"))
                            .and_then(Value::as_f64)
                            .filter(|n| n.fract() == 0.0 && (0.0..=TWO_64).contains(n))
                            .map(|n| n as u64),
                    },
                },
            })
        }

        /// 2^64, which is also what `u64::MAX` rounds to as an `f64`.
        const TWO_64: f64 = 18_446_744_073_709_551_616.0;

        /// The tree holds a number as an `f64`; the direct decoder reads a plain
        /// integer exactly. Past 2^53 the two agree on the memory limit only to
        /// the nearest `f64` (saturated into `u64`), and compare so.
        fn rounded(mut spec: RuntimeSpec) -> RuntimeSpec {
            spec.linux.memory.limit = spec.linux.memory.limit.map(|l| l as f64 as u64);
            spec
        }

        /// Characters that exercise every writer and scanner path: the five short
        /// escapes, a `\u00XX` control, DEL, two- three- and four-byte UTF-8.
        const HOSTILE: &[char] = &[
            'a', 'Z', '/', '=', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{7f}', 'é', '世',
            '😀',
        ];

        fn gen_spec(g: &mut SplitMix64) -> RuntimeSpec {
            let mut text = |max| g.string_upto(HOSTILE, 0, max);
            let mut spec = RuntimeSpec::for_command(&text(12), vec![text(20), text(8)]);
            spec.oci_version = text(6);
            spec.process.env = vec![text(16)];
            spec.process.cwd = text(10);
            spec.root.path = text(10);
            spec.mounts[0].options = vec![text(5), text(5)];
            spec.mounts[0].source = text(8);
            spec.linux.cgroups_path = text(24);
            spec.linux.namespaces.push(text(6));
            spec.annotations = (0..3).map(|_| (text(12), text(12))).collect();
            spec.process.terminal = g.next_bool();
            spec.root.readonly = g.next_bool();
            // Any u64, written and read back exactly.
            spec.linux.memory.limit = g.next_bool().then(|| g.next_u64() >> g.index(64));
            if g.next_bool() {
                spec.mounts.clear();
            }
            spec
        }

        #[test]
        fn generated_specs_decode_as_the_reference_does() {
            check("generated_specs_decode_as_the_reference_does", 256, |g| {
                let spec = gen_spec(g);
                let json = spec.to_json();
                // The tree serializer is the byte-level reference for the writer,
                // as far as an f64 holds the limit exactly.
                if spec.linux.memory.limit.is_none_or(|l| l < 1 << 53) {
                    assert_eq!(json, parse(&json).unwrap().to_json());
                }
                let back = RuntimeSpec::from_json(&json).unwrap();
                assert_eq!(Ok(rounded(back.clone())), reference_from_json(&json).map(rounded));
                assert_eq!(back, spec);
            });
        }

        /// What a well-formed `config.json` holds where.
        enum Shape {
            Str,
            Bool,
            Num,
            List(&'static Shape),
            /// An object with free-form keys (`annotations`).
            Map(&'static Shape),
            Obj(&'static [(&'static str, Shape)]),
        }

        const STRINGS: Shape = Shape::List(&Shape::Str);
        const CONFIG: Shape = Shape::Obj(&[
            ("ociVersion", Shape::Str),
            ("process", PROCESS),
            ("root", Shape::Obj(&[("path", Shape::Str), ("readonly", Shape::Bool)])),
            ("hostname", Shape::Str),
            ("mounts", Shape::List(&MOUNT)),
            ("annotations", Shape::Map(&Shape::Str)),
            ("linux", LINUX),
        ]);
        const PROCESS: Shape = Shape::Obj(&[
            ("args", STRINGS),
            ("env", STRINGS),
            ("cwd", Shape::Str),
            ("terminal", Shape::Bool),
        ]);
        const MOUNT: Shape = Shape::Obj(&[
            ("destination", Shape::Str),
            ("source", Shape::Str),
            ("type", Shape::Str),
            ("options", STRINGS),
        ]);
        const LINUX: Shape = Shape::Obj(&[
            ("namespaces", Shape::List(&Shape::Obj(&[("type", Shape::Str)]))),
            ("cgroupsPath", Shape::Str),
            ("resources", Shape::Obj(&[("memory", Shape::Obj(&[("limit", Shape::Num)]))])),
        ]);

        const SPACE: &[&str] = &["", "", "", " ", "\n\t", "\r "];

        fn pick<'a>(g: &mut SplitMix64, items: &[&'a str]) -> &'a str {
            items[g.index(items.len())]
        }

        /// A string literal, spelled as hostile input would spell it: raw
        /// non-ASCII, every escape, `\u` forms, surrogate pairs — and now and then
        /// something no parser may accept.
        fn gen_string(g: &mut SplitMix64, out: &mut String) {
            const PIECES: &[&str] = &[
                "a",
                "rootfs",
                "/",
                "é世",
                "😀",
                "\\\"",
                "\\\\",
                "\\/",
                "\\b",
                "\\f",
                "\\n",
                "\\r",
                "\\t",
                "\\u0041",
                "\\u00e9",
                "\\u4E16",
                "\\ud83d\\ude00",
                "\\uD83D\\uDE00",
                "\u{7f}",
            ];
            const BROKEN: &[&str] =
                &["\\ud83d", "\\udc00", "\\ud83d\\u0041", "\\x", "\\u12", "\n", "\u{1}"];
            out.push('"');
            for _ in 0..g.index(5) {
                out.push_str(if g.index(40) == 0 { pick(g, BROKEN) } else { pick(g, PIECES) });
            }
            out.push('"');
        }

        /// A key: mostly spelled plainly, sometimes with a letter as a `\u` escape
        /// (the same key to a JSON reader).
        fn gen_key(g: &mut SplitMix64, key: &str, out: &mut String) {
            if g.index(6) == 0 && key.is_ascii() && !key.is_empty() {
                let at = g.index(key.len());
                let escaped =
                    format!("{}\\u{:04x}{}", &key[..at], key.as_bytes()[at], &key[at + 1..]);
                out.push_str(&format!("\"{escaped}\""));
            } else {
                out.push_str(&format!("\"{key}\""));
            }
        }

        fn gen_number(g: &mut SplitMix64, out: &mut String) {
            const ODD: &[&str] = &[
                "0",
                "-0",
                "-1",
                "1.5",
                "2.0",
                "1e3",
                "1E+2",
                "25e-1",
                "1e300",
                "-1e300",
                "1e999",
                "9007199254740993",
                "18446744073709551615",
                "9223372036854775808",
                "01",
                "1.",
                "-",
                "1e",
                "-.5",
                "+1",
            ];
            if g.next_bool() {
                out.push_str(pick(g, ODD));
            } else {
                out.push_str(&g.range_u64(0, 1 << 40).to_string());
            }
        }

        /// Any JSON value at all, for the places a decoder expects something else.
        fn gen_any(g: &mut SplitMix64, depth: u32, out: &mut String) {
            match g.index(if depth == 0 { 5 } else { 7 }) {
                0 => out.push_str("null"),
                1 => out.push_str(if g.next_bool() { "true" } else { "false" }),
                2 => gen_number(g, out),
                3 | 4 => gen_string(g, out),
                5 => gen_items(g, out, ['[', ']'], |g, out| gen_any(g, depth - 1, out)),
                _ => gen_items(g, out, ['{', '}'], |g, out| {
                    let key = pick(g, &["type", "limit", "memory", "cwd", "k", ""]);
                    gen_key(g, key, out);
                    out.push(':');
                    gen_any(g, depth - 1, out)
                }),
            }
        }

        fn gen_items(
            g: &mut SplitMix64,
            out: &mut String,
            brackets: [char; 2],
            mut item: impl FnMut(&mut SplitMix64, &mut String),
        ) {
            out.push(brackets[0]);
            for i in 0..g.index(4) {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(pick(g, SPACE));
                item(g, out);
                out.push_str(pick(g, SPACE));
            }
            out.push(brackets[1]);
        }

        /// A value of `shape` — or, one time in six, of any other kind. Objects
        /// draw their members with replacement, so keys repeat, go missing, and
        /// come in any order, with unknown members in between.
        fn gen_shaped(g: &mut SplitMix64, shape: &Shape, out: &mut String) {
            if g.index(6) == 0 {
                return gen_any(g, 2, out);
            }
            match shape {
                Shape::Str => gen_string(g, out),
                Shape::Bool => out.push_str(if g.next_bool() { "true" } else { "false" }),
                Shape::Num => gen_number(g, out),
                Shape::List(of) => gen_items(g, out, ['[', ']'], |g, out| gen_shaped(g, of, out)),
                Shape::Map(of) => gen_items(g, out, ['{', '}'], |g, out| {
                    let key = pick(g, &["a", "b", "module.wasm.image/variant", "é"]);
                    gen_key(g, key, out);
                    out.push(':');
                    gen_shaped(g, of, out)
                }),
                Shape::Obj(fields) => {
                    out.push('{');
                    for i in 0..g.index(fields.len() + 3) {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(pick(g, SPACE));
                        if g.index(5) == 0 {
                            let key = pick(g, &["unknown", "uid", "type", "x"]);
                            gen_key(g, key, out);
                            out.push(':');
                            gen_any(g, 2, out);
                        } else {
                            let (key, of) = g.choose(fields);
                            gen_key(g, key, out);
                            out.push_str(pick(g, SPACE));
                            out.push(':');
                            out.push_str(pick(g, SPACE));
                            gen_shaped(g, of, out);
                        }
                    }
                    out.push('}');
                }
            }
        }

        #[test]
        fn hostile_documents_decode_as_the_reference_does() {
            let (mut accepted, mut limits, mut mounts) = (0, 0, 0);
            check("hostile_documents_decode_as_the_reference_does", 4096, |g| {
                let mut doc = String::from(pick(g, SPACE));
                gen_shaped(g, &CONFIG, &mut doc);
                doc.push_str(pick(g, SPACE));
                match g.index(8) {
                    // Truncated anywhere a character ends.
                    0 => {
                        let cut = g.index(doc.len() + 1);
                        doc.truncate((0..=cut).rev().find(|&i| doc.is_char_boundary(i)).unwrap());
                    }
                    // Trailing bytes.
                    1 => doc.push_str(pick(g, &["x", "{}", ",", "\"", "1"])),
                    _ => {}
                }
                let direct = RuntimeSpec::from_json(&doc);
                assert_eq!(
                    direct.clone().map(rounded),
                    reference_from_json(&doc).map(rounded),
                    "{doc}"
                );
                if let Ok(spec) = direct {
                    accepted += 1;
                    limits += spec.linux.memory.limit.is_some() as u32;
                    mounts += !spec.mounts.is_empty() as u32;
                }
            });
            // The generator reaches the depths of the schema, and is not all noise.
            assert!(accepted > 2000 && limits > 20 && mounts > 200, "{accepted} {limits} {mounts}");
        }
    }

    mod proptests {
        //! Property tests for the OCI layer: JSON round-trips over arbitrary
        //! values, and runtime-spec round-trips over arbitrary specs. Runs on the
        //! offline `simkernel::prop` harness.

        use std::collections::BTreeMap;

        use crate::json::{parse, Value};
        use crate::spec::{
            LinuxSpec, MemoryResources, MountSpec, ProcessSpec, RootSpec, RuntimeSpec,
        };
        use simkernel::prop::check;
        use simkernel::rng::SplitMix64;

        const PLAIN: &[char] =
            &['a', 'b', 'c', 'x', 'y', 'z', 'A', 'Z', '0', '5', '9', ' ', '_', '.', '/', '-'];
        const ESCAPY: &[char] = &['"', '\\', '\n', '\t', 'é', '世', 'a', 'k', 'q'];

        fn gen_json(g: &mut SplitMix64, depth: u32) -> Value {
            let max = if depth == 0 { 5 } else { 7 };
            match g.index(max) {
                0 => Value::Null,
                1 => Value::Bool(g.next_bool()),
                // Integers in the f64-exact range round-trip precisely.
                2 => Value::Number(g.range_i64(-1_000_000_000, 1_000_000_000) as f64),
                3 => Value::String(g.string_upto(PLAIN, 0, 25)),
                // Strings exercising escapes.
                4 => Value::String(g.string_upto(ESCAPY, 0, 12)),
                5 => Value::Array((0..g.index(4)).map(|_| gen_json(g, depth - 1)).collect()),
                _ => {
                    let mut obj = BTreeMap::new();
                    for _ in 0..g.index(4) {
                        let key = g.string_upto(&['a', 'b', 'c', 'd', 'm', 'z'], 1, 9);
                        obj.insert(key, gen_json(g, depth - 1));
                    }
                    Value::Object(obj)
                }
            }
        }

        #[test]
        fn json_roundtrip() {
            check("json_roundtrip", 256, |g| {
                let v = gen_json(g, 3);
                let text = v.to_json();
                let back = parse(&text).unwrap();
                assert_eq!(back, v);
            });
        }

        #[test]
        fn parser_never_panics_on_garbage() {
            const SOUP: &[char] = &[
                '{', '}', '[', ']', '"', ':', ',', '\\', 'n', 't', 'e', '1', '9', '-', '+', '.',
                'E', ' ', '\n', 'é', '\u{0}', 'u', '0', 'x',
            ];
            check("parser_never_panics_on_garbage", 512, |g| {
                let input = g.string_upto(SOUP, 0, 64);
                let _ = parse(&input);
                let _ = RuntimeSpec::from_json(&input);
            });
        }

        #[test]
        fn parser_never_panics_on_bytes() {
            check("parser_never_panics_on_bytes", 512, |g| {
                let input: Vec<u8> = (0..g.index(64)).map(|_| g.next_u32() as u8).collect();
                if let Ok(s) = std::str::from_utf8(&input) {
                    let _ = parse(s);
                    let _ = RuntimeSpec::from_json(s);
                }
            });
        }

        /// Everything the string writer escapes (`"`, `\`, the short escapes,
        /// other control characters), DEL, `/`, non-ASCII of every UTF-8 width,
        /// and plain letters.
        const ESCAPE_SET: &[char] = &[
            '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}',
            '/', 'é', '世', '😀', 'a', 'Z', '=',
        ];

        /// A string from the escape set, sometimes empty.
        fn text(g: &mut SplitMix64) -> String {
            g.string_upto(ESCAPE_SET, 0, 9)
        }

        /// Up to three strings; a quarter of the time none.
        fn texts(g: &mut SplitMix64) -> Vec<String> {
            (0..g.index(4)).map(|_| text(g)).collect()
        }

        /// Any spec at all: every string drawn from the escape set, any namespace
        /// names, any mounts, an absent limit or any `u64`, and every list, map
        /// and string sometimes empty — the domain over which `Bundle::load_spec`
        /// reuses a kept spec, on the law `from_json(to_json(s)) == s`.
        fn gen_spec(g: &mut SplitMix64) -> RuntimeSpec {
            RuntimeSpec {
                oci_version: text(g),
                process: ProcessSpec {
                    args: texts(g),
                    env: texts(g),
                    cwd: text(g),
                    terminal: g.next_bool(),
                },
                root: RootSpec { path: text(g), readonly: g.next_bool() },
                hostname: text(g),
                mounts: (0..g.index(3))
                    .map(|_| MountSpec {
                        destination: text(g),
                        source: text(g),
                        fstype: text(g),
                        options: texts(g),
                    })
                    .collect(),
                annotations: (0..g.index(4)).map(|_| (text(g), text(g))).collect(),
                linux: LinuxSpec {
                    namespaces: texts(g),
                    cgroups_path: text(g),
                    // Every magnitude equally often.
                    memory: MemoryResources {
                        limit: g.next_bool().then(|| g.next_u64() >> g.index(64)),
                    },
                },
            }
        }

        #[test]
        fn runtime_spec_roundtrip() {
            let (mut big_limits, mut empty_lists) = (0, 0);
            check("runtime_spec_roundtrip", 512, |g| {
                let spec = gen_spec(g);
                let json = spec.to_json();
                let back = RuntimeSpec::from_json(&json).unwrap();
                assert_eq!(back, spec, "{json}");
                big_limits += spec.linux.memory.limit.is_some_and(|l| l >= 1 << 53) as u32;
                empty_lists += (spec.mounts.is_empty() && spec.linux.namespaces.is_empty()) as u32;
            });
            // The generator reaches past f64's exact integers, and the empty ends.
            assert!(big_limits > 20 && empty_lists > 20, "{big_limits} {empty_lists}");
            let empty = RuntimeSpec::default();
            assert_eq!(RuntimeSpec::from_json(&empty.to_json()).unwrap(), empty);
        }
    }
}
