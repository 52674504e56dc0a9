//! OCI runtime specification types (the subset the paper's stack uses),
//! with a hand-written `config.json` codec on [`crate::json`]'s tokenizer
//! and writers — no intermediate tree in either direction.

use std::collections::BTreeMap;

use crate::json::{
    document, write_bool, write_number, write_seq, write_string, JsonError, Reader, Value,
};

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
    pub cwd: String,
    pub terminal: bool,
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
pub struct RootSpec {
    pub path: String,
    pub readonly: bool,
}

/// One `mounts` entry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MountSpec {
    pub destination: String,
    pub source: String,
    pub fstype: String,
    pub options: Vec<String>,
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
    pub oci_version: String,
    pub process: ProcessSpec,
    pub root: RootSpec,
    pub hostname: String,
    pub mounts: Vec<MountSpec>,
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
            out.push_str(",\"resources\":{\"memory\":{\"limit\":");
            write_number(&mut out, limit as f64);
            out.push_str("}}");
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
    pub fn from_json(input: &str) -> Result<RuntimeSpec, JsonError> {
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
                    linux.memory.limit = read_member(r, "memory", |r| {
                        read_member(r, "limit", |r| {
                            Ok(r.number()?.and_then(|n| Value::Number(n).as_u64()))
                        })
                    })?
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

    #[test]
    fn memory_limit_survives() {
        let mut spec = RuntimeSpec::for_command("c", vec!["x".into()]);
        spec.linux.memory.limit = Some(128 << 20);
        let back = RuntimeSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back.linux.memory.limit, Some(128 << 20));
    }
}
